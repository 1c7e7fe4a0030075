// Property tests for the cycle-level memory system: randomized request
// streams over every device preset must satisfy the controller's invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/memory_system.h"
#include "src/sim/simulator.h"

namespace mrm {
namespace mem {
namespace {

struct PresetCase {
  std::string name;
  DeviceConfig (*make)();
};

// Without a printer gtest names each test after the parameter's raw bytes,
// which hold addresses that ASLR moves on every run.
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.name; }

DeviceConfig SmallHbm3() {
  DeviceConfig config = HBM3Config();
  config.channels = 2;
  config.rows_per_bank = 256;
  return config;
}

DeviceConfig SmallLpddr() {
  DeviceConfig config = LPDDR5XConfig();
  config.channels = 2;
  config.rows_per_bank = 256;
  return config;
}

DeviceConfig SmallDdr5() {
  DeviceConfig config = DDR5Config();
  config.rows_per_bank = 256;
  return config;
}

class MemPropertyTest : public ::testing::TestWithParam<PresetCase> {};

INSTANTIATE_TEST_SUITE_P(Presets, MemPropertyTest,
                         ::testing::Values(PresetCase{"hbm3", &SmallHbm3},
                                           PresetCase{"lpddr5x", &SmallLpddr},
                                           PresetCase{"ddr5", &SmallDdr5}),
                         [](const auto& param_info) { return param_info.param.name; });

TEST_P(MemPropertyTest, RandomTrafficAllCompletesExactlyOnce) {
  const DeviceConfig config = GetParam().make();
  sim::Simulator simulator(1e12);
  MemorySystem system(&simulator, config);
  Rng rng(2024);

  constexpr int kRequests = 800;
  int completions = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.kind = rng.NextBool(0.7) ? Request::Kind::kRead : Request::Kind::kWrite;
    request.addr = rng.NextBounded(config.capacity_bytes() / 64) * 64;
    request.size = 64;
    if (request.kind == Request::Kind::kRead) {
      read_bytes += request.size;
    } else {
      write_bytes += request.size;
    }
    request.on_complete = [&completions](const Request&) { ++completions; };
    system.Enqueue(std::move(request));
  }
  simulator.Run();
  EXPECT_EQ(completions, kRequests);
  EXPECT_TRUE(system.Idle());
  const SystemStats stats = system.GetStats();
  EXPECT_EQ(stats.bytes_read, read_bytes);
  EXPECT_EQ(stats.bytes_written, write_bytes);
  EXPECT_EQ(stats.reads_completed + stats.writes_completed,
            static_cast<std::uint64_t>(kRequests));
  // Every access either hit or missed the row buffer.
  EXPECT_EQ(stats.row_hits + stats.row_misses, static_cast<std::uint64_t>(kRequests));
}

TEST_P(MemPropertyTest, LatencyNeverBelowTimingChain) {
  const DeviceConfig config = GetParam().make();
  sim::Simulator simulator(1e12);
  MemorySystem system(&simulator, config);
  Rng rng(7);
  // Minimum possible read latency: tCAS + tBURST (row already open).
  const double min_ns = config.timings.tcas_ns + config.timings.tburst_ns;
  double observed_min = 1e18;
  int done = 0;
  for (int i = 0; i < 300; ++i) {
    Request request;
    request.kind = Request::Kind::kRead;
    request.addr = rng.NextBounded(config.capacity_bytes() / 64) * 64;
    request.size = 64;
    request.enqueue_tick = 0;
    request.on_complete = [&](const Request& r) {
      ++done;
      const double latency_ns =
          simulator.TicksToSeconds(r.complete_tick - r.enqueue_tick) * 1e9;
      observed_min = std::min(observed_min, latency_ns);
    };
    system.Enqueue(std::move(request));
  }
  simulator.Run();
  ASSERT_EQ(done, 300);
  EXPECT_GE(observed_min, min_ns * 0.999);
}

TEST_P(MemPropertyTest, EnergyMonotoneInTraffic) {
  const DeviceConfig config = GetParam().make();
  auto energy_for = [&](int requests) {
    sim::Simulator simulator(1e12);
    MemorySystem system(&simulator, config);
    Rng rng(3);
    for (int i = 0; i < requests; ++i) {
      Request request;
      request.kind = Request::Kind::kRead;
      request.addr = rng.NextBounded(config.capacity_bytes() / 64) * 64;
      request.size = 64;
      system.Enqueue(std::move(request));
    }
    simulator.Run();
    const EnergyReport energy = system.GetStats().energy;
    // Compare dynamic energy only (background scales with duration).
    return energy.read_pj + energy.activate_pj + energy.io_pj;
  };
  EXPECT_LT(energy_for(50), energy_for(200));
}

TEST_P(MemPropertyTest, FrFcfsNeverSlowerThanFcfsOnRandomTraces) {
  const DeviceConfig config = GetParam().make();
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto run = [&](SchedulerPolicy policy) {
      sim::Simulator simulator(1e12);
      MemorySystem system(&simulator, config, policy);
      Rng rng(seed);
      for (int i = 0; i < 400; ++i) {
        Request request;
        request.kind = Request::Kind::kRead;
        // Mix of streaming and conflicting rows.
        const std::uint64_t base = (i % 5 == 0) ? rng.NextBounded(64) * 4096 : 0;
        request.addr = (base + static_cast<std::uint64_t>(i) * 64) %
                       (config.capacity_bytes() / 64 * 64);
        request.size = 64;
        system.Enqueue(std::move(request));
      }
      simulator.Run();
      return simulator.now();
    };
    EXPECT_LE(run(SchedulerPolicy::kFrFcfs), run(SchedulerPolicy::kFcfs)) << "seed " << seed;
  }
}

TEST_P(MemPropertyTest, DeterministicAcrossRuns) {
  const DeviceConfig config = GetParam().make();
  auto run = [&] {
    sim::Simulator simulator(1e12);
    MemorySystem system(&simulator, config);
    Rng rng(99);
    for (int i = 0; i < 300; ++i) {
      Request request;
      request.kind = rng.NextBool(0.5) ? Request::Kind::kRead : Request::Kind::kWrite;
      request.addr = rng.NextBounded(config.capacity_bytes() / 64) * 64;
      request.size = 64;
      system.Enqueue(std::move(request));
    }
    simulator.Run();
    return simulator.now();
  };
  const sim::Tick first = run();
  EXPECT_EQ(first, run());
}

TEST_P(MemPropertyTest, BulkTransfersOfOddSizesConserveBytes) {
  const DeviceConfig config = GetParam().make();
  sim::Simulator simulator(1e12);
  MemorySystem system(&simulator, config);
  Rng rng(5);
  std::uint64_t expected = 0;
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t bytes = 1 + rng.NextBounded(5000);
    const std::uint64_t addr = rng.NextBounded(config.capacity_bytes() - 8192);
    expected += bytes;
    system.Transfer(Request::Kind::kRead, addr, bytes, 0, [&done] { ++done; });
  }
  simulator.Run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(system.GetStats().bytes_read, expected);
}

}  // namespace
}  // namespace mem
}  // namespace mrm
