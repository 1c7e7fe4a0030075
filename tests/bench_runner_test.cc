#include "bench/common/bench_runner.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "bench/common/sim_workloads.h"
#include "src/mem/device_config.h"
#include "src/sim/simulator.h"

namespace mrm {
namespace bench {
namespace {

// Builds the same sweep every time: a mix of pure-CPU points and real
// closed-loop simulations, all self-contained per the runner's determinism
// contract.
void BuildSweep(BenchRunner& runner) {
  for (int p = 0; p < 6; ++p) {
    runner.Add("cpu_" + std::to_string(p), [p](PointResult& r) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(p) + 1);
      double sum = 0.0;
      for (int i = 0; i < 50000; ++i) {
        sum += static_cast<double>(rng() % 1000);
      }
      r.events = 50000;
      r.metrics["sum"] = sum;
    });
  }
  for (int p = 0; p < 2; ++p) {
    runner.Add("sim_" + std::to_string(p), [p](PointResult& r) {
      sim::Simulator sim;
      mem::MemorySystem system(&sim, mem::DDR5Config());
      const MemRunResult run = MemClosedLoop(sim, system, /*total=*/4000, /*window=*/64,
                                             /*read_pct=*/60, /*seq_pct=*/50,
                                             /*rng_seed=*/static_cast<std::uint64_t>(p) + 1);
      r.events = run.events;
      r.metrics["reads"] = static_cast<double>(run.reads);
      r.metrics["read_latency_mean_ns"] = run.read_latency_mean_ns;
      r.metrics["row_hit_rate"] = run.row_hit_rate;
    });
  }
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// The JSON holds modelled outputs only — no wall time, rate or thread count —
// so the same sweep on bench pools of 1 and 8 threads writes the same bytes.
// That is what lets CI compare bench outputs with cmp. Doubles print with
// %.17g, so equal files also mean bit-identical events and metrics.
TEST(BenchRunner, MultiThreadedSweepMatchesSingleThreaded) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / ("bench_runner_" + std::to_string(::getpid()));
  std::string files[2];
  const unsigned pools[2] = {1, 8};
  for (int k = 0; k < 2; ++k) {
    const std::filesystem::path dir = root / std::to_string(pools[k]);
    std::filesystem::create_directories(dir);
    setenv("MRMSIM_BENCH_OUT", dir.c_str(), 1);
    BenchRunner runner("runner_test_pools");
    runner.SetConfig("suite", "bench pool identity");
    BuildSweep(runner);
    ASSERT_EQ(runner.RunAndReport(pools[k]), 0);
    files[k] = ReadFile(dir / "BENCH_runner_test_pools.json");
  }
  std::filesystem::remove_all(root);
  ASSERT_NE(files[0].find("\"sim_1\""), std::string::npos) << files[0];
  EXPECT_EQ(files[0], files[1]);
}

TEST(BenchRunner, ParseFlagsResolveArgOverEnvOverFallback) {
  const auto with_args = [](std::vector<std::string> args, auto fn) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("bench"));
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    return fn(static_cast<int>(argv.size()), argv.data());
  };

  unsetenv("MRMSIM_SIM_THREADS");
  unsetenv("MRMSIM_EPOCH_BATCH");
  EXPECT_EQ(with_args({}, [](int c, char** v) { return ParseSimThreads(c, v, 3); }), 3);
  EXPECT_EQ(with_args({}, [](int c, char** v) { return ParseEpochBatch(c, v, 0); }), 0);
  EXPECT_EQ(with_args({"--sim-threads=8"},
                      [](int c, char** v) { return ParseSimThreads(c, v, 3); }),
            8);
  EXPECT_EQ(with_args({"--sim-epoch-batch=16"},
                      [](int c, char** v) { return ParseEpochBatch(c, v, 0); }),
            16);

  setenv("MRMSIM_SIM_THREADS", "2", 1);
  setenv("MRMSIM_EPOCH_BATCH", "4", 1);
  EXPECT_EQ(with_args({}, [](int c, char** v) { return ParseSimThreads(c, v, 3); }), 2);
  EXPECT_EQ(with_args({}, [](int c, char** v) { return ParseEpochBatch(c, v, 0); }), 4);
  // An explicit argument wins over the environment.
  EXPECT_EQ(with_args({"--sim-threads=6"},
                      [](int c, char** v) { return ParseSimThreads(c, v, 3); }),
            6);
  EXPECT_EQ(with_args({"--sim-epoch-batch=1"},
                      [](int c, char** v) { return ParseEpochBatch(c, v, 0); }),
            1);
  unsetenv("MRMSIM_SIM_THREADS");
  unsetenv("MRMSIM_EPOCH_BATCH");

  // Out-of-range values clamp to the safe end: serial / auto.
  EXPECT_EQ(with_args({"--sim-threads=-2"},
                      [](int c, char** v) { return ParseSimThreads(c, v, 3); }),
            1);
  EXPECT_EQ(with_args({"--sim-epoch-batch=-7"},
                      [](int c, char** v) { return ParseEpochBatch(c, v, 5); }),
            0);
}

TEST(BenchRunner, StrictKnobsRejectBadValuesLoudly) {
  const auto with_args = [](std::vector<std::string> args, auto fn) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("bench"));
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    return fn(static_cast<int>(argv.size()), argv.data());
  };
  const auto spec = [](int c, char** v) { return ParseSpecHorizon(c, v); };

  unsetenv("MRMSIM_SPEC_HORIZON");
  EXPECT_EQ(with_args({}, spec), 0u);
  EXPECT_EQ(with_args({"--sim-spec-horizon=4096"}, spec), 4096u);

  // Env applies, an explicit argument wins (the MRMSIM_EPOCH_BATCH pattern).
  setenv("MRMSIM_SPEC_HORIZON", "256", 1);
  EXPECT_EQ(with_args({}, spec), 256u);
  EXPECT_EQ(with_args({"--sim-spec-horizon=1024"}, spec), 1024u);

  // Malformed or negative values are ignored (with a one-line stderr
  // diagnostic) — the previously-resolved value stands.
  EXPECT_EQ(with_args({"--sim-spec-horizon=12abc"}, spec), 256u);
  EXPECT_EQ(with_args({"--sim-spec-horizon=-5"}, spec), 256u);
  setenv("MRMSIM_SPEC_HORIZON", "not-a-number", 1);
  EXPECT_EQ(with_args({}, spec), 0u);
  EXPECT_EQ(with_args({"--sim-spec-horizon=32"}, spec), 32u);
  unsetenv("MRMSIM_SPEC_HORIZON");
}

TEST(BenchRunner, ResultsKeepRegistrationOrder) {
  setenv("MRMSIM_BENCH_OUT", "/tmp", 1);
  BenchRunner runner("runner_test_order");
  for (int p = 0; p < 16; ++p) {
    runner.Add("p" + std::to_string(p), [p](PointResult& r) { r.events = 100u + p; });
  }
  ASSERT_EQ(runner.RunAndReport(/*threads=*/4), 0);
  ASSERT_EQ(runner.results().size(), 16u);
  for (int p = 0; p < 16; ++p) {
    EXPECT_EQ(runner.results()[static_cast<std::size_t>(p)].first, "p" + std::to_string(p));
    EXPECT_EQ(runner.results()[static_cast<std::size_t>(p)].second.events, 100u + p);
  }
}

}  // namespace
}  // namespace bench
}  // namespace mrm
