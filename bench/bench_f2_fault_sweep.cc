// F2 — Fault injection sweep (DESIGN.md §10): availability and goodput of
// the MRM control plane under deterministic fault injection, as a function
// of fault rate × ECC strength.
//
// Each MRM point runs a closed-loop KV-churn workload (append with a
// lifetime, read while live, free on expiry) against a device whose reads
// pass the ECC decode model while the injector fires transient bit errors,
// stuck-at blocks and whole-zone failures. The control plane recovers:
// bounded read-retry, emergency scrub, zone retirement. Expected shape:
// availability degrades smoothly as the fault rate rises and is restored by
// a stronger code (larger ecc_t); capacity shrinks gracefully as zones
// retire.
//
// Two fabric points exercise the mem::MemorySystem stall / dropped-completion
// paths serially and on a sharded worker pool; their metrics must be
// bit-identical at any --sim-threads (CI compares the JSON of an audited
// 1-thread and 4-thread run with cmp).
//
// Fault overrides: --fault-seed=N picks the injector seed; the MRMSIM_FAULTS
// spec (see README "Fault injection") overrides any other rate. Runs through
// BenchRunner and lands in BENCH_f2_fault_sweep.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/bench_runner.h"
#include "src/check/attach.h"
#include "src/common/table.h"
#include "src/fault/fault_config.h"
#include "src/fault/fault_injector.h"
#include "src/mem/memory_system.h"
#include "src/mrm/control_plane.h"
#include "src/sim/simulator.h"

namespace {

using namespace mrm;  // NOLINT: bench binary

constexpr std::uint64_t kBlockBytes = 64 * 1024;
constexpr double kDataLifetimeS = 600.0;  // KV blocks live ~10 minutes
constexpr double kExperimentS = 1800.0;   // half a simulated hour per point
constexpr int kBlocksPerBatch = 32;       // appended every kBatchPeriodS
constexpr int kReadsPerBatch = 48;        // live blocks re-read every batch
constexpr double kBatchPeriodS = 10.0;

// The sweep's fault axis: `rate` scales every MRM injection path at once
// (transient RBER directly; stuck-at and zone failure at derived rates kept
// rare enough that the read path, not catastrophic loss, dominates).
fault::FaultConfig MrmFaultConfig(double rate, const fault::FaultConfig& base) {
  fault::FaultConfig config = base;
  config.transient_rber = rate;
  config.stuck_block_prob = rate;
  config.stuck_wear_fraction = 0.0;  // wear-independent in the sweep
  config.zone_failure_prob = rate * 0.1;
  return config;
}

struct ChurnResult {
  std::uint64_t events = 0;
  std::uint64_t appends_ok = 0;
  std::uint64_t appends_failed = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_lost = 0;
  double sim_seconds = 0.0;
  mrmcore::ControlPlaneStats plane;
  mrmcore::MrmDeviceStats device;
  fault::FaultStats faults;
  double usable_capacity = 1.0;
};

ChurnResult RunMrmChurn(double rate, int ecc_t, const fault::FaultConfig& base) {
  sim::Simulator simulator(1e9);
  mrmcore::MrmDeviceConfig config;
  config.technology = cell::Technology::kSttMram;
  config.channels = 4;
  config.zones = 64;
  config.zone_blocks = 32;
  config.block_bytes = kBlockBytes;
  config.ecc_t = ecc_t;
  config.ecc_codeword_bits = 4096;  // 512 B codewords: per-block UE rate is smooth
  mrmcore::MrmDevice device(&simulator, config);
  mrmcore::ControlPlaneOptions options;
  options.scrub_period_s = 60.0;
  mrmcore::ControlPlane plane(&simulator, &device, options);

  fault::FaultInjector injector(MrmFaultConfig(rate, base));
  plane.SetFaultInjector(&injector);
  // In a checked build with MRMSIM_CHECK set, audit the device contract and
  // fault conservation (passive: measured stats are unchanged).
  check::ScopedMrmChecker device_checker(&device);
  check::ScopedFaultChecker fault_checker(&injector);

  ChurnResult result;
  std::vector<std::pair<double, mrmcore::LogicalId>> live;  // (expiry, id)
  std::size_t read_cursor = 0;
  for (double t = 0.0; t < kExperimentS; t += kBatchPeriodS) {
    simulator.RunUntil(simulator.SecondsToTicks(t));
    while (!live.empty() && live.front().first <= t) {
      if (plane.Alive(live.front().second)) {
        plane.Free(live.front().second);
      }
      live.erase(live.begin());
    }
    for (int i = 0; i < kBlocksPerBatch; ++i) {
      auto id = plane.Append(kDataLifetimeS);
      if (id.ok()) {
        live.emplace_back(t + kDataLifetimeS, id.value());
        ++result.appends_ok;
      } else {
        ++result.appends_failed;
      }
    }
    for (int i = 0; i < kReadsPerBatch && !live.empty(); ++i) {
      read_cursor = (read_cursor + 1) % live.size();
      const Status issued = plane.Read(live[read_cursor].second, [&result](bool ok) {
        if (ok) {
          ++result.reads_ok;
        } else {
          ++result.reads_lost;
        }
      });
      if (!issued.ok()) {
        ++result.reads_lost;  // already dropped (zone failure before read)
      }
    }
  }
  // Drain in-flight reads / retries / scrubs; bounded because the periodic
  // scrub task reschedules itself forever (Run() would never return).
  simulator.RunUntil(simulator.SecondsToTicks(kExperimentS + kBatchPeriodS));

  result.events = simulator.events_executed();
  result.sim_seconds = simulator.now_seconds();
  result.plane = plane.stats();
  result.device = device.stats();
  result.faults = injector.stats();
  result.usable_capacity = plane.UsableCapacityFraction();
  return result;
}

// Fabric fault point: a sequential read stream through mem::MemorySystem
// with stall / dropped-completion injection, at a given worker-pool size and
// speculation window (0 = off; any window leaves the metrics bit-identical).
void RunFabricPoint(int sim_threads, sim::Tick spec_horizon, const fault::FaultConfig& base,
                    bench::PointResult& r) {
  fault::FaultConfig config = base;
  config.channel_stall_prob = 0.01;
  config.drop_completion_prob = 0.01;
  fault::FaultInjector injector(config);

  sim::Simulator simulator(1e12);
  mem::MemorySystem system(&simulator, mem::HBM3EConfig());
  system.SetFaultInjector(&injector);
  check::ScopedChecker checker(&simulator, &system);
  check::ScopedFaultChecker fault_checker(&injector);
  simulator.SetWorkerThreads(sim_threads);
  simulator.SetSpeculationWindow(spec_horizon);
  const std::uint64_t bytes = 8ull << 20;
  bool done = false;
  system.Transfer(mem::Request::Kind::kRead, 0, bytes, 0, [&] { done = true; });
  simulator.Run();

  const mem::SystemStats stats = system.GetStats();
  r.events = simulator.events_executed();
  r.metrics["measured_gb_s"] =
      done ? static_cast<double>(bytes) / simulator.now_seconds() / 1e9 : 0.0;
  r.metrics["injected_stalls"] = static_cast<double>(stats.injected_stalls);
  r.metrics["dropped_completions"] = static_cast<double>(stats.dropped_completions);
  r.metrics["fault_unresolved"] =
      static_cast<double>(injector.stats().injected_total() - injector.stats().resolutions);
}

std::string RateLabel(double rate) {
  if (rate <= 0.0) {
    return "0";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.0e", rate);
  return buffer;
}

double Metric(const bench::PointResult& r, const std::string& key) {
  const auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0.0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  const int sim_threads = bench::ParseSimThreads(argc, argv, /*fallback=*/4);
  const auto spec_horizon = static_cast<sim::Tick>(bench::ParseSpecHorizon(argc, argv));

  fault::FaultConfig base;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      char* end = nullptr;
      base.seed = std::strtoull(argv[i] + 13, &end, 10);
      if (end == argv[i] + 13 || *end != '\0') {
        std::fprintf(stderr, "bench_f2_fault_sweep: bad --fault-seed value '%s'\n", argv[i] + 13);
        return 1;
      }
    }
  }
  const auto env = fault::FaultConfigFromEnv(base);
  if (!env.ok()) {
    std::fprintf(stderr, "bench_f2_fault_sweep: %s\n", env.error().message().c_str());
    return 1;
  }
  base = env.value();

  std::printf("F2: fault-rate x ECC-strength sweep through the RAS recovery path (§4)\n");

  bench::BenchRunner runner("f2_fault_sweep");
  runner.SetConfig("suite", "fault injection: availability/goodput vs rate x ecc_t");
  runner.SetConfig("fault_seed", std::to_string(base.seed));

  const std::vector<double> rates = {0.0, 1e-4, 3e-4, 1e-3, 3e-3};
  const std::vector<int> ecc_strengths = {4, 16, 64};
  for (const int ecc_t : ecc_strengths) {
    for (const double rate : rates) {
      const std::string label = "mrm_r" + RateLabel(rate) + "_t" + std::to_string(ecc_t);
      runner.Add(label, [rate, ecc_t, base](bench::PointResult& r) {
        const ChurnResult churn = RunMrmChurn(rate, ecc_t, base);
        r.events = churn.events;
        r.metrics["rate"] = rate;
        r.metrics["ecc_t"] = static_cast<double>(ecc_t);
        const double reads_total = static_cast<double>(churn.reads_ok + churn.reads_lost);
        r.metrics["availability"] =
            reads_total > 0.0 ? static_cast<double>(churn.reads_ok) / reads_total : 0.0;
        r.metrics["goodput_mb_s"] =
            churn.sim_seconds > 0.0
                ? static_cast<double>(churn.reads_ok) * kBlockBytes / churn.sim_seconds / 1e6
                : 0.0;
        r.metrics["usable_capacity"] = churn.usable_capacity;
        r.metrics["appends_failed"] = static_cast<double>(churn.appends_failed);
        r.metrics["read_retries"] = static_cast<double>(churn.plane.read_retries);
        r.metrics["retry_successes"] = static_cast<double>(churn.plane.retry_successes);
        r.metrics["emergency_scrubs"] = static_cast<double>(churn.plane.emergency_scrubs);
        r.metrics["uncorrectable_drops"] = static_cast<double>(churn.plane.uncorrectable_drops);
        r.metrics["zones_retired"] = static_cast<double>(churn.plane.zones_retired);
        r.metrics["blocks_remapped"] = static_cast<double>(churn.plane.blocks_remapped);
        r.metrics["corrected_reads"] = static_cast<double>(churn.device.corrected_reads);
        r.metrics["silent_corruptions"] = static_cast<double>(churn.device.silent_corruptions);
        r.metrics["accounting_errors"] = static_cast<double>(churn.plane.accounting_errors);
        r.metrics["fault_unresolved"] = static_cast<double>(churn.faults.injected_total() -
                                                            churn.faults.resolutions);
      });
    }
  }

  // Fabric pair: identical fault schedule serially and sharded. Both labels'
  // metrics must match each other — and a run at any other --sim-threads —
  // bit for bit (the determinism claim; CI compares the JSON with cmp).
  runner.Add("fabric_faults_shard_serial",
             [base](bench::PointResult& r) { RunFabricPoint(1, /*spec_horizon=*/0, base, r); });
  runner.Add("fabric_faults_shard_parallel", [sim_threads, spec_horizon,
                                              base](bench::PointResult& r) {
    RunFabricPoint(sim_threads, spec_horizon, base, r);
  });

  const int rc = runner.RunAndReport();

  TablePrinter table({"point", "availability", "goodput MB/s", "usable cap", "retries",
                      "scrubs", "UE drops", "zones retired"});
  for (const auto& [label, result] : runner.results()) {
    if (label.rfind("mrm_", 0) != 0) {
      continue;
    }
    table.AddRow({label, FormatNumber(Metric(result, "availability")),
                  FormatNumber(Metric(result, "goodput_mb_s")),
                  FormatNumber(Metric(result, "usable_capacity")),
                  FormatNumber(Metric(result, "read_retries")),
                  FormatNumber(Metric(result, "emergency_scrubs")),
                  FormatNumber(Metric(result, "uncorrectable_drops")),
                  FormatNumber(Metric(result, "zones_retired"))});
  }
  table.Print("Availability / goodput vs fault rate x ECC strength");

  std::printf("Shape check: rate 0 matches the fault-free simulator exactly; availability\n");
  std::printf("falls smoothly with the fault rate and is restored by a stronger code\n");
  std::printf("(ecc_t 4 -> 64); capacity shrinks gracefully as zones retire (§4).\n");
  return rc;
}
