// E12 — §2.1: "even using HBM, a substantial part of every inference query
// is memory bound", and §3: MRM must match read bandwidth to compete.
//
// Part 1: cycle-level sequential-read bandwidth of every DRAM preset vs.
//         the analytic stream model (cross-validation).
// Part 2: shard identity — the same HBM3e sequential stream executed
//         serially and on a channel-sharded worker pool (--sim-threads=N),
//         plus speculative and bursty variants; metrics are bit-identical
//         at any thread count, epoch batch or speculation window.
// Part 3: decode-step roofline — memory-bound fraction as accelerator
//         compute scales, on HBM and on an MRM weights tier.
//
// Runs through BenchRunner, so the sweep also lands in
// BENCH_e12_bandwidth.json, which CI compares with cmp across thread counts,
// epoch batches and audited (MRMSIM_CHECK=1) runs.

#include <cstdio>
#include <string>

#include "bench/common/bench_runner.h"
#include "src/check/attach.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/mem/memory_system.h"
#include "src/mem/stream_model.h"
#include "src/sim/simulator.h"
#include "src/tier/tier_spec.h"
#include "src/tier/tiered_backend.h"
#include "src/workload/inference_engine.h"

namespace {

using namespace mrm;  // NOLINT: bench binary

struct BandwidthRun {
  double bytes_per_s = 0.0;
  std::uint64_t events = 0;
};

BandwidthRun MeasureSequentialBandwidth(const mem::DeviceConfig& config, int sim_threads,
                                        int epoch_batch, sim::Tick spec_window = 0) {
  // Picosecond ticks: HBM-class sub-ns burst timings would be quantized to
  // whole nanoseconds otherwise, understating bandwidth by up to 60%.
  sim::Simulator simulator(1e12);
  mem::MemorySystem system(&simulator, config);
  // In a checked build with MRMSIM_CHECK set, audit every command of the run
  // (the auditor is passive: measured stats are unchanged).
  check::ScopedChecker checker(&simulator, &system);
  simulator.SetWorkerThreads(sim_threads);
  simulator.SetEpochBatch(epoch_batch);
  simulator.SetSpeculationWindow(spec_window);
  const std::uint64_t bytes = 8ull << 20;
  bool done = false;
  system.Transfer(mem::Request::Kind::kRead, 0, bytes, 0, [&] { done = true; });
  simulator.Run();
  BandwidthRun run;
  run.bytes_per_s = done ? static_cast<double>(bytes) / simulator.now_seconds() : 0.0;
  run.events = simulator.events_executed();
  return run;
}

// Duty-cycled stream: short read bursts separated by idle gaps — the shape
// where speculation pays. Quiescent lanes jump each gap in a handful of
// speculative spans instead of marching conservative H-wide epochs through
// it, so dispatches collapse while measured bandwidth stays bit-identical.
BandwidthRun MeasureBurstyBandwidth(int sim_threads, int epoch_batch, sim::Tick spec_window) {
  sim::Simulator simulator(1e12);
  mem::MemorySystem system(&simulator, mem::HBM3EConfig());
  check::ScopedChecker checker(&simulator, &system);
  simulator.SetWorkerThreads(sim_threads);
  simulator.SetEpochBatch(epoch_batch);
  simulator.SetSpeculationWindow(spec_window);
  const std::uint64_t burst_bytes = 64ull << 10;
  const int bursts = 64;
  const sim::Tick gap = 2000000;  // 2 us of ps ticks: the device drains fully between bursts
  std::uint64_t done_bytes = 0;
  for (int b = 0; b < bursts; ++b) {
    simulator.ScheduleAt(static_cast<sim::Tick>(b) * gap + 1, [&, b] {
      system.Transfer(mem::Request::Kind::kRead,
                      static_cast<std::uint64_t>(b) * burst_bytes, burst_bytes, 0,
                      [&] { done_bytes += burst_bytes; });
    });
  }
  simulator.Run();
  BandwidthRun run;
  run.bytes_per_s = static_cast<double>(done_bytes) / simulator.now_seconds();
  run.events = simulator.events_executed();
  return run;
}

workload::EngineSummary RunDecodeHeavy(workload::MemoryBackend* backend, double tflops) {
  workload::EngineConfig config;
  config.model = workload::Llama2_70B();
  config.max_batch = 16;
  config.compute_tflops = tflops;
  workload::InferenceEngine engine(config, backend);
  std::vector<workload::InferenceRequest> requests;
  for (int i = 0; i < 16; ++i) {
    workload::InferenceRequest request;
    request.id = static_cast<std::uint64_t>(i + 1);
    request.prompt_tokens = 512;
    request.output_tokens = 128;
    requests.push_back(request);
  }
  return engine.Run(requests);
}

double Metric(const bench::PointResult& r, const std::string& key) {
  const auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0.0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  const int sim_threads = bench::ParseSimThreads(argc, argv, /*fallback=*/4);
  const int epoch_batch = bench::ParseEpochBatch(argc, argv, /*fallback=*/0);
  const auto spec_horizon = static_cast<sim::Tick>(bench::ParseSpecHorizon(argc, argv));
  std::printf("E12: bandwidth validation and the memory-bound roofline (§2.1/§3)\n");

  bench::BenchRunner runner("e12_bandwidth");
  runner.SetConfig("suite", "sequential bandwidth + decode roofline");

  const std::vector<mem::DeviceConfig> devices = {mem::HBM3Config(), mem::HBM3EConfig(),
                                                  mem::LPDDR5XConfig(), mem::DDR5Config()};
  for (const mem::DeviceConfig& config : devices) {
    runner.Add("bw_" + config.name, [config, epoch_batch](bench::PointResult& r) {
      const BandwidthRun run = MeasureSequentialBandwidth(config, /*sim_threads=*/1, epoch_batch);
      r.events = run.events;
      r.metrics["peak_gb_s"] = config.peak_bandwidth_bytes_per_s() / 1e9;
      r.metrics["model_gb_s"] = mem::StreamModel(config).EffectiveBandwidth() / 1e9;
      r.metrics["measured_gb_s"] = run.bytes_per_s / 1e9;
    });
  }

  // Shard pair on the 16-channel device: the same stream serially and on
  // the sharded worker pool. Labels stay fixed as --sim-threads varies, so
  // runs at different thread counts write byte-identical files.
  for (const bool parallel : {false, true}) {
    const std::string label = parallel ? "bw_hbm3e_shard_parallel" : "bw_hbm3e_shard_serial";
    const int threads = parallel ? sim_threads : 1;
    runner.Add(label, [threads, epoch_batch](bench::PointResult& r) {
      const BandwidthRun run = MeasureSequentialBandwidth(mem::HBM3EConfig(), threads, epoch_batch);
      r.events = run.events;
      r.metrics["measured_gb_s"] = run.bytes_per_s / 1e9;
    });
  }
  // Same sharded stream with speculative lane execution enabled: measured
  // bandwidth is bit-identical to the spec-off pair (the determinism
  // contract), so this point catches a speculation-induced drift in the
  // stats the moment one appears. Its `events` count lane work a rollback
  // re-executed, so it moves with the window. The default window is sized
  // for this bench's picosecond clock (the fabric hop alone is 4000 ticks),
  // so a sub-hop window would never engage.
  runner.Add("bw_hbm3e_shard_parallel_spec", [sim_threads, epoch_batch,
                                              spec_horizon](bench::PointResult& r) {
    const BandwidthRun run =
        MeasureSequentialBandwidth(mem::HBM3EConfig(), sim_threads, epoch_batch,
                                   spec_horizon > 0 ? spec_horizon : sim::Tick{65536});
    r.events = run.events;
    r.metrics["measured_gb_s"] = run.bytes_per_s / 1e9;
  });

  // Bursty duty-cycled pair on the same device: the shape where quiescent
  // lanes speculate across whole idle gaps (the saturated sequential stream
  // above never quiesces). The spec-on window must cover the 2 us
  // inter-burst gap on the picosecond clock, hence the 4M-tick default.
  for (const bool spec_on : {false, true}) {
    const std::string label = spec_on ? "bw_hbm3e_burst_spec_on" : "bw_hbm3e_burst_spec_off";
    runner.Add(label, [sim_threads, epoch_batch, spec_horizon, spec_on](bench::PointResult& r) {
      const sim::Tick window =
          !spec_on ? sim::Tick{0}
                   : (spec_horizon > 0 ? spec_horizon : sim::Tick{4 * 1024 * 1024});
      const BandwidthRun run = MeasureBurstyBandwidth(sim_threads, epoch_batch, window);
      r.events = run.events;
      r.metrics["measured_gb_s"] = run.bytes_per_s / 1e9;
    });
  }

  const workload::TierSpec hbm = tier::TierSpecFromDevice(mem::HBM3EConfig(), 8);
  mrmcore::MrmDeviceConfig mrm_config;
  mrm_config.technology = cell::Technology::kSttMram;
  mrm_config.channels = 96;  // sized at HBM-comparable aggregate read bw
  mrm_config.channel_read_bw_bytes_per_s = 100e9;
  const workload::TierSpec mrm = tier::TierSpecFromMrm(mrm_config, 1, 6.0 * kHour);

  for (const double tflops : {100.0, 400.0, 1000.0, 2500.0, 5000.0}) {
    runner.Add("roofline_" + std::to_string(static_cast<int>(tflops)) + "tflops",
               [hbm, mrm, tflops](bench::PointResult& r) {
                 workload::AnalyticBackend hbm_backend(hbm, workload::Llama2_70B().weight_bytes());
                 const auto hbm_summary = RunDecodeHeavy(&hbm_backend, tflops);

                 tier::Placement placement;
                 placement.weights_tier = 1;
                 placement.kv_cold_tier = 1;
                 placement.kv_hot_fraction = 0.15;
                 tier::TieredBackend tiered({hbm, mrm}, placement,
                                            workload::Llama2_70B().weight_bytes());
                 const auto mrm_summary = RunDecodeHeavy(&tiered, tflops);

                 r.events = 16 * (512 + 128);  // tokens decoded per backend
                 r.metrics["tflops"] = tflops;
                 r.metrics["hbm_mem_bound_frac"] = hbm_summary.memory_bound_fraction();
                 r.metrics["hbm_tokens_per_s"] = hbm_summary.decode_tokens_per_s();
                 r.metrics["mrm_mem_bound_frac"] = mrm_summary.memory_bound_fraction();
                 r.metrics["mrm_tokens_per_s"] = mrm_summary.decode_tokens_per_s();
               });
  }

  const int rc = runner.RunAndReport();

  TablePrinter bandwidth({"device", "peak GB/s", "model GB/s", "measured GB/s",
                          "model/measured"});
  TablePrinter roofline({"accelerator TFLOPs", "HBM mem-bound frac", "HBM tokens/s",
                         "HBM+MRM mem-bound frac", "HBM+MRM tokens/s"});
  for (const auto& [label, result] : runner.results()) {
    if (label.rfind("bw_", 0) == 0 && label.find("shard") == std::string::npos &&
        label.find("burst") == std::string::npos) {
      const double model = Metric(result, "model_gb_s");
      const double measured = Metric(result, "measured_gb_s");
      bandwidth.AddRow({label.substr(3), FormatNumber(Metric(result, "peak_gb_s")),
                        FormatNumber(model), FormatNumber(measured),
                        FormatNumber(measured > 0.0 ? model / measured : 0.0)});
    } else if (label.rfind("roofline_", 0) == 0) {
      roofline.AddRow({FormatNumber(Metric(result, "tflops")),
                       FormatNumber(Metric(result, "hbm_mem_bound_frac")),
                       FormatNumber(Metric(result, "hbm_tokens_per_s")),
                       FormatNumber(Metric(result, "mrm_mem_bound_frac")),
                       FormatNumber(Metric(result, "mrm_tokens_per_s"))});
    }
  }
  bandwidth.Print("Sequential-read bandwidth: cycle simulator vs. analytic model");
  roofline.Print("Decode roofline: memory-boundedness vs. accelerator compute");

  std::printf("Shape check: the analytic model tracks the cycle simulator within ~5%%;\n");
  std::printf("decode is memory bound on HBM across realistic accelerator speeds (§2.1),\n");
  std::printf("and an MRM tier sized at comparable read bandwidth tracks the HBM\n");
  std::printf("roofline — read throughput, not write performance, is what matters (§3).\n");
  return rc;
}
