// E12b — closed-loop validation of the unified backend interface (DESIGN.md
// §11): the same Llama2-70B serving workload executed on the analytic
// backend and on the cycle-level sim backend (channel-sharded MemorySystem,
// optional zoned MRM tier), through the identical workload::MemoryBackend
// transfer-batch contract.
//
// Part 1: decode-step probe — one weights+KV decode batch submitted to each
//         backend; the analytic/cycle-level ratio is the calibration figure
//         the ≤10% acceptance bound pins (closed_loop_validation_test.cc).
// Part 2: full serving run — J/token and decode tokens/s per backend.
// Part 3: shard pair — the sim backend at --sim-threads 1 and N; every
//         metric is bit-identical, so CI's audited runs at 1 and 4 threads
//         write byte-identical JSON files (compared with cmp).
//
// Runs through BenchRunner and lands in BENCH_e12_closed_loop.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/bench_runner.h"
#include "src/check/attach.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/driver/sim_backend.h"
#include "src/tier/tier_spec.h"
#include "src/workload/inference_engine.h"

namespace {

using namespace mrm;  // NOLINT: bench binary

constexpr int kDecodeBatch = 8;
constexpr int kDecodeContext = 2048;

// One decode step: the full weight sweep plus the batch's KV read and the
// new token's KV append — the same batch shape the engine submits.
double MeasureDecodeStep(workload::MemoryBackend* backend) {
  const workload::FoundationModelConfig model = workload::Llama2_70B();
  workload::StepBatch batch;
  batch.Read(workload::Stream::kWeights, model.weight_bytes());
  batch.Read(workload::Stream::kKvCache,
             static_cast<std::uint64_t>(kDecodeBatch) * kDecodeContext *
                 model.kv_bytes_per_token());
  batch.Write(workload::Stream::kKvCache,
              static_cast<std::uint64_t>(kDecodeBatch) * model.kv_bytes_per_token());
  return backend->SubmitStep(batch).seconds;
}

workload::EngineSummary RunServing(workload::MemoryBackend* backend) {
  workload::EngineConfig config;
  config.model = workload::Llama2_70B();
  config.max_batch = kDecodeBatch;
  config.compute_tflops = 1000.0;
  workload::InferenceEngine engine(config, backend);
  std::vector<workload::InferenceRequest> requests;
  for (int i = 0; i < 8; ++i) {
    workload::InferenceRequest request;
    request.id = static_cast<std::uint64_t>(i + 1);
    request.prompt_tokens = 256;
    request.output_tokens = 32;
    requests.push_back(request);
  }
  return engine.Run(requests);
}

void FillServingMetrics(const workload::EngineSummary& summary, bench::PointResult& r) {
  const double tokens =
      static_cast<double>(summary.prefill_tokens + summary.decode_tokens);
  r.metrics["decode_tokens_per_s"] = summary.decode_tokens_per_s();
  r.metrics["j_per_token"] = tokens > 0.0 ? summary.backend_energy_j / tokens : 0.0;
  r.metrics["mem_bound_frac"] = summary.memory_bound_fraction();
  r.metrics["requests_completed"] = static_cast<double>(summary.requests_completed);
}

driver::SimBackendOptions HbmSimOptions(int sim_threads) {
  driver::SimBackendOptions options;
  options.device = mem::HBM3EConfig();
  options.devices = 8;
  options.sim_threads = sim_threads;
  options.lower_scale = 8192;
  return options;
}

double Metric(const bench::PointResult& r, const std::string& key) {
  const auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0.0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  const int sim_threads = bench::ParseSimThreads(argc, argv, /*fallback=*/4);
  const auto spec_horizon = static_cast<sim::Tick>(bench::ParseSpecHorizon(argc, argv));
  std::printf("E12b: closed-loop inference, analytic vs. cycle-level (DESIGN.md §11)\n");

  bench::BenchRunner runner("e12_closed_loop");
  runner.SetConfig("suite", "closed-loop decode validation");

  const workload::TierSpec hbm = tier::TierSpecFromDevice(mem::HBM3EConfig(), 8);
  const std::uint64_t weight_bytes = workload::Llama2_70B().weight_bytes();

  runner.Add("analytic_hbm", [hbm, weight_bytes](bench::PointResult& r) {
    workload::AnalyticBackend backend(hbm, weight_bytes);
    r.metrics["decode_step_ms"] = MeasureDecodeStep(&backend) * 1e3;
    const auto summary = RunServing(&backend);
    FillServingMetrics(summary, r);
    r.events = summary.steps;
  });

  // The shard pair: identical workload at 1 and N worker threads. Every
  // metric below is deterministic, so two runs' JSON files are compared
  // whole to prove bit-identity.
  for (const bool parallel : {false, true}) {
    // The label stays fixed as --sim-threads varies so two runs' files can
    // be compared directly. Speculative lane execution (--sim-spec-horizon)
    // must not move any metric either.
    const std::string label = parallel ? "sim_hbm_parallel" : "sim_hbm_serial";
    const int threads = parallel ? sim_threads : 1;
    runner.Add(label, [threads, hbm, weight_bytes, spec_horizon](bench::PointResult& r) {
      driver::SimBackendOptions options = HbmSimOptions(threads);
      options.sim_spec_horizon = spec_horizon;
      driver::SimBackend backend(std::move(options), weight_bytes);
      // Audit every command when MRMSIM_CHECK=1 in a checked build.
      check::ScopedChecker checker(backend.simulator(), backend.memory_system());
      const double sim_step_s = MeasureDecodeStep(&backend);
      r.metrics["decode_step_ms"] = sim_step_s * 1e3;

      workload::AnalyticBackend analytic(hbm, weight_bytes);
      const double analytic_step_s = MeasureDecodeStep(&analytic);
      r.metrics["analytic_ratio"] = sim_step_s / analytic_step_s;

      const auto summary = RunServing(&backend);
      FillServingMetrics(summary, r);
      r.metrics["dram_bytes"] = static_cast<double>(backend.sim_stats().dram_bytes);
      r.metrics["dram_segments"] =
          static_cast<double>(backend.sim_stats().dram_segments);
      r.events = backend.simulator()->events_executed();
    });
  }

  runner.Add("sim_hbm_mrm", [weight_bytes](bench::PointResult& r) {
    driver::SimBackendOptions options = HbmSimOptions(/*sim_threads=*/1);
    options.mrm_enabled = true;
    options.mrm.technology = cell::Technology::kSttMram;
    options.mrm.channels = 96;  // HBM-comparable aggregate read bandwidth
    options.mrm.channel_read_bw_bytes_per_s = 100e9;
    options.mrm_retention_s = 6.0 * kHour;
    options.placement.weights_tier = 1;
    options.placement.kv_cold_tier = 1;
    options.placement.kv_hot_fraction = 0.15;
    driver::SimBackend backend(std::move(options), weight_bytes);
    check::ScopedChecker checker(backend.simulator(), backend.memory_system());
    r.metrics["decode_step_ms"] = MeasureDecodeStep(&backend) * 1e3;
    const auto summary = RunServing(&backend);
    FillServingMetrics(summary, r);
    r.metrics["mrm_blocks_read"] =
        static_cast<double>(backend.sim_stats().mrm_blocks_read);
    r.metrics["mrm_blocks_written"] =
        static_cast<double>(backend.sim_stats().mrm_blocks_written);
    r.events = backend.simulator()->events_executed();
  });

  const int rc = runner.RunAndReport();

  TablePrinter table({"backend", "decode step ms", "J/token", "decode tokens/s",
                      "analytic/sim ratio"});
  for (const auto& [label, result] : runner.results()) {
    const double ratio = Metric(result, "analytic_ratio");
    table.AddRow({label, FormatNumber(Metric(result, "decode_step_ms")),
                  FormatNumber(Metric(result, "j_per_token")),
                  FormatNumber(Metric(result, "decode_tokens_per_s")),
                  ratio > 0.0 ? FormatNumber(1.0 / ratio) : "-"});
  }
  table.Print("Closed-loop decode: one workload, three backends, one contract");

  std::printf("Shape check: the cycle-level decode step lands within 10%% of the\n");
  std::printf("analytic roofline on the HBM calibration workload, and the sharded\n");
  std::printf("run's metrics are bit-identical at any --sim-threads value.\n");
  return rc;
}
