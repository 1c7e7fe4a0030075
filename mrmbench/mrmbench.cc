// mrmbench — one repetition of one repository-benchmark workload.
//
//   mrmbench --workload=serve_hbm|mrm_aging --seed=N
//            [--sim-threads=N] [--checkpoint-dir=DIR] [--trace-out=FILE]
//
// The process builds the workload's stack (set-up), runs its timed phase, and
// prints one JSON object on stdout: host seconds of set-up and of the timed
// phase, peak resident set, the work counted at both edges of the timer, every
// modelled output as an exact decimal string (run.py compares them with
// reference.json), and the counters and timings of the layers the workload
// exercises. With --trace-out the benchmark's own span recorder wraps each
// call it makes into a layer, and the spans are written as Chrome trace-event
// JSON after the timed phase.
//
// The workloads and the reasons for them are in README.md.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "src/common/check_hooks.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/driver/sim_backend.h"
#include "src/fault/fault_config.h"
#include "src/fault/fault_injector.h"
#include "src/mem/device_config.h"
#include "src/mrm/control_plane.h"
#include "src/mrm/ecc.h"
#include "src/mrm/mrm_device.h"
#include "src/sim/simulator.h"
#include "src/snapshot/checkpoint.h"
#include "src/snapshot/codec.h"
#include "src/snapshot/format.h"
#include "src/tier/tier_spec.h"
#include "src/workload/backend.h"
#include "src/workload/inference_engine.h"
#include "src/workload/model_config.h"
#include "src/workload/request_generator.h"

namespace {

using namespace mrm;  // NOLINT: benchmark binary
using mrmbench::Clock;
using mrmbench::SpanRecorder;
using mrmbench::SpanScope;

// --- Build fitness -----------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Result record -------------------------------------------------------------

// %.17g round-trips an IEEE double, so equal strings mean equal bits.
std::string Exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// FNV-1a over a histogram's full state: equal digests mean equal buckets and
// moments, which is what Histogram's own operator== compares.
std::string HistogramDigest(const Histogram& histogram) {
  Histogram::SavedState state;
  histogram.SaveState(&state);
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const std::uint64_t bucket : state.buckets) {
    mix(bucket);
  }
  mix(state.count);
  mix(state.underflow);
  mix(Bits(state.sum));
  mix(Bits(state.min));
  mix(Bits(state.max));
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

struct Report {
  // Modelled outputs: checked exactly, never timed.
  std::vector<std::pair<std::string, std::string>> outputs;
  // Per-layer counters and host timings (numbers; reported, not checked).
  // Only the layers the workload exercises are listed.
  std::vector<std::pair<std::string, double>> layers;

  int sim_threads = 1;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  // Work counted at the timer's edges from the stack's own ledgers: engine
  // steps the driver served (serve_hbm) or control-plane appends the campaign
  // issued (mrm_aging).
  std::uint64_t units_before = 0;
  std::uint64_t units_after = 0;
  std::uint64_t events_before = 0;
  std::uint64_t events_after = 0;
  std::uint64_t reported_units = 0;  // what the outputs claim the timed phase did

  void U(const std::string& key, std::uint64_t value) {
    outputs.emplace_back(key, std::to_string(value));
  }
  void F(const std::string& key, double value) { outputs.emplace_back(key, Exact(value)); }
  void B(const std::string& key, bool value) {
    outputs.emplace_back(key, value ? "true" : "false");
  }
  void H(const std::string& key, const Histogram& histogram) {
    U(key + ".count", histogram.count());
    F(key + ".mean", histogram.mean());
    F(key + ".max", histogram.max());
    F(key + ".p50", histogram.Quantile(0.5));
    F(key + ".p99", histogram.Quantile(0.99));
    outputs.emplace_back(key + ".digest", HistogramDigest(histogram));
  }
  void L(const std::string& key, double value) {
    layers.emplace_back(key, std::isfinite(value) ? value : 0.0);
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void AddTail(Report* report, const std::string& key, double scale,
             const std::vector<double>& seconds) {
  const mrmbench::Percentiles p = mrmbench::Summarize(seconds);
  report->L(key + "_p50", p.p50 * scale);
  report->L(key + "_tail", p.tail * scale);
  report->L(key + "_tail_pct", p.tail_pct);
  report->L(key + "_samples", static_cast<double>(p.samples));
}

void AddPlaneOutputs(Report* report, const mrmcore::ControlPlaneStats& s) {
  report->U("plane.appends", s.appends);
  report->U("plane.scrub_rewrites", s.scrub_rewrites);
  report->U("plane.scrub_bytes", s.scrub_bytes);
  report->U("plane.drops", s.drops);
  report->U("plane.zones_reclaimed", s.zones_reclaimed);
  report->U("plane.allocation_failures", s.allocation_failures);
  report->U("plane.read_retries", s.read_retries);
  report->U("plane.retry_successes", s.retry_successes);
  report->U("plane.emergency_scrubs", s.emergency_scrubs);
  report->U("plane.uncorrectable_drops", s.uncorrectable_drops);
  report->U("plane.zones_retired", s.zones_retired);
  report->U("plane.blocks_remapped", s.blocks_remapped);
  report->U("plane.accounting_errors", s.accounting_errors);
}

void AddDeviceOutputs(Report* report, const mrmcore::MrmDeviceStats& s) {
  report->U("device.blocks_written", s.blocks_written);
  report->U("device.blocks_read", s.blocks_read);
  report->U("device.bytes_written", s.bytes_written);
  report->U("device.bytes_read", s.bytes_read);
  report->U("device.expired_reads", s.expired_reads);
  report->U("device.endurance_failures", s.endurance_failures);
  report->U("device.read_preemptions", s.read_preemptions);
  report->U("device.decoded_reads", s.decoded_reads);
  report->U("device.corrected_reads", s.corrected_reads);
  report->U("device.uncorrectable_reads", s.uncorrectable_reads);
  report->U("device.silent_corruptions", s.silent_corruptions);
  report->U("device.stuck_blocks", s.stuck_blocks);
  report->U("device.zone_failures", s.zone_failures);
  report->F("device.write_energy_pj", s.write_energy_pj);
  report->F("device.read_energy_pj", s.read_energy_pj);
  report->F("device.io_energy_pj", s.io_energy_pj);
  report->H("device.read_latency_us", s.read_latency_us);
  report->H("device.write_latency_us", s.write_latency_us);
}

void AddFaultOutputs(Report* report, const fault::FaultStats& s) {
  report->U("fault.read_rolls", s.read_rolls);
  report->U("fault.reads_corrected", s.reads_corrected);
  report->U("fault.reads_uncorrectable", s.reads_uncorrectable);
  report->U("fault.reads_silent", s.reads_silent);
  report->U("fault.stuck_blocks", s.stuck_blocks);
  report->U("fault.zone_failures", s.zone_failures);
  report->U("fault.channel_stalls", s.channel_stalls);
  report->U("fault.dropped_completions", s.dropped_completions);
  report->U("fault.resolutions", s.resolutions);
}

// Host microseconds per MaxSafeAge call at the arguments the control plane
// evaluates on every append (median over batches).
double MaxSafeAgeMicros(const cell::RetentionTradeoff& tradeoff, double retention_s,
                        const mrmcore::EccScheme& scheme, double target_uber) {
  constexpr int kCalls = 64;
  std::vector<double> per_call;
  volatile double sink = 0.0;
  for (int batch = 0; batch < 15; ++batch) {
    const auto start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      sink = sink + mrmcore::MaxSafeAge(tradeoff, retention_s, scheme, target_uber);
    }
    per_call.push_back(SecondsSince(start) * 1e6 / kCalls);
  }
  (void)sink;
  return mrmbench::Summarize(per_call).p50;
}

// --- serve_hbm -----------------------------------------------------------------

constexpr int kMaxBatch = 8;
constexpr int kPrefillChunk = 2048;  // EngineConfig::prefill_chunk_tokens default
// Prompts are capped at one prefill chunk, so every wave spends exactly
// kMaxBatch steps in prefill and the rest of its step budget in decode.
constexpr int kPromptCap = kPrefillChunk;
constexpr int kDecodeContext = 2048;  // decode-step probe, as in bench_e12
constexpr int kServeThreads = 2;      // half the cores; the rest are the harness's
// Three closed-loop batches served back to back, 24 engine steps each: a
// timed phase of a few host seconds (README.md, "Noise").
constexpr int kWaves = 3;
constexpr int kWaveSteps = 24;

// The seeded request mix: waves of kMaxBatch Splitwise-conversation requests,
// all arriving together (a closed loop of kMaxBatch clients that send their
// next request once the whole batch has been served). Every wave runs exactly
// kWaveSteps engine steps: one prefill step per request, then one decode step
// per token of its longest output, which is set to the steps left over; the
// other outputs are capped at that length. The work per run is thus the same
// for every seed while prompt and output lengths vary with it.
std::vector<std::vector<workload::InferenceRequest>> MakeWaves(std::uint64_t seed) {
  workload::RequestGenerator generator(workload::SplitwiseConversation(), 1.0, seed);
  std::vector<std::vector<workload::InferenceRequest>> out(kWaves);
  for (auto& wave : out) {
    int prefill_steps = 0;
    for (int i = 0; i < kMaxBatch; ++i) {
      workload::InferenceRequest request = generator.Next();
      request.arrival_s = 0.0;
      request.prompt_tokens = std::min(request.prompt_tokens, kPromptCap);
      prefill_steps += (request.prompt_tokens + kPrefillChunk - 1) / kPrefillChunk;
      wave.push_back(request);
    }
    const int decode_steps = kWaveSteps - prefill_steps;
    std::max_element(wave.begin(), wave.end(),
                     [](const workload::InferenceRequest& a, const workload::InferenceRequest& b) {
                       return a.output_tokens < b.output_tokens;
                     })
        ->output_tokens = decode_steps;
    for (workload::InferenceRequest& request : wave) {
      request.output_tokens = std::min(request.output_tokens, decode_steps);
    }
  }
  return out;
}

driver::SimBackendOptions ServeOptions(int sim_threads) {
  driver::SimBackendOptions options;
  options.device = mem::HBM3EConfig();
  options.devices = 8;
  options.lower_scale = 8192;
  options.sim_threads = sim_threads;
  options.sim_spec_horizon = 0;
  return options;
}

// One decode step at full batch and a 2048-token context: the whole weight
// sweep, the batch's KV read and one appended KV vector per request.
workload::StepBatch DecodeProbe() {
  const workload::FoundationModelConfig model = workload::Llama2_70B();
  workload::StepBatch batch;
  batch.Read(workload::Stream::kWeights, model.weight_bytes());
  batch.Read(workload::Stream::kKvCache, static_cast<std::uint64_t>(kMaxBatch) *
                                             kDecodeContext * model.kv_bytes_per_token());
  batch.Write(workload::Stream::kKvCache,
              static_cast<std::uint64_t>(kMaxBatch) * model.kv_bytes_per_token());
  return batch;
}

// Forwards to the measured backend and records a span per SubmitStep, so the
// engine's own time and the driver's are separable from outside.
class TracedBackend final : public workload::MemoryBackend {
 public:
  TracedBackend(workload::MemoryBackend* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  using workload::MemoryBackend::SubmitStep;

  std::string name() const override { return inner_->name(); }
  workload::StepCost SubmitStep(const std::vector<workload::Transfer>& transfers) override {
    const SpanScope span(spans_, "driver.submit_step");
    return inner_->SubmitStep(transfers);
  }
  void AccountTime(double seconds) override { inner_->AccountTime(seconds); }
  double EnergyJoules() const override { return inner_->EnergyJoules(); }
  std::uint64_t KvCapacityBytes() const override { return inner_->KvCapacityBytes(); }
  void OnKvFreed(std::uint64_t bytes) override { inner_->OnKvFreed(bytes); }

 private:
  workload::MemoryBackend* inner_;
  SpanRecorder* spans_;
};

// Engine totals over all waves, summed in wave order.
struct ServeTotals {
  std::uint64_t requests = 0;
  workload::EngineSummary sum;
  Histogram ttft_ms;
  Histogram e2e_latency_s;

  void Add(const workload::EngineSummary& s) {
    sum.duration_s += s.duration_s;
    sum.steps += s.steps;
    sum.prefill_tokens += s.prefill_tokens;
    sum.decode_tokens += s.decode_tokens;
    sum.requests_completed += s.requests_completed;
    sum.requests_rejected += s.requests_rejected;
    sum.weight_read_bytes += s.weight_read_bytes;
    sum.kv_read_bytes += s.kv_read_bytes;
    sum.kv_write_bytes += s.kv_write_bytes;
    sum.activation_read_bytes += s.activation_read_bytes;
    sum.activation_write_bytes += s.activation_write_bytes;
    sum.decode_read_bytes += s.decode_read_bytes;
    sum.decode_write_bytes += s.decode_write_bytes;
    sum.kv_moved_bytes += s.kv_moved_bytes;
    sum.memory_seconds += s.memory_seconds;
    sum.compute_seconds += s.compute_seconds;
    sum.memory_bound_steps += s.memory_bound_steps;
    sum.backend_energy_j += s.backend_energy_j;
    sum.peak_kv_bytes = std::max(sum.peak_kv_bytes, s.peak_kv_bytes);
    ttft_ms.Merge(s.ttft_ms);
    e2e_latency_s.Merge(s.e2e_latency_s);
  }
};

void RunServe(std::uint64_t seed, int sim_threads, SpanRecorder* spans, Report* report) {
  report->sim_threads = sim_threads;
  const workload::FoundationModelConfig model = workload::Llama2_70B();

  // --- Set-up: stack construction, request generation, and one decode-step
  // probe as warm-up.
  const auto setup_start = Clock::now();
  const auto construct_start = Clock::now();
  driver::SimBackend backend(ServeOptions(sim_threads), model.weight_bytes());
  const double construct_s = SecondsSince(construct_start);
  const auto waves = MakeWaves(seed);
  const double probe_s = backend.SubmitStep(DecodeProbe()).seconds;
  report->setup_s = SecondsSince(setup_start);

  // The analytic twin of the same tier prices the same probe: the repo's only
  // reference for the cycle-level model (bench_e12's calibration).
  workload::AnalyticBackend analytic(backend.tier_specs()[0], model.weight_bytes());
  const double analytic_s = analytic.SubmitStep(DecodeProbe()).seconds;

  workload::EngineConfig config;
  config.model = model;
  config.max_batch = kMaxBatch;
  config.compute_tflops = 1000.0;
  TracedBackend traced(&backend, spans);
  workload::InferenceEngine engine(config, spans != nullptr
                                               ? static_cast<workload::MemoryBackend*>(&traced)
                                               : &backend);

  sim::Simulator* simulator = backend.simulator();
  const sim::EpochSchedStats sched_before = simulator->epoch_sched_stats();
  const mem::SystemStats mem_before = backend.MemStats();
  const driver::SimBackendStats drv_before = backend.sim_stats();
  report->units_before = drv_before.steps;
  report->events_before = simulator->events_executed();

  // --- Timed phase: the waves, back to back.
  ServeTotals totals;
  const auto wall_start = Clock::now();
  for (const auto& wave : waves) {
    const SpanScope span(spans, "engine.run");
    totals.Add(engine.Run(wave));
    totals.requests += wave.size();
  }
  report->wall_s = SecondsSince(wall_start);

  report->units_after = backend.sim_stats().steps;
  report->events_after = simulator->events_executed();
  report->reported_units = totals.sum.steps;
  report->ops = totals.requests;

  // --- Modelled outputs.
  const workload::EngineSummary& s = totals.sum;
  const double tokens = static_cast<double>(s.prefill_tokens + s.decode_tokens);
  report->U("engine.requests", totals.requests);
  report->U("engine.steps", s.steps);
  report->U("engine.prefill_tokens", s.prefill_tokens);
  report->U("engine.decode_tokens", s.decode_tokens);
  report->U("engine.requests_completed", s.requests_completed);
  report->U("engine.requests_rejected", s.requests_rejected);
  report->U("engine.weight_read_bytes", s.weight_read_bytes);
  report->U("engine.kv_read_bytes", s.kv_read_bytes);
  report->U("engine.kv_write_bytes", s.kv_write_bytes);
  report->U("engine.activation_read_bytes", s.activation_read_bytes);
  report->U("engine.activation_write_bytes", s.activation_write_bytes);
  report->U("engine.decode_read_bytes", s.decode_read_bytes);
  report->U("engine.decode_write_bytes", s.decode_write_bytes);
  report->U("engine.kv_moved_bytes", s.kv_moved_bytes);
  report->U("engine.memory_bound_steps", s.memory_bound_steps);
  report->F("engine.duration_s", s.duration_s);
  report->F("engine.memory_s", s.memory_seconds);
  report->F("engine.compute_s", s.compute_seconds);
  report->F("engine.energy_j", s.backend_energy_j);
  report->F("engine.peak_kv_bytes", s.peak_kv_bytes);
  report->F("engine.j_per_token", Ratio(s.backend_energy_j, tokens));
  report->F("engine.decode_tokens_per_s",
            Ratio(static_cast<double>(s.decode_tokens), s.duration_s));
  report->H("engine.ttft_ms", totals.ttft_ms);
  report->H("engine.e2e_latency_s", totals.e2e_latency_s);
  report->F("probe.decode_step_s", probe_s);
  report->F("probe.analytic_ratio", Ratio(probe_s, analytic_s));

  const mem::SystemStats m = backend.MemStats();
  report->U("mem.reads_completed", m.reads_completed);
  report->U("mem.writes_completed", m.writes_completed);
  report->U("mem.bytes_read", m.bytes_read);
  report->U("mem.bytes_written", m.bytes_written);
  report->U("mem.row_hits", m.row_hits);
  report->U("mem.row_misses", m.row_misses);
  report->U("mem.refreshes", m.refreshes);
  report->U("mem.injected_stalls", m.injected_stalls);
  report->U("mem.dropped_completions", m.dropped_completions);
  report->H("mem.read_latency_ns", m.read_latency_ns);
  report->H("mem.write_latency_ns", m.write_latency_ns);
  report->F("mem.energy.activate_pj", m.energy.activate_pj);
  report->F("mem.energy.read_pj", m.energy.read_pj);
  report->F("mem.energy.write_pj", m.energy.write_pj);
  report->F("mem.energy.io_pj", m.energy.io_pj);
  report->F("mem.energy.refresh_pj", m.energy.refresh_pj);
  report->F("mem.energy.background_pj", m.energy.background_pj);

  const driver::SimBackendStats& d = backend.sim_stats();
  report->U("driver.steps", d.steps);
  report->U("driver.dram_segments", d.dram_segments);
  report->U("driver.dram_bytes", d.dram_bytes);
  report->U("driver.mrm_blocks_written", d.mrm_blocks_written);
  report->U("driver.mrm_blocks_read", d.mrm_blocks_read);
  report->U("driver.mrm_fill_blocks", d.mrm_fill_blocks);
  report->U("driver.mrm_read_failures", d.mrm_read_failures);
  report->F("driver.simulated_s", backend.simulated_seconds());
  report->F("driver.energy_j", backend.EnergyJoules());

  // --- Layers (deltas over the timed phase).
  const double wall_ns = report->wall_s * 1e9;
  const double events = static_cast<double>(report->events_after - report->events_before);
  const sim::EpochSchedStats& sched = simulator->epoch_sched_stats();
  const double epochs = static_cast<double>(sched.epochs - sched_before.epochs);
  const double dispatches = static_cast<double>(sched.dispatches - sched_before.dispatches);
  report->L("sim.events", events);
  report->L("sim.ns_per_event", Ratio(wall_ns, events));
  report->L("sim.epochs", epochs);
  report->L("sim.dispatches", dispatches);
  report->L("sim.epochs_per_dispatch", Ratio(epochs, dispatches));
  report->L("sim.rebalances", static_cast<double>(sched.rebalances - sched_before.rebalances));

  const double mem_requests = static_cast<double>(
      m.reads_completed + m.writes_completed - mem_before.reads_completed -
      mem_before.writes_completed);
  const double hits = static_cast<double>(m.row_hits - mem_before.row_hits);
  const double misses = static_cast<double>(m.row_misses - mem_before.row_misses);
  report->L("mem.requests", mem_requests);
  report->L("mem.row_hit_rate", Ratio(hits, hits + misses));
  report->L("mem.refreshes", static_cast<double>(m.refreshes - mem_before.refreshes));
  report->L("mem.ns_per_request", Ratio(wall_ns, mem_requests));

  report->L("workload.steps", static_cast<double>(report->units_after - report->units_before));
  report->L("workload.tokens", tokens);
  report->L("driver.construct_s", construct_s);
  if (spans != nullptr) {
    const double submit_s = spans->TotalSeconds("driver.submit_step");
    report->L("workload.self_s", spans->TotalSeconds("engine.run") - submit_s);
    report->L("driver.submit_s", submit_s);
    AddTail(report, "driver.step_ms", 1e3, spans->Durations("driver.submit_step"));
  }
  report->L("driver.dram_segments", static_cast<double>(d.dram_segments - drv_before.dram_segments));
}

// --- mrm_aging -----------------------------------------------------------------
// The F2 fault-ladder campaign with the physics of bench_aging_campaign: the
// same device, fault ladder, batch schedule and drain. Its metrics for fault
// seed S equal `bench_aging_campaign --days=30 --fault-seed=S` (selftest.py
// checks this).

constexpr double kTicksPerSecond = 1e9;
constexpr double kDayS = 86400.0;
constexpr double kBatchPeriodS = 600.0;
constexpr double kBatchOffsetS = 300.0;
constexpr double kDrainS = 1.0;
constexpr double kDataLifetimeS = 7200.0;
constexpr int kBlocksPerBatch = 16;
constexpr int kReadsPerBatch = 24;
constexpr double kScrubPeriodS = 3600.0;
constexpr double kFaultRate = 3e-4;
constexpr int kBatchesPerDay = static_cast<int>(kDayS / kBatchPeriodS);
constexpr int kAgingDays = 30;  // one warm-up day, 29 timed
constexpr int kCheckpointEvery = 5;

mrmcore::MrmDeviceConfig AgingDevice() {
  mrmcore::MrmDeviceConfig config;
  config.technology = cell::Technology::kSttMram;
  config.channels = 4;
  config.zones = 64;
  config.zone_blocks = 32;
  config.block_bytes = 64 * 1024;
  config.ecc_t = 16;
  config.ecc_codeword_bits = 4096;
  return config;
}

fault::FaultConfig AgingFaults(std::uint64_t seed) {
  fault::FaultConfig config;
  config.seed = seed;
  config.transient_rber = kFaultRate;
  config.stuck_block_prob = kFaultRate;
  config.stuck_wear_fraction = 0.0;
  config.zone_failure_prob = kFaultRate * 0.1;
  return config;
}

std::uint64_t AgingFingerprint(std::uint64_t seed) {
  const mrmcore::MrmDeviceConfig device = AgingDevice();
  const fault::FaultConfig faults = AgingFaults(seed);
  snapshot::Fingerprint fp;
  fp.MixDouble(kTicksPerSecond);
  fp.MixU64(static_cast<std::uint64_t>(device.technology));
  fp.MixU64(static_cast<std::uint64_t>(device.channels));
  fp.MixU32(device.zones);
  fp.MixU32(device.zone_blocks);
  fp.MixU64(device.block_bytes);
  fp.MixU64(device.ecc_t);
  fp.MixU64(device.ecc_codeword_bits);
  fp.MixDouble(kScrubPeriodS);
  fp.MixU64(faults.seed);
  fp.MixDouble(faults.transient_rber);
  fp.MixDouble(faults.stuck_block_prob);
  fp.MixDouble(faults.stuck_wear_fraction);
  fp.MixDouble(faults.zone_failure_prob);
  fp.MixDouble(kBatchPeriodS);
  fp.MixDouble(kBatchOffsetS);
  fp.MixDouble(kDrainS);
  fp.MixDouble(kDataLifetimeS);
  fp.MixU64(static_cast<std::uint64_t>(kBlocksPerBatch));
  fp.MixU64(static_cast<std::uint64_t>(kReadsPerBatch));
  return fp.digest();
}

struct Churn {
  std::uint64_t days_completed = 0;
  std::uint64_t appends_ok = 0;
  std::uint64_t appends_failed = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_lost = 0;
  std::uint64_t read_cursor = 0;
  std::vector<std::pair<double, mrmcore::LogicalId>> live;  // (expiry_s, id)

  friend bool operator==(const Churn&, const Churn&) = default;
};

std::vector<std::uint8_t> EncodeChurn(const Churn& w) {
  snapshot::Encoder enc;
  enc.PutU64(w.days_completed);
  enc.PutU64(w.appends_ok);
  enc.PutU64(w.appends_failed);
  enc.PutU64(w.reads_ok);
  enc.PutU64(w.reads_lost);
  enc.PutU64(w.read_cursor);
  enc.PutU64(w.live.size());
  for (const auto& [expiry, id] : w.live) {
    enc.PutDouble(expiry);
    enc.PutU64(id);
  }
  return enc.TakeBytes();
}

bool DecodeChurn(const std::vector<std::uint8_t>& bytes, Churn* out) {
  snapshot::Decoder dec(bytes.data(), bytes.size());
  out->days_completed = dec.GetU64();
  out->appends_ok = dec.GetU64();
  out->appends_failed = dec.GetU64();
  out->reads_ok = dec.GetU64();
  out->reads_lost = dec.GetU64();
  out->read_cursor = dec.GetU64();
  const std::uint64_t n = dec.GetU64();
  if (!dec.ok() || n > dec.remaining() / 16) {
    return false;
  }
  out->live.resize(static_cast<std::size_t>(n));
  for (auto& [expiry, id] : out->live) {
    expiry = dec.GetDouble();
    id = dec.GetU64();
  }
  return dec.AtEnd();
}

struct AgingStack {
  sim::Simulator simulator;
  mrmcore::MrmDevice device;
  mrmcore::ControlPlane plane;
  fault::FaultInjector injector;
  Churn churn;

  explicit AgingStack(std::uint64_t seed)
      : simulator(kTicksPerSecond),
        device(&simulator, AgingDevice()),
        plane(&simulator, &device,
              [] {
                mrmcore::ControlPlaneOptions options;
                options.scrub_period_s = kScrubPeriodS;
                return options;
              }()),
        injector(AgingFaults(seed)) {
    plane.SetFaultInjector(&injector);
  }
};

// One simulated day of KV churn, batch for batch the campaign's RunDay.
void RunDay(AgingStack* stack, int day, SpanRecorder* spans) {
  Churn& w = stack->churn;
  for (int batch = 0; batch < kBatchesPerDay; ++batch) {
    const double t = day * kDayS + kBatchOffsetS + batch * kBatchPeriodS;
    {
      const SpanScope span(spans, "sim.run_until");
      stack->simulator.RunUntil(stack->simulator.SecondsToTicks(t));
    }
    while (!w.live.empty() && w.live.front().first <= t) {
      if (stack->plane.Alive(w.live.front().second)) {
        const SpanScope span(spans, "mrm.free");
        stack->plane.Free(w.live.front().second);
      }
      w.live.erase(w.live.begin());
    }
    for (int i = 0; i < kBlocksPerBatch; ++i) {
      const SpanScope span(spans, "mrm.append");
      auto id = stack->plane.Append(kDataLifetimeS);
      if (id.ok()) {
        w.live.emplace_back(t + kDataLifetimeS, id.value());
        ++w.appends_ok;
      } else {
        ++w.appends_failed;
      }
    }
    for (int i = 0; i < kReadsPerBatch && !w.live.empty(); ++i) {
      w.read_cursor = (w.read_cursor + 1) % w.live.size();
      const SpanScope span(spans, "mrm.read");
      const Status issued = stack->plane.Read(w.live[w.read_cursor].second, [&w](bool ok) {
        if (ok) {
          ++w.reads_ok;
        } else {
          ++w.reads_lost;
        }
      });
      if (!issued.ok()) {
        ++w.reads_lost;
      }
    }
  }
  {
    const SpanScope span(spans, "sim.run_until");
    stack->simulator.RunUntil(stack->simulator.SecondsToTicks((day + 1) * kDayS + kDrainS));
  }
  w.days_completed = static_cast<std::uint64_t>(day) + 1;
}

// Returns false (with a message on stderr) when a checkpoint cannot be
// written or read back; the run then fails.
bool RunAging(std::uint64_t seed, const std::string& checkpoint_dir, SpanRecorder* spans,
              Report* report) {
  std::error_code ec;
  if (checkpoint_dir.empty() || !std::filesystem::is_directory(checkpoint_dir, ec) ||
      !std::filesystem::is_empty(checkpoint_dir, ec)) {
    std::fprintf(stderr, "mrmbench: mrm_aging needs an existing, empty --checkpoint-dir\n");
    return false;
  }
  const std::uint64_t fingerprint = AgingFingerprint(seed);

  // --- Set-up: the stack, then the first simulated day as warm-up.
  const auto setup_start = Clock::now();
  AgingStack stack(seed);
  RunDay(&stack, 0, nullptr);
  report->setup_s = SecondsSince(setup_start);

  const mrmcore::ControlPlaneStats plane_before = stack.plane.stats();
  const fault::FaultStats faults_before = stack.injector.stats();
  const std::uint64_t reads_before = stack.device.stats().blocks_read;
  const auto append_calls = [&stack] {
    return stack.churn.appends_ok + stack.churn.appends_failed;
  };
  report->units_before = append_calls();
  report->events_before = stack.simulator.events_executed();

  // --- Timed phase: the remaining days with periodic checkpoints, then a
  // restore of the newest checkpoint into a fresh stack.
  std::vector<double> save_seconds;
  std::uint64_t saved_bytes = 0;
  std::string newest;
  const auto wall_start = Clock::now();
  for (int day = 1; day < kAgingDays; ++day) {
    const SpanScope day_span(spans, "campaign.day");
    RunDay(&stack, day, spans);
    const int completed = day + 1;
    if (completed % kCheckpointEvery == 0 || completed == kAgingDays) {
      char name[32];
      std::snprintf(name, sizeof(name), "/ckpt_day_%05d.snap", completed);
      newest = checkpoint_dir + name;
      const auto save_start = Clock::now();
      const SpanScope span(spans, "snapshot.save");
      const snapshot::Error err =
          snapshot::SaveMrmStack(newest, fingerprint, stack.simulator, stack.device,
                                 stack.plane, &stack.injector, EncodeChurn(stack.churn));
      save_seconds.push_back(SecondsSince(save_start));
      if (!err.ok()) {
        std::fprintf(stderr, "mrmbench: checkpoint '%s' failed: %s\n", newest.c_str(),
                     err.ToString().c_str());
        return false;
      }
      const std::uintmax_t bytes = std::filesystem::file_size(newest, ec);
      saved_bytes += ec ? 0 : bytes;
    }
  }
  AgingStack restored(seed);
  const auto load_start = Clock::now();
  {
    const SpanScope span(spans, "snapshot.load");
    snapshot::MrmStackState state;
    const snapshot::Error err = snapshot::LoadMrmStack(newest, fingerprint, restored.device, &state);
    if (!err.ok() || !DecodeChurn(state.workload, &restored.churn)) {
      std::fprintf(stderr, "mrmbench: restore of '%s' failed: %s\n", newest.c_str(),
                   err.ok() ? "malformed churn payload" : err.ToString().c_str());
      return false;
    }
    snapshot::ApplyMrmStack(state, &restored.simulator, &restored.device, &restored.plane,
                            &restored.injector);
  }
  const double load_s = SecondsSince(load_start);
  report->wall_s = SecondsSince(wall_start);

  report->units_after = append_calls();
  report->events_after = stack.simulator.events_executed();
  report->ops = static_cast<std::uint64_t>(kAgingDays - 1);
  report->reported_units = report->ops * kBatchesPerDay * kBlocksPerBatch;

  // --- Modelled outputs; the aging.* keys are bench_aging_campaign's metrics.
  const Churn& w = stack.churn;
  const mrmcore::ControlPlaneStats& plane = stack.plane.stats();
  const mrmcore::MrmDeviceStats& device = stack.device.stats();
  const fault::FaultStats& faults = stack.injector.stats();
  const double reads_total = static_cast<double>(w.reads_ok + w.reads_lost);
  report->U("aging.days", w.days_completed);
  report->F("aging.sim_seconds", stack.simulator.now_seconds());
  report->U("aging.appends_ok", w.appends_ok);
  report->U("aging.appends_failed", w.appends_failed);
  report->U("aging.reads_ok", w.reads_ok);
  report->U("aging.reads_lost", w.reads_lost);
  report->F("aging.availability", Ratio(static_cast<double>(w.reads_ok), reads_total));
  report->F("aging.usable_capacity", stack.plane.UsableCapacityFraction());
  report->U("aging.scrub_rewrites", plane.scrub_rewrites);
  report->U("aging.read_retries", plane.read_retries);
  report->U("aging.retry_successes", plane.retry_successes);
  report->U("aging.emergency_scrubs", plane.emergency_scrubs);
  report->U("aging.uncorrectable_drops", plane.uncorrectable_drops);
  report->U("aging.zones_retired", plane.zones_retired);
  report->U("aging.blocks_remapped", plane.blocks_remapped);
  report->U("aging.accounting_errors", plane.accounting_errors);
  report->U("aging.corrected_reads", device.corrected_reads);
  report->U("aging.uncorrectable_reads", device.uncorrectable_reads);
  report->U("aging.silent_corruptions", device.silent_corruptions);
  report->U("aging.stuck_blocks", device.stuck_blocks);
  report->U("aging.zone_failures", device.zone_failures);
  report->U("aging.fault_unresolved", faults.injected_total() - faults.resolutions);
  AddPlaneOutputs(report, plane);
  AddDeviceOutputs(report, device);
  AddFaultOutputs(report, faults);
  report->U("mrm.live_blocks", stack.plane.live_blocks());
  // The restored stack must hold exactly the live stack's ledgers.
  report->B("restore.ledgers_equal",
            restored.plane.stats() == plane && restored.device.stats() == device &&
                restored.injector.stats() == faults && restored.churn == w &&
                restored.simulator.now() == stack.simulator.now() &&
                restored.simulator.events_executed() == stack.simulator.events_executed() &&
                restored.plane.live_blocks() == stack.plane.live_blocks());

  // --- Layers.
  const double wall_ns = report->wall_s * 1e9;
  const double events = static_cast<double>(report->events_after - report->events_before);
  report->L("sim.events", events);
  report->L("sim.ns_per_event", Ratio(wall_ns, events));
  // The campaign never drops expired data, retries a read or scrubs in an
  // emergency (the F2 rung loses data only with failed zones), so those
  // ledgers are checked as outputs but have no metric.
  const std::uint64_t appends = plane.appends - plane_before.appends;
  const std::uint64_t scrubs = plane.scrub_rewrites - plane_before.scrub_rewrites;
  const std::uint64_t emergency = plane.emergency_scrubs - plane_before.emergency_scrubs;
  const std::uint64_t remaps = plane.blocks_remapped - plane_before.blocks_remapped;
  report->L("mrm.appends", static_cast<double>(appends));
  report->L("mrm.blocks_read", static_cast<double>(device.blocks_read - reads_before));
  report->L("mrm.scrub_rewrites", static_cast<double>(scrubs));
  report->L("mrm.deadline_evals", static_cast<double>(appends + scrubs + emergency + remaps));
  report->L("fault.injected",
            static_cast<double>(faults.injected_total() - faults_before.injected_total()));
  report->L("fault.resolved", static_cast<double>(faults.resolutions - faults_before.resolutions));
  report->L("mrm.zones_retired",
            static_cast<double>(plane.zones_retired - plane_before.zones_retired));
  report->L("snapshot.saves", static_cast<double>(save_seconds.size()));
  report->L("snapshot.bytes", static_cast<double>(saved_bytes));
  report->L("snapshot.save_ms_p50", mrmbench::Summarize(save_seconds).p50 * 1e3);
  report->L("snapshot.load_ms", load_s * 1e3);
  if (spans != nullptr) {
    report->L("sim.self_s", spans->SelfSeconds("sim.run_until"));
    report->L("mrm.max_safe_age_us",
              MaxSafeAgeMicros(stack.device.tradeoff(),
                               stack.plane.RetentionForLifetime(kDataLifetimeS),
                               stack.plane.EccForZone(0),
                               mrmcore::ControlPlaneOptions{}.target_uber));
    AddTail(report, "mrm.append_us", 1e6, spans->Durations("mrm.append"));
    report->L("mrm.read_issue_us_p50",
              mrmbench::Summarize(spans->Durations("mrm.read")).p50 * 1e6);
    report->L("mrm.self_s", spans->SelfSeconds("mrm.append") + spans->SelfSeconds("mrm.read") +
                                spans->SelfSeconds("mrm.free"));
    report->L("snapshot.self_s",
              spans->SelfSeconds("snapshot.save") + spans->SelfSeconds("snapshot.load"));
  }
  return true;
}

// --- Entry point -------------------------------------------------------------

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(c);
  }
  std::putchar('"');
}

// Peak resident set of this process image, from VmHWM. getrusage's ru_maxrss
// is not used: it keeps the high-water mark of the forked parent's image
// across exec, so a small workload would report the harness's memory.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool ParseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint64_t sim_threads = kServeThreads;
  std::string checkpoint_dir;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = eq != std::string::npos;
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      ok = ok && ParseU64(value.c_str(), &seed);
      have_seed = true;
    } else if (key == "--sim-threads") {
      ok = ok && ParseU64(value.c_str(), &sim_threads) && sim_threads >= 1 && sim_threads <= 64;
    } else if (key == "--checkpoint-dir") {
      checkpoint_dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "mrmbench: bad argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (!have_seed || (workload_name != "serve_hbm" && workload_name != "mrm_aging")) {
    std::fprintf(stderr,
                 "usage: mrmbench --workload=serve_hbm|mrm_aging --seed=N "
                 "[--sim-threads=N] [--checkpoint-dir=DIR] [--trace-out=FILE]\n");
    return 2;
  }
  // Timings from a build with auditor hooks, sanitizers or no optimization
  // would not describe the simulator users run; refuse to produce them.
  if (kCheckedHooks || kSanitized || !kOptimized) {
    std::fprintf(stderr,
                 "mrmbench: refusing to time this build (checked=%d sanitized=%d "
                 "optimized=%d)\n",
                 kCheckedHooks ? 1 : 0, kSanitized ? 1 : 0, kOptimized ? 1 : 0);
    return 3;
  }

  SpanRecorder recorder;
  SpanRecorder* spans = trace_out.empty() ? nullptr : &recorder;
  Report report;
  if (workload_name == "mrm_aging") {
    if (!RunAging(seed, checkpoint_dir, spans, &report)) {
      return 1;
    }
  } else {
    RunServe(seed, static_cast<int>(sim_threads), spans, &report);
  }
  if (spans != nullptr && !spans->WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "mrmbench: cannot write trace '%s'\n", trace_out.c_str());
    return 1;
  }

  std::printf("{\"workload\":");
  PrintJsonString(workload_name);
  std::printf(",\"seed\":%" PRIu64 ",\"sim_threads\":%d,\"traced\":%s", seed, report.sim_threads,
              spans != nullptr ? "true" : "false");
  std::printf(",\"build\":{\"type\":");
  PrintJsonString(MRMBENCH_BUILD_TYPE);
  std::printf(",\"compiler\":");
  PrintJsonString(__VERSION__);
  std::printf("}");
  std::printf(",\"setup_s\":%s,\"wall_s\":%s,\"peak_rss_mb\":%s", Exact(report.setup_s).c_str(),
              Exact(report.wall_s).c_str(), Exact(PeakRssMiB()).c_str());
  std::printf(",\"ops\":%" PRIu64, report.ops);
  std::printf(",\"window\":{\"units_before\":%" PRIu64 ",\"units_after\":%" PRIu64
              ",\"events_before\":%" PRIu64 ",\"events_after\":%" PRIu64
              ",\"reported_units\":%" PRIu64 "}",
              report.units_before, report.units_after, report.events_before, report.events_after,
              report.reported_units);
  std::printf(",\"outputs\":{");
  for (std::size_t i = 0; i < report.outputs.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ",");
    PrintJsonString(report.outputs[i].first);
    std::putchar(':');
    PrintJsonString(report.outputs[i].second);
  }
  std::printf("},\"layers\":{");
  for (std::size_t i = 0; i < report.layers.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ",");
    PrintJsonString(report.layers[i].first);
    std::printf(":%s", Exact(report.layers[i].second).c_str());
  }
  std::printf("}}\n");
  return 0;
}
