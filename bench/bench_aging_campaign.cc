// Aging campaign (DESIGN.md §13): N simulated months of the F2 fault ladder
// against the MRM stack, checkpointed in fixed-day segments so the run
// survives being killed — SIGKILL included — at any instant and resumes
// bit-identically from the last durable snapshot.
//
// Each simulated day runs the F2-style KV-churn workload (append with a
// lifetime, read while live, free on expiry) through the RAS recovery path
// at a fixed fault rate. At every --checkpoint-every day boundary the stack
// quiesces (the scrub firing is the only pending event) and
// snapshot::SaveMrmStack publishes ckpt_day_<NNNNN>.snap crash-atomically.
// On startup the campaign scans the checkpoint directory for the newest
// snapshot, prints a one-line diagnostic for every rejected (truncated,
// corrupted, mismatched) candidate, and falls back — to an older snapshot or
// a cold start — without ever applying partial state.
//
// The BENCH_aging_campaign.json a resumed run writes is byte-identical to an
// unkilled reference's (CI's kill-and-resume smoke job compares them with
// cmp). It holds simulation state only; no field comes from a clock.
//
// Knobs: --days=N (campaign length), --checkpoint-every=K (segment days),
// --checkpoint-dir=PATH (or MRMSIM_CHECKPOINT_DIR; default "."),
// --resume-from=FILE (explicit snapshot, overrides the scan),
// --fault-rate=R, --fault-seed=S, --die-at-day=D (raise SIGKILL right after
// day D's checkpoint publishes — the crash-injection hook tools/aging_run.sh
// uses).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/bench_runner.h"
#include "src/fault/fault_config.h"
#include "src/fault/fault_injector.h"
#include "src/mrm/control_plane.h"
#include "src/mrm/mrm_device.h"
#include "src/sim/simulator.h"
#include "src/snapshot/checkpoint.h"
#include "src/snapshot/codec.h"
#include "src/snapshot/format.h"

namespace {

using namespace mrm;  // NOLINT: bench binary

constexpr double kTicksPerSecond = 1e9;
constexpr double kDayS = 86400.0;
constexpr double kBatchPeriodS = 600.0;
// Batches run at a half-slot phase (300, 900, ... within each day) so they
// never share a tick with the scrub task (multiples of 3600), and the first
// batch of a day starts after the boundary drain below.
constexpr double kBatchOffsetS = 300.0;
// The scrub firing at the day boundary itself is executed by the boundary
// RunUntil; this much extra simulated time lets its migrations (µs-scale,
// plus ms-scale retry backoffs) drain before the checkpoint quiesces.
constexpr double kDrainS = 1.0;
constexpr double kDataLifetimeS = 7200.0;  // KV blocks live two hours
constexpr int kBlocksPerBatch = 16;
constexpr int kReadsPerBatch = 24;
constexpr std::uint64_t kBlockBytes = 64 * 1024;
constexpr double kScrubPeriodS = 3600.0;
constexpr int kEccT = 16;
constexpr int kBatchesPerDay = static_cast<int>(kDayS / kBatchPeriodS);

struct CampaignArgs {
  int days = 90;
  int checkpoint_every = 5;
  int die_at_day = 0;  // 0 = never
  double fault_rate = 3e-4;
  std::uint64_t fault_seed = 0;
  std::string checkpoint_dir;
  std::string resume_from;
};

mrmcore::MrmDeviceConfig DeviceConfig() {
  mrmcore::MrmDeviceConfig config;
  config.technology = cell::Technology::kSttMram;
  config.channels = 4;
  config.zones = 64;
  config.zone_blocks = 32;
  config.block_bytes = kBlockBytes;
  config.ecc_t = kEccT;
  config.ecc_codeword_bits = 4096;
  return config;
}

// The F2 fault ladder: one rate scales every MRM injection path at once.
fault::FaultConfig CampaignFaultConfig(const CampaignArgs& args) {
  fault::FaultConfig config;
  config.seed = args.fault_seed;
  config.transient_rber = args.fault_rate;
  config.stuck_block_prob = args.fault_rate;
  config.stuck_wear_fraction = 0.0;
  config.zone_failure_prob = args.fault_rate * 0.1;
  return config;
}

// Everything that shapes simulation results goes into the fingerprint;
// campaign length, checkpoint cadence and paths deliberately do not — a
// snapshot from a longer or differently-segmented run of the same physics is
// still valid to resume from.
std::uint64_t ConfigFingerprint(const CampaignArgs& args) {
  const mrmcore::MrmDeviceConfig device = DeviceConfig();
  const fault::FaultConfig faults = CampaignFaultConfig(args);
  snapshot::Fingerprint fp;
  fp.MixDouble(kTicksPerSecond);
  fp.MixU64(static_cast<std::uint64_t>(device.technology));
  fp.MixU64(static_cast<std::uint64_t>(device.channels));
  fp.MixU32(device.zones);
  fp.MixU32(device.zone_blocks);
  fp.MixU64(device.block_bytes);
  fp.MixU64(static_cast<std::uint64_t>(device.ecc_t));
  fp.MixU64(static_cast<std::uint64_t>(device.ecc_codeword_bits));
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

// The campaign's own evolving state, serialized into the snapshot's opaque
// workload section.
struct Workload {
  std::uint64_t days_completed = 0;
  std::uint64_t appends_ok = 0;
  std::uint64_t appends_failed = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_lost = 0;
  std::uint64_t read_cursor = 0;
  std::vector<std::pair<double, mrmcore::LogicalId>> live;  // (expiry_s, id)
};

std::vector<std::uint8_t> EncodeWorkload(const Workload& w) {
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

bool DecodeWorkload(const std::vector<std::uint8_t>& bytes, Workload* out) {
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

std::string CheckpointName(int day) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "ckpt_day_%05d.snap", day);
  return buffer;
}

// Checkpoint candidates in the directory, newest (highest day) first.
std::vector<std::string> ScanCheckpoints(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return names;
  }
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    int day = 0;
    if (std::sscanf(name.c_str(), "ckpt_day_%d.snap", &day) == 1 &&
        name == CheckpointName(day)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end(), std::greater<>());
  return names;
}

// The campaign stack for one process lifetime.
struct Stack {
  sim::Simulator simulator;
  mrmcore::MrmDevice device;
  mrmcore::ControlPlane plane;
  fault::FaultInjector injector;
  Workload workload;

  explicit Stack(const CampaignArgs& args)
      : simulator(kTicksPerSecond),
        device(&simulator, DeviceConfig()),
        plane(&simulator, &device,
              [] {
                mrmcore::ControlPlaneOptions options;
                options.scrub_period_s = kScrubPeriodS;
                return options;
              }()),
        injector(CampaignFaultConfig(args)) {
    plane.SetFaultInjector(&injector);
  }
};

// Tries `path`; on success applies it to the stack and returns true. On
// failure prints the one-line diagnostic and leaves the stack untouched.
bool TryResume(const std::string& path, std::uint64_t fingerprint, Stack* stack) {
  snapshot::MrmStackState state;
  const snapshot::Error err =
      snapshot::LoadMrmStack(path, fingerprint, stack->device, &state);
  if (!err.ok()) {
    std::fprintf(stderr, "aging_campaign: rejected checkpoint '%s': %s; falling back\n",
                 path.c_str(), err.ToString().c_str());
    return false;
  }
  Workload workload;
  if (!DecodeWorkload(state.workload, &workload)) {
    std::fprintf(stderr,
                 "aging_campaign: rejected checkpoint '%s': malformed: workload "
                 "payload; falling back\n",
                 path.c_str());
    return false;
  }
  snapshot::ApplyMrmStack(state, &stack->simulator, &stack->device, &stack->plane,
                          &stack->injector);
  stack->workload = std::move(workload);
  return true;
}

// Runs one simulated day of churn. The simulator sits at the day boundary on
// entry and exit; on exit all reads/retries have drained, so the scrub firing
// is the only pending event — the quiescent point checkpoints require.
void RunDay(Stack* stack, int day) {
  Workload& w = stack->workload;
  for (int batch = 0; batch < kBatchesPerDay; ++batch) {
    const double t = day * kDayS + kBatchOffsetS + batch * kBatchPeriodS;
    stack->simulator.RunUntil(stack->simulator.SecondsToTicks(t));
    while (!w.live.empty() && w.live.front().first <= t) {
      if (stack->plane.Alive(w.live.front().second)) {
        stack->plane.Free(w.live.front().second);
      }
      w.live.erase(w.live.begin());
    }
    for (int i = 0; i < kBlocksPerBatch; ++i) {
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
      const Status issued = stack->plane.Read(w.live[w.read_cursor].second, [&w](bool ok) {
        if (ok) {
          ++w.reads_ok;
        } else {
          ++w.reads_lost;
        }
      });
      if (!issued.ok()) {
        ++w.reads_lost;  // already dropped (zone failure before read)
      }
    }
  }
  stack->simulator.RunUntil(stack->simulator.SecondsToTicks((day + 1) * kDayS + kDrainS));
  w.days_completed = static_cast<std::uint64_t>(day) + 1;
}

bool ParseInt(const char* value, int* out) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignArgs args;
  if (const char* env_dir = std::getenv("MRMSIM_CHECKPOINT_DIR")) {
    args.checkpoint_dir = env_dir;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strncmp(arg, "--days=", 7) == 0) {
      ok = ParseInt(arg + 7, &args.days) && args.days > 0;
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      ok = ParseInt(arg + 19, &args.checkpoint_every) && args.checkpoint_every > 0;
    } else if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
      args.checkpoint_dir = arg + 17;
    } else if (std::strncmp(arg, "--resume-from=", 14) == 0) {
      args.resume_from = arg + 14;
    } else if (std::strncmp(arg, "--die-at-day=", 13) == 0) {
      ok = ParseInt(arg + 13, &args.die_at_day);
    } else if (std::strncmp(arg, "--fault-rate=", 13) == 0) {
      char* end = nullptr;
      args.fault_rate = std::strtod(arg + 13, &end);
      ok = end != arg + 13 && *end == '\0' && args.fault_rate >= 0.0;
    } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
      char* end = nullptr;
      args.fault_seed = std::strtoull(arg + 13, &end, 10);
      ok = end != arg + 13 && *end == '\0';
    } else if (std::strncmp(arg, "--sim-threads=", 14) == 0 ||
               std::strncmp(arg, "--sim-spec-horizon=", 19) == 0) {
      // Accepted for harness uniformity; the MRM stack is single-lane.
    } else {
      std::fprintf(stderr, "aging_campaign: unknown argument '%s'\n", arg);
      return 1;
    }
    if (!ok) {
      std::fprintf(stderr, "aging_campaign: bad value in '%s'\n", arg);
      return 1;
    }
  }
  if (args.checkpoint_dir.empty()) {
    args.checkpoint_dir = ".";
  }

  const std::uint64_t fingerprint = ConfigFingerprint(args);
  Stack stack(args);

  // Resume: an explicit --resume-from is authoritative (its rejection is
  // fatal — the caller asked for that exact snapshot); otherwise scan the
  // checkpoint directory newest-first and fall back through rejects.
  if (!args.resume_from.empty()) {
    if (!TryResume(args.resume_from, fingerprint, &stack)) {
      return 1;
    }
  } else {
    for (const std::string& name : ScanCheckpoints(args.checkpoint_dir)) {
      if (TryResume(args.checkpoint_dir + "/" + name, fingerprint, &stack)) {
        break;
      }
    }
  }
  const int start_day = static_cast<int>(stack.workload.days_completed);
  if (start_day > 0) {
    std::printf("aging_campaign: resumed at day %d of %d\n", start_day, args.days);
  } else {
    std::printf("aging_campaign: cold start, %d days\n", args.days);
  }

  for (int day = start_day; day < args.days; ++day) {
    RunDay(&stack, day);
    const int completed = day + 1;
    if (completed % args.checkpoint_every == 0 || completed == args.days) {
      const std::string path = args.checkpoint_dir + "/" + CheckpointName(completed);
      const snapshot::Error err =
          snapshot::SaveMrmStack(path, fingerprint, stack.simulator, stack.device, stack.plane,
                                 &stack.injector, EncodeWorkload(stack.workload));
      if (!err.ok()) {
        std::fprintf(stderr, "aging_campaign: checkpoint '%s' failed: %s\n", path.c_str(),
                     err.ToString().c_str());
        return 1;
      }
    }
    if (args.die_at_day > 0 && completed >= args.die_at_day) {
      // Crash injection: die without any cleanup, exactly as a power cut or
      // OOM kill would. The next invocation must resume bit-identically.
      std::fflush(nullptr);
      ::raise(SIGKILL);
    }
  }

  // The report: every metric below is simulation state, so a killed-and-
  // resumed campaign's JSON is byte-identical to an unkilled one's.
  bench::BenchRunner runner("aging_campaign");
  runner.SetConfig("suite", "multi-month aging campaign over the F2 fault ladder");
  runner.SetConfig("days", std::to_string(args.days));
  runner.SetConfig("fault_rate", std::to_string(args.fault_rate));
  runner.SetConfig("fault_seed", std::to_string(args.fault_seed));
  const Workload& w = stack.workload;
  runner.Add("campaign", [&](bench::PointResult& r) {
    r.events = stack.simulator.events_executed();
    r.metrics["days"] = static_cast<double>(w.days_completed);
    r.metrics["sim_seconds"] = stack.simulator.now_seconds();
    r.metrics["appends_ok"] = static_cast<double>(w.appends_ok);
    r.metrics["appends_failed"] = static_cast<double>(w.appends_failed);
    r.metrics["reads_ok"] = static_cast<double>(w.reads_ok);
    r.metrics["reads_lost"] = static_cast<double>(w.reads_lost);
    const double reads_total = static_cast<double>(w.reads_ok + w.reads_lost);
    r.metrics["availability"] =
        reads_total > 0.0 ? static_cast<double>(w.reads_ok) / reads_total : 0.0;
    r.metrics["usable_capacity"] = stack.plane.UsableCapacityFraction();
    const mrmcore::ControlPlaneStats& plane = stack.plane.stats();
    r.metrics["scrub_rewrites"] = static_cast<double>(plane.scrub_rewrites);
    r.metrics["read_retries"] = static_cast<double>(plane.read_retries);
    r.metrics["retry_successes"] = static_cast<double>(plane.retry_successes);
    r.metrics["emergency_scrubs"] = static_cast<double>(plane.emergency_scrubs);
    r.metrics["uncorrectable_drops"] = static_cast<double>(plane.uncorrectable_drops);
    r.metrics["zones_retired"] = static_cast<double>(plane.zones_retired);
    r.metrics["blocks_remapped"] = static_cast<double>(plane.blocks_remapped);
    r.metrics["accounting_errors"] = static_cast<double>(plane.accounting_errors);
    const mrmcore::MrmDeviceStats& device = stack.device.stats();
    r.metrics["corrected_reads"] = static_cast<double>(device.corrected_reads);
    r.metrics["uncorrectable_reads"] = static_cast<double>(device.uncorrectable_reads);
    r.metrics["silent_corruptions"] = static_cast<double>(device.silent_corruptions);
    r.metrics["stuck_blocks"] = static_cast<double>(device.stuck_blocks);
    r.metrics["zone_failures"] = static_cast<double>(device.zone_failures);
    const fault::FaultStats& faults = stack.injector.stats();
    r.metrics["fault_unresolved"] =
        static_cast<double>(faults.injected_total() - faults.resolutions);
  });
  return runner.RunAndReport(/*threads=*/1);
}
