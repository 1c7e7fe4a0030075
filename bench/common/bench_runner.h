// Parallel benchmark harness: a registry of named sweep points executed by a
// thread pool, reported as a table plus a machine-readable BENCH_<name>.json
// (schema in DESIGN.md §"Event core internals").
//
// Determinism contract: every point function must be self-contained (own
// Simulator / RNG, no shared mutable state), so the per-point `events` and
// `metrics` are bit-identical whether the sweep runs on one thread or many.
// The runner times nothing and records no thread count, so the whole file is
// a function of the model: two runs of the same tree write the same bytes.
// Host speed is measured by the repository benchmark (mrmbench/README.md).
// Results are stored and reported in registration order regardless of which
// thread finished first.

#ifndef MRMSIM_BENCH_COMMON_BENCH_RUNNER_H_
#define MRMSIM_BENCH_COMMON_BENCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mrm {
namespace bench {

// Worker-pool size for the simulation itself (sim::Simulator::SetWorkerThreads
// inside a point), as opposed to the bench pool that runs points side by side.
// Resolution order: a `--sim-threads=N` argument, the MRMSIM_SIM_THREADS
// environment variable, then `fallback`. Values < 1 resolve to 1 (serial).
int ParseSimThreads(int argc, char** argv, int fallback = 1);

// Epoch-batch limit for the simulation (sim::Simulator::SetEpochBatch inside
// a point): how many back-to-back epochs one worker-pool fork/join may drive
// when provably safe. Resolution order: a `--sim-epoch-batch=K` argument, the
// MRMSIM_EPOCH_BATCH environment variable, then `fallback`. 0 (the default
// fallback) is the safe auto mode — the simulator picks its built-in limit;
// 1 disables batching; values < 0 resolve to 0.
int ParseEpochBatch(int argc, char** argv, int fallback = 0);

// Speculation window in ticks (sim::Simulator::SetSpeculationWindow inside a
// point): how far past the conservative epoch horizon a quiescent lane may
// run optimistically before deterministic rollback covers for it. Resolution
// order: a `--sim-spec-horizon=W` argument, the MRMSIM_SPEC_HORIZON
// environment variable, then `fallback`. 0 (the default fallback) disables
// speculation. Bad values (negative or non-numeric) are ignored with a
// one-line stderr diagnostic.
std::uint64_t ParseSpecHorizon(int argc, char** argv, std::uint64_t fallback = 0);

// Policy preset name for benches that run the policy layer (DESIGN.md §14):
// one of policy::PolicyPresetByName's spellings ("dcm", "scm-10y",
// "two-class"). Resolution order: a `--policy-preset=NAME` argument, the
// MRMSIM_POLICY_PRESET environment variable, then `fallback`. The spelling is
// not validated here — BuildMemoryPolicy rejects unknown names with a proper
// diagnostic; an empty value falls back with a one-line stderr note.
std::string ParsePolicyPreset(int argc, char** argv, const std::string& fallback);

// Filled in by a point function. `events` is whatever unit of work the bench
// counts (simulator events, requests, ...); `metrics` holds the point's
// simulation results (latencies, bandwidths, energies, ...). Both are
// deterministic and compared byte for byte between runs.
struct PointResult {
  std::uint64_t events = 0;
  std::map<std::string, double> metrics;
};

class BenchRunner {
 public:
  // `name` becomes the JSON file name: BENCH_<name>.json.
  explicit BenchRunner(std::string name);

  // Registers a sweep point. Functions run concurrently; each must be
  // self-contained (see determinism contract above).
  void Add(std::string label, std::function<void(PointResult&)> fn);

  // Static key/value context recorded in the JSON "config" object. Record
  // only what defines the model; a knob whose value cannot change the
  // results (thread counts, batching, speculation) does not belong here.
  void SetConfig(std::string key, std::string value);

  // Runs all points on a pool of `threads` threads (0 = MRMSIM_BENCH_THREADS
  // env var, else hardware_concurrency), prints a table, writes
  // BENCH_<name>.json into MRMSIM_BENCH_OUT (default: cwd). Returns 0 on
  // success, 1 when the JSON file could not be written.
  int RunAndReport(unsigned threads = 0);

  // The measured results, in registration order (valid after RunAndReport).
  const std::vector<std::pair<std::string, PointResult>>& results() const { return results_; }

 private:
  struct Point {
    std::string label;
    std::function<void(PointResult&)> fn;
  };

  unsigned ResolveThreads(unsigned requested) const;
  bool WriteJson() const;

  std::string name_;
  std::vector<Point> points_;
  std::map<std::string, std::string> config_;
  std::vector<std::pair<std::string, PointResult>> results_;
};

}  // namespace bench
}  // namespace mrm

#endif  // MRMSIM_BENCH_COMMON_BENCH_RUNNER_H_
