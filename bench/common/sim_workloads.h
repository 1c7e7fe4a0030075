// Shared simulator workload used by bench_e10_tech_compare and the bench
// harness tests: a small closed-loop memory-system run. It is deterministic
// (fixed seed) and self-contained, matching the BenchRunner contract.

#ifndef MRMSIM_BENCH_COMMON_SIM_WORKLOADS_H_
#define MRMSIM_BENCH_COMMON_SIM_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <random>

#include "src/check/attach.h"
#include "src/mem/memory_system.h"
#include "src/sim/simulator.h"

namespace mrm {
namespace bench {

// Closed-loop memory-system workload: keeps `window` requests outstanding
// against a MemorySystem until `total` complete. `read_pct` of requests are
// reads; `seq_pct` stay within a marching hot region (row-hit friendly), the
// rest address the whole device. Returns the per-run statistics so callers
// can both count events and check determinism.

struct MemRunResult {
  std::uint64_t events = 0;  // simulator events executed
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double row_hit_rate = 0.0;
  double read_latency_mean_ns = 0.0;
  double sim_seconds = 0.0;
};

inline MemRunResult MemClosedLoop(sim::Simulator& sim, mem::MemorySystem& system,
                                  std::uint64_t total, int window, int read_pct, int seq_pct,
                                  std::uint64_t rng_seed) {
  // In a checked build with MRMSIM_CHECK set, audit every command of the run
  // (the auditor is passive: measured stats are unchanged).
  check::ScopedChecker protocol_audit(&sim, &system);
  const std::uint64_t start_events = sim.events_executed();
  const std::uint64_t capacity = system.capacity_bytes();
  const std::uint64_t line = system.config().access_bytes;
  const std::uint64_t lines = capacity / line;

  struct State {
    sim::Simulator* sim;
    mem::MemorySystem* system;
    std::mt19937_64 rng;
    std::uint64_t remaining_to_issue;
    std::uint64_t remaining_to_complete;
    std::uint64_t lines;
    std::uint64_t line;
    std::uint64_t hot_base = 0;
    int read_pct;
    int seq_pct;
  };
  State state{&sim,    &system, std::mt19937_64(rng_seed), total, total, lines, line, 0,
              read_pct, seq_pct};

  const auto issue_one = [](State* s) {
    --s->remaining_to_issue;
    mem::Request request;
    const bool is_read = static_cast<int>(s->rng() % 100) < s->read_pct;
    request.kind = is_read ? mem::Request::Kind::kRead : mem::Request::Kind::kWrite;
    if (static_cast<int>(s->rng() % 100) < s->seq_pct) {
      // Marching hot region: mostly consecutive lines, row-hit friendly.
      s->hot_base = (s->hot_base + 1 + s->rng() % 4) % s->lines;
      request.addr = s->hot_base * s->line;
    } else {
      request.addr = (s->rng() % s->lines) * s->line;
    }
    request.size = static_cast<std::uint32_t>(s->line);
    return request;
  };

  std::function<void(const mem::Request&)> on_complete = [&state, &issue_one,
                                                          &on_complete](const mem::Request&) {
    --state.remaining_to_complete;
    if (state.remaining_to_issue > 0) {
      mem::Request next = issue_one(&state);
      next.on_complete = on_complete;
      state.system->Enqueue(std::move(next));
    }
  };

  const int initial = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(window), total));
  for (int i = 0; i < initial; ++i) {
    mem::Request request = issue_one(&state);
    request.on_complete = on_complete;
    system.Enqueue(std::move(request));
  }
  sim.Run();

  const mem::SystemStats stats = system.GetStats();
  MemRunResult result;
  result.events = sim.events_executed() - start_events;
  result.reads = stats.reads_completed;
  result.writes = stats.writes_completed;
  result.row_hit_rate = stats.row_hit_rate();
  result.read_latency_mean_ns = stats.read_latency_ns.mean();
  result.sim_seconds = sim.now_seconds();
  return result;
}

}  // namespace bench
}  // namespace mrm

#endif  // MRMSIM_BENCH_COMMON_SIM_WORKLOADS_H_
