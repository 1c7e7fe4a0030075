// The simulation executive: owns the clock and the event queue.
//
// Components schedule callbacks at absolute ticks or relative delays. The
// executive runs events in timestamp order until the queue drains, a
// deadline passes, or Stop() is called from within a callback.
//
// When an EpochDomain is registered (a MemorySystem does this on
// construction), Run()/RunUntil() switch to the epoch driver: the domain's
// lanes execute in conservative, epoch-synchronized batches — optionally on
// a worker pool (SetWorkerThreads) — while hub events and completion records
// are processed serially in a fixed total order. The schedule is derived
// only from simulation state, never from thread timing, so results are
// bit-identical for any worker count. See DESIGN.md §8.
//
// Two schedule-preserving optimizations ride on top (DESIGN.md §8, "Lane
// scheduling & epoch batching"):
//
//   * Measured-cost lane rebalancing. The driver keeps a decayed per-lane
//     cost estimate fed by the lane's executed-event counts (a deterministic
//     quantity — never wall time) and periodically repartitions the
//     lane->thread assignment by greedy LPT bin-packing, engaging only as
//     many pool participants as the measured work justifies. The plan
//     changes who runs a lane, never what or when, so results are unchanged.
//
//   * Epoch batching. When an epoch seals with no pending cross-shard
//     effects anywhere and the next driver action would again be a pure
//     epoch, the next epoch starts back-to-back under the same worker-pool
//     dispatch (up to SetEpochBatch epochs per fork/join). The guard is a
//     pure function of simulation state, so the epoch schedule — and hence
//     every statistic — is bit-identical for any batch limit.

#ifndef MRMSIM_SRC_SIM_SIMULATOR_H_
#define MRMSIM_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/sim/epoch_domain.h"
#include "src/sim/event_queue.h"

namespace mrm {
namespace sim {

class ParallelExecutor;

// Saturating tick addition: kTickNever stays kTickNever.
inline Tick TickAdd(Tick a, Tick b) { return a >= kTickNever - b ? kTickNever : a + b; }

// Epoch-driver scheduling telemetry (cumulative per Simulator). Everything
// here derives from executed-event counts and the epoch schedule alone, so
// for a fixed batch limit every field except lane_owner/rebalances is
// bit-identical at any worker-thread count (the schedule is); lane_owner and
// rebalances describe the lane->participant plan, which adapts to the pool
// size by design.
struct EpochSchedStats {
  std::uint64_t epochs = 0;       // lane-execution epochs driven
  std::uint64_t dispatches = 0;   // worker-pool publishes (a K-epoch batch pays one)
  std::uint64_t hub_steps = 0;    // serial record/hub-event steps
  std::uint64_t rebalances = 0;   // lane->participant plan changes installed
  std::uint64_t batch_guard_stops = 0;  // batches cut short by a pending effect
  std::uint64_t spec_epochs = 0;  // epochs whose speculative horizon exceeded H
  std::vector<std::uint64_t> lane_cost;  // cumulative executed events per lane slot
  std::vector<int> lane_owner;           // current participant per lane slot
};

class Simulator {
 public:
  // ticks_per_second fixes the wall-time meaning of a tick. The default
  // (1 GHz) gives 1 ns ticks, a convenient controller-clock granularity.
  explicit Simulator(double ticks_per_second = 1e9);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick now() const {
    exec_role_.HeldShared();
    return now_;
  }
  double now_seconds() const {
    exec_role_.HeldShared();
    return static_cast<double>(now_) / ticks_per_second_;
  }
  double ticks_per_second() const { return ticks_per_second_; }

  Tick SecondsToTicks(double seconds) const;
  double TicksToSeconds(Tick ticks) const;

  // Schedules `callback` at absolute tick `when` (clamped to now()).
  EventId ScheduleAt(Tick when, EventCallback callback);

  // Schedules `callback` after `delay` ticks.
  EventId ScheduleAfter(Tick delay, EventCallback callback);

  bool Cancel(EventId id) {
    exec_role_.Held();
    return queue_.Cancel(id);
  }

  // Moves a pending event to absolute tick `when` (clamped to now()) without
  // touching its callback; cheaper than Cancel + ScheduleAt. Returns the new
  // id, or kInvalidEventId when `id` is no longer live.
  EventId Retime(EventId id, Tick when);

  // Runs until the queue is empty. Returns the number of events executed.
  std::uint64_t Run();

  // Runs until the queue is empty or the next event is later than
  // `deadline`. Time ends at min(deadline, last event time).
  std::uint64_t RunUntil(Tick deadline);

  // Executes exactly one event if present; returns whether one ran. Does not
  // advance registered epoch domains — use Run()/RunUntil() when a
  // MemorySystem is attached.
  bool Step();

  // Requests that Run()/RunUntil() return after the current event (or, in
  // epoch mode, after the current epoch batch). Called from within a
  // callback, i.e. on the thread currently driving this simulator.
  void Stop() {
    exec_role_.Held();
    stop_requested_ = true;
  }

  // Timestamp of the next pending event; kTickNever when the queue is empty.
  Tick NextEventTime() {
    exec_role_.Held();  // peeking may prune cancelled entries
    return queue_.NextTime();
  }

  // Executes the event NextEventTime() just peeked (its timestamp, `when`,
  // must be that return value). Skips the redundant second queue probe a
  // NextEventTime() + Step() pair would pay — the epoch driver's lane loop
  // peeks every iteration to merge arrivals with events in tick order.
  void ExecutePeeked(Tick when) {
    exec_role_.Held();
    now_ = when;
    queue_.ExecuteTop();
    ++events_executed_;
  }

  // Moves the clock forward to `when` without executing anything. Used by
  // epoch domains to position a lane clock at an arrival's tick before
  // admitting it; `when` must be >= now().
  void AdvanceTo(Tick when);

  // Attaches a domain whose lanes the epoch driver advances alongside the
  // event queue. Registration order is the tie-break between domains.
  void RegisterEpochDomain(EpochDomain* domain);
  void UnregisterEpochDomain(EpochDomain* domain);

  // Sets the worker-pool size used to run domain lanes within an epoch
  // (counting the calling thread; <= 1 means serial, the default). Purely a
  // performance knob: simulation results are identical for any value.
  void SetWorkerThreads(int threads);
  int worker_threads() const { return worker_threads_; }

  // Caps how many back-to-back epochs one worker-pool dispatch may drive
  // when no cross-shard effects are pending: 0 (the default) resolves to a
  // built-in limit, 1 disables batching (one epoch per fork/join, the PR-2
  // behavior), K > 1 batches up to K. Purely a performance knob: the batch
  // guard keeps the epoch schedule — and hence all results — bit-identical
  // for any value.
  void SetEpochBatch(int batch);
  int epoch_batch() const { return epoch_batch_; }
  int ResolvedEpochBatch() const { return epoch_batch_ > 0 ? epoch_batch_ : kAutoEpochBatch; }

  // Speculative window past the conservative epoch horizon, in ticks. When
  // non-zero, RunLaneSpeculative offers each lane an extended horizon
  // min(H + window, deadline + 1); eligible lanes run optimistically and the
  // domain rolls them back deterministically when a late cross-shard effect
  // lands inside the speculated span. 0 (the default) disables speculation.
  // Results are bit-identical for any value (DESIGN.md §8).
  void SetSpeculationWindow(Tick window) { spec_window_ = window; }
  Tick speculation_window() const { return spec_window_; }

  const EpochSchedStats& epoch_sched_stats() const {
    tsa::hub_role.HeldShared();
    return sched_;
  }

  // Snapshot of this simulator's execution state: clock, event count, and
  // every live event (inline callbacks only — MRM_CHECK otherwise). This is
  // the per-lane snapshot primitive behind speculative rollback, surfaced
  // publicly to seed full checkpoint/restore (ROADMAP item 4). EventIds
  // issued before SaveState remain valid after RestoreState; ids issued in
  // between become dead.
  struct SavedState {
    Tick now = 0;
    std::uint64_t events_executed = 0;
    EventQueue::SavedState queue;
  };
  void SaveState(SavedState* out) const;
  void RestoreState(const SavedState& saved);

  // --- durable (cross-process) checkpoint primitives, DESIGN.md §13 ---
  //
  // Callbacks capture raw pointers and cannot cross a process boundary, so a
  // disk restore works differently from the in-memory rollback above: the
  // restored execution state is (clock, executed-event count, next sequence)
  // only, the queue starts empty — killing any events the fresh process's
  // constructors pre-scheduled — and each component re-creates its own
  // pending events with the sequence numbers they held at save time
  // (ScheduleRestored), so the (when, sequence) pop order is bit-identical
  // to the uninterrupted run.

  // Sequence the next Push will stamp; captured in durable snapshots.
  std::uint64_t next_event_sequence() const {
    exec_role_.HeldShared();
    return queue_.next_sequence();
  }

  // Fetches a live event's firing tick and sequence (for saving it). Returns
  // false when the id is stale. O(pending) — checkpoint-path only.
  bool LookupEvent(EventId id, Tick* when, std::uint64_t* sequence) const {
    exec_role_.HeldShared();
    return queue_.Lookup(id, when, sequence);
  }

  // Resets execution state to a saved point: clears the queue (invalidating
  // every outstanding EventId), then installs the saved clock, event count
  // and sequence counter. Components re-create their events afterwards.
  void RestoreExecution(Tick now, std::uint64_t events_executed, std::uint64_t next_sequence);

  // Re-creates a component-owned event at its saved absolute tick and saved
  // sequence. `when` must be >= now() and `sequence` must predate the
  // restored sequence counter.
  EventId ScheduleRestored(Tick when, std::uint64_t sequence, EventCallback callback);

  // Test-only mutation hook: ignore the epoch-batch safety guard so batches
  // run past pending cross-shard effects. Violates causality by design —
  // used to prove the guard is load-bearing (the run must abort).
  void TestOnlyIgnoreBatchGuard(bool ignore) { test_ignore_batch_guard_ = ignore; }

  std::uint64_t events_executed() const {
    exec_role_.HeldShared();
    return events_executed_;
  }
  std::size_t pending_events() const {
    exec_role_.HeldShared();
    return queue_.size();
  }

 private:
  // One lane dispatch slot per epoch. Cache-line-sized: `executed` is
  // written by whichever worker ran the lane, and neighboring slots must not
  // share a line or short-lane workers false-share with long-lane ones.
  struct alignas(64) LaneTask {
    EpochDomain* domain;
    int lane;
    Tick horizon;
    Tick spec_horizon;
    std::uint64_t executed;
  };
  static_assert(sizeof(LaneTask) == 64, "one dispatch slot per cache line");
  static_assert(alignof(LaneTask) == 64, "slots must start on a cache line");

  // Auto-resolved epoch-batch cap: deep enough to amortize the dispatch over
  // command-latency-paced epoch runs, shallow enough that a pending effect
  // is never more than a few microseconds of lane work away.
  static constexpr int kAutoEpochBatch = 16;
  // Epochs between lane->participant repartitions.
  static constexpr std::uint64_t kRebalanceEpochs = 32;
  // Decay shift of the per-lane cost EMA: est += executed - est/8, so the
  // estimate settles near 8x the per-epoch event cost.
  static constexpr int kCostDecayShift = 3;
  // Decayed-cost units that justify engaging one more pool participant
  // (~16 events/epoch at the EMA's 8x scale: roughly the lane work that
  // outweighs one worker's share of the dispatch handshake).
  static constexpr std::uint64_t kMinEstPerParticipant = 128;

  std::uint64_t RunClassic(Tick deadline) MRMSIM_REQUIRES(exec_role_);
  std::uint64_t RunEpochs(Tick deadline) MRMSIM_REQUIRES(exec_role_);
  // Keeps the per-lane scheduling state sized to the current lane set.
  void EnsureSchedSlots() MRMSIM_REQUIRES(::mrm::tsa::hub_role);
  // Recomputes the LPT lane->participant plan from the decayed cost
  // estimates when due; installs it into the executor if it changed. A pure
  // function of deterministic counters and the configured pool size.
  void MaybeRebalance() MRMSIM_REQUIRES(::mrm::tsa::hub_role);

  // The thread currently driving this simulator: the hub thread for the
  // executive instance, the lane's epoch worker for a lane sub-simulator.
  // Ownership moves only through the executor's dispatch barrier; every
  // public mutator claims the role so any new guarded access added without
  // a context claim fails -Werror=thread-safety.
  // snapshot-exempt(phantom capability; no runtime state)
  tsa::ThreadRole exec_role_;

  EventQueue queue_ MRMSIM_GUARDED_BY(exec_role_);
  Tick now_ MRMSIM_GUARDED_BY(exec_role_) = 0;
  // snapshot-exempt(constructor parameter; fixed for the life of the simulator)
  double ticks_per_second_;
  // snapshot-exempt(transient run-loop flag; reset at every Run entry)
  bool stop_requested_ MRMSIM_GUARDED_BY(exec_role_) = false;
  std::uint64_t events_executed_ MRMSIM_GUARDED_BY(exec_role_) = 0;
  // snapshot-exempt(registration state; domains re-register on reattach, raw
  // pointers are not serializable)
  std::vector<EpochDomain*> domains_ MRMSIM_GUARDED_BY(exec_role_);
  // Reused across epochs. Each slot is written by exactly one engaged worker
  // per round (the dispatch plan partitions slots), then read serially
  // between rounds — the same handoff the executor's dispatch capability
  // narrates, so the slots themselves stay unguarded.
  // snapshot-exempt(per-dispatch scratch; rebuilt at every epoch)
  std::vector<LaneTask> lane_tasks_;
  // snapshot-exempt(worker pool; rebuilt from the worker_threads_ knob)
  std::unique_ptr<ParallelExecutor> executor_;
  // snapshot-exempt(performance knob; results are identical for any value)
  int worker_threads_ = 1;
  // snapshot-exempt(performance knob; results are identical for any value)
  int epoch_batch_ = 0;  // 0 = auto
  // snapshot-exempt(performance knob; results are identical for any value)
  Tick spec_window_ = 0;  // 0 = speculation off
  // snapshot-exempt(test-only mutation hook, never set outside guard tests)
  bool test_ignore_batch_guard_ = false;
  // snapshot-exempt(scheduling telemetry; observability, not simulation state)
  EpochSchedStats sched_ MRMSIM_EPOCH_BARRIER_ONLY;
  // snapshot-exempt(scheduling heuristic; affects who runs a lane, never results)
  std::vector<std::uint64_t> lane_cost_est_ MRMSIM_EPOCH_BARRIER_ONLY;  // decayed cost EMA
  // snapshot-exempt(scheduling heuristic; affects who runs a lane, never results)
  std::uint64_t epochs_since_rebalance_ MRMSIM_EPOCH_BARRIER_ONLY = 0;
  // Rebalance scratch, reused to keep the steady state allocation-free.
  // snapshot-exempt(rebalance scratch; recomputed before every use)
  std::vector<int> lpt_order_ MRMSIM_EPOCH_BARRIER_ONLY;
  // snapshot-exempt(rebalance scratch; recomputed before every use)
  std::vector<std::uint64_t> lpt_bin_load_ MRMSIM_EPOCH_BARRIER_ONLY;
  // snapshot-exempt(scheduling heuristic; affects who runs a lane, never results)
  std::vector<int> plan_order_ MRMSIM_EPOCH_BARRIER_ONLY;
  // snapshot-exempt(scheduling heuristic; affects who runs a lane, never results)
  std::vector<int> plan_starts_ MRMSIM_EPOCH_BARRIER_ONLY;
};

}  // namespace sim
}  // namespace mrm

#endif  // MRMSIM_SRC_SIM_SIMULATOR_H_
