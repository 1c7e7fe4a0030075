// ParallelExecutor: a reusable worker pool tuned for very short, frequent
// fan-out/fan-in cycles (one per simulation epoch, typically a few
// microseconds of lane work per dispatch).
//
// Workers park in a bounded spin-then-yield wait on an epoch generation
// counter instead of a condition variable: epochs recur every few
// microseconds, and a futex wake per epoch would cost more than the lane
// work it dispatches. Publication is acquire/release throughout: the task
// closure, count and plan are written before the generation release-store
// and read after its acquire-load; each worker's check-in is a
// release-store the caller acquire-loads before touching results.
//
// Scheduling: by default tasks are partitioned statically (participant p
// takes indices p, p+T, p+2T, ...). A caller that measures per-task cost can
// install an explicit task->participant *plan* (SetPlan) — e.g. LPT
// bin-packing over decayed cost estimates — and a plan may engage fewer
// participants than the pool has: the generation word encodes the active
// participant count, and a worker outside it checks in without ever reading
// the task closure, count or plan. Run() then waits only for engaged
// workers, so a plan that packs all tasks onto the caller costs no barrier
// at all — the cheap-epoch path on machines with fewer free cores than
// workers.
//
// RunRounds() amortizes the dispatch further: one publish drives many task
// rounds, with a serial caller-side callback between rounds (the epoch
// driver seals an epoch and derives the next horizon there). Engaged workers
// check in per round on a counter in a separate cache line from their
// generation check-in, so round-polling by the caller never contends with
// the end-of-batch handshake.

#ifndef MRMSIM_SRC_SIM_PARALLEL_EXECUTOR_H_
#define MRMSIM_SRC_SIM_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace mrm {
namespace sim {

class ParallelExecutor {
 public:
  // `threads` counts the calling thread: N means N-1 workers are spawned and
  // Run's caller executes tasks too. Values <= 1 spawn nothing and Run
  // degenerates to an inline serial loop.
  explicit ParallelExecutor(int threads);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Invokes fn(i) exactly once for each i in [0, task_count) and returns
  // after all invocations finished. fn must be callable concurrently for
  // distinct i. Not reentrant: one Run at a time.
  void Run(int task_count, const std::function<void(int)>& fn);

  // One publish, many rounds: each round invokes fn(i) for every i in
  // [0, task_count); when the round's tasks finished, `between` runs on the
  // calling thread (workers keep spinning on the round counter) and its
  // return decides whether another round begins. Writes made by `between`
  // (e.g. new per-task horizons) are visible to the next round's tasks.
  void RunRounds(int task_count, const std::function<void(int)>& fn,
                 const std::function<bool()>& between);

  // Installs a task->participant plan used by Run/RunRounds calls whose
  // task_count matches: task order[i], for i in [starts[p], starts[p+1]),
  // runs on participant p (0 = the caller). starts.size() - 1 is the number
  // of engaged participants and may be less than threads(); the rest are not
  // synchronized with. Calls with a different task_count fall back to static
  // striding over all participants. Synchronizes with every worker before
  // swapping the plan, so it must not be called from inside a task.
  void SetPlan(std::vector<int> order, std::vector<int> starts);

  // Reverts to static striding over all participants (also synchronizes).
  void ClearPlan();

 private:
  // Relaxed polls between sched_yields while waiting (both workers waiting
  // for work and the caller waiting for check-ins). Sized for epoch cadences
  // of a few microseconds.
  static constexpr int kSpinsPerYield = 256;

  // Per-worker check-in slots. The generation check-in (end of a Run / end
  // of a batch) and the per-round check-in live on separate cache lines:
  // during a batch the caller polls done_round hot while done_gen stays
  // untouched, so short-lane workers checking in never pull the line the
  // end-of-batch handshake uses.
  struct alignas(64) WorkerSlot {
    std::atomic<std::uint64_t> done_gen{0};
    char pad_[64 - sizeof(std::atomic<std::uint64_t>)];
    std::atomic<std::uint64_t> done_round{0};
  };
  static_assert(sizeof(WorkerSlot) == 128, "one line per check-in counter");
  static_assert(alignof(WorkerSlot) == 64, "slots must start on a cache line");
  static_assert(offsetof(WorkerSlot, done_round) == 64,
                "round check-in must not share a line with the generation check-in");

  // The generation word packs (counter << kActiveBits) | engaged participant
  // count, so a waking worker learns whether it participates before touching
  // any task state.
  static constexpr int kActiveBits = 16;
  static constexpr std::uint64_t kActiveMask = (1ull << kActiveBits) - 1;
  // Round counter sentinel: the batch is over, check in on done_gen.
  static constexpr std::uint64_t kRoundsDone = ~0ull;

  enum class Mode : int { kSingle, kRounds };

  void WorkerLoop(int participant);
  // Runs this participant's share of the current dispatch: the plan range
  // when a matching plan is installed, the static stride otherwise.
  void DrainAssigned(int participant) MRMSIM_REQUIRES_SHARED(dispatch_role_);
  bool PlanActiveForDispatch() const MRMSIM_REQUIRES_SHARED(dispatch_role_) {
    return plan_tasks_ == task_count_ && !plan_starts_.empty();
  }
  // Engaged participants for a dispatch of `task_count` tasks.
  int ActiveParticipants(int task_count) const MRMSIM_REQUIRES_SHARED(dispatch_role_);
  std::uint64_t PublishGeneration(int active);
  void AwaitGeneration(std::uint64_t gen_word, int active);
  void JoinAll();

  // Capability over the published dispatch description (fn_/task_count_/
  // mode_/plan). The dispatching caller holds it exclusively from before it
  // writes the description until every engaged worker checked in; an engaged
  // worker claims a shared hold after the generation acquire-load — the
  // release/acquire pair on generation_ is the real handoff the phantom
  // capability narrates. Idle participants never claim it, matching the
  // invariant that they never read task state.
  tsa::ThreadRole dispatch_role_;

  std::atomic<std::uint64_t> generation_{0};
  int task_count_ MRMSIM_GUARDED_BY(dispatch_role_) = 0;
  Mode mode_ MRMSIM_GUARDED_BY(dispatch_role_) = Mode::kSingle;
  const std::function<void(int)>* fn_ MRMSIM_GUARDED_BY(dispatch_role_) = nullptr;
  std::atomic<std::uint64_t> round_{0};
  std::atomic<bool> shutdown_{false};
  // Plan storage; mutated only while every worker is parked (JoinAll), read
  // by engaged workers after the generation acquire.
  std::vector<int> plan_order_ MRMSIM_GUARDED_BY(dispatch_role_);
  std::vector<int> plan_starts_ MRMSIM_GUARDED_BY(dispatch_role_);
  int plan_tasks_ MRMSIM_GUARDED_BY(dispatch_role_) = -1;
  std::unique_ptr<WorkerSlot[]> slots_;
  std::vector<std::thread> workers_;
};

}  // namespace sim
}  // namespace mrm

#endif  // MRMSIM_SRC_SIM_PARALLEL_EXECUTOR_H_
