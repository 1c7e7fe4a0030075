#include "src/sim/parallel_executor.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace mrm {
namespace sim {

ParallelExecutor::ParallelExecutor(int threads) {
  const int worker_count = threads > 1 ? threads - 1 : 0;
  if (worker_count > 0) {
    slots_ = std::make_unique<WorkerSlot[]>(static_cast<std::size_t>(worker_count));
    workers_.reserve(static_cast<std::size_t>(worker_count));
    for (int i = 0; i < worker_count; ++i) {
      // Participant 0 is the calling thread; workers are 1..threads-1.
      workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
    }
  }
}

ParallelExecutor::~ParallelExecutor() {
  shutdown_.store(true, std::memory_order_release);
  // Active count 0: a waking worker sees the shutdown flag before it would
  // consult any task state.
  PublishGeneration(0);
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

int ParallelExecutor::ActiveParticipants(int task_count) const {
  if (plan_tasks_ == task_count && !plan_starts_.empty()) {
    return static_cast<int>(plan_starts_.size()) - 1;
  }
  // Static striding: participants >= task_count would draw an empty stride;
  // leave them parked.
  return std::min(threads(), task_count);
}

std::uint64_t ParallelExecutor::PublishGeneration(int active) {
  const std::uint64_t counter = generation_.load(std::memory_order_relaxed) >> kActiveBits;
  const std::uint64_t word =
      ((counter + 1) << kActiveBits) | (static_cast<std::uint64_t>(active) & kActiveMask);
  generation_.store(word, std::memory_order_release);
  return word;
}

void ParallelExecutor::AwaitGeneration(std::uint64_t gen_word, int active) {
  for (int p = 1; p < active; ++p) {
    int spins = 0;
    while (slots_[p - 1].done_gen.load(std::memory_order_acquire) != gen_word) {
      if (++spins >= kSpinsPerYield) {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }
}

void ParallelExecutor::JoinAll() {
  // Every worker eventually reaches the current generation word and checks
  // in, even ones that skipped dispatches they were not engaged in: the word
  // differs from their last seen value, so their generation spin wakes.
  const std::uint64_t word = generation_.load(std::memory_order_relaxed);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    int spins = 0;
    while (slots_[w].done_gen.load(std::memory_order_acquire) != word) {
      if (++spins >= kSpinsPerYield) {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }
}

void ParallelExecutor::SetPlan(std::vector<int> order, std::vector<int> starts) {
  MRM_CHECK(starts.size() >= 2) << "plan must engage at least the caller";
  MRM_CHECK(static_cast<int>(starts.size()) - 1 <= threads());
  MRM_CHECK(starts.front() == 0);
  MRM_CHECK(starts.back() == static_cast<int>(order.size()));
  MRM_CHECK(std::is_sorted(starts.begin(), starts.end()));
  JoinAll();  // no worker may read the old plan once we swap it
  dispatch_role_.Acquire();
  plan_order_ = std::move(order);
  plan_starts_ = std::move(starts);
  plan_tasks_ = static_cast<int>(plan_order_.size());
  dispatch_role_.Release();
}

void ParallelExecutor::ClearPlan() {
  JoinAll();
  dispatch_role_.Acquire();
  plan_order_.clear();
  plan_starts_.clear();
  plan_tasks_ = -1;
  dispatch_role_.Release();
}

void ParallelExecutor::DrainAssigned(int participant) {
  if (PlanActiveForDispatch()) {
    const int begin = plan_starts_[static_cast<std::size_t>(participant)];
    const int end = plan_starts_[static_cast<std::size_t>(participant) + 1];
    for (int i = begin; i < end; ++i) {
      (*fn_)(plan_order_[static_cast<std::size_t>(i)]);
    }
    return;
  }
  const int stride = threads();
  for (int i = participant; i < task_count_; i += stride) {
    (*fn_)(i);
  }
}

void ParallelExecutor::WorkerLoop(int participant) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t word;
    int spins = 0;
    while ((word = generation_.load(std::memory_order_acquire)) == seen) {
      if (++spins >= kSpinsPerYield) {
        spins = 0;
        std::this_thread::yield();
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    seen = word;
    const int active = static_cast<int>(word & kActiveMask);
    // A worker outside the engaged set checks in without reading any task
    // state: fn_/task_count_/mode_/plan may already describe a later
    // dispatch it is not part of.
    if (participant < active) {
      // Engaged for this dispatch: the generation acquire-load above paired
      // with the caller's release-store, so the published task state is
      // visible and stable until our done_gen check-in.
      dispatch_role_.HeldShared();
      if (mode_ == Mode::kSingle) {
        DrainAssigned(participant);
      } else {
        std::uint64_t done = 0;
        for (;;) {
          const std::uint64_t r = round_.load(std::memory_order_acquire);
          if (r == kRoundsDone) {
            break;
          }
          if (r != done) {
            done = r;
            DrainAssigned(participant);
            slots_[participant - 1].done_round.store(done, std::memory_order_release);
            spins = 0;
          } else if (++spins >= kSpinsPerYield) {
            spins = 0;
            std::this_thread::yield();
          }
        }
      }
    }
    slots_[participant - 1].done_gen.store(word, std::memory_order_release);
  }
}

void ParallelExecutor::Run(int task_count, const std::function<void(int)>& fn) {
  if (task_count <= 0) {
    return;
  }
  if (workers_.empty()) {
    for (int i = 0; i < task_count; ++i) {
      fn(i);
    }
    return;
  }
  dispatch_role_.Acquire();
  fn_ = &fn;
  task_count_ = task_count;
  mode_ = Mode::kSingle;
  const int active = ActiveParticipants(task_count);
  const std::uint64_t word = PublishGeneration(active);
  DrainAssigned(0);
  // Wait for the engaged workers only: once they checked in for `word` no
  // thread can still be reading this dispatch's fn_/task_count_/plan (idle
  // participants never read them), so the next Run may overwrite them.
  AwaitGeneration(word, active);
  dispatch_role_.Release();
}

void ParallelExecutor::RunRounds(int task_count, const std::function<void(int)>& fn,
                                 const std::function<bool()>& between) {
  if (task_count <= 0) {
    while (between()) {
    }
    return;
  }
  if (workers_.empty()) {
    do {
      for (int i = 0; i < task_count; ++i) {
        fn(i);
      }
    } while (between());
    return;
  }
  dispatch_role_.Acquire();
  fn_ = &fn;
  task_count_ = task_count;
  mode_ = Mode::kRounds;
  const int active = ActiveParticipants(task_count);
  // Reset the round state of the engaged workers. They are quiescent: the
  // previous batch's end waited for their generation check-in, which their
  // last done_round store precedes.
  for (int p = 1; p < active; ++p) {
    slots_[p - 1].done_round.store(0, std::memory_order_relaxed);
  }
  std::uint64_t round = 1;
  round_.store(round, std::memory_order_relaxed);  // published by the release below
  const std::uint64_t word = PublishGeneration(active);
  for (;;) {
    DrainAssigned(0);
    for (int p = 1; p < active; ++p) {
      int spins = 0;
      while (slots_[p - 1].done_round.load(std::memory_order_acquire) < round) {
        if (++spins >= kSpinsPerYield) {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
    if (!between()) {
      break;
    }
    ++round;
    round_.store(round, std::memory_order_release);
  }
  round_.store(kRoundsDone, std::memory_order_release);
  AwaitGeneration(word, active);
  dispatch_role_.Release();
}

}  // namespace sim
}  // namespace mrm
