#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/sim/parallel_executor.h"

namespace mrm {
namespace sim {

Simulator::Simulator(double ticks_per_second) : ticks_per_second_(ticks_per_second) {
  MRM_CHECK(ticks_per_second > 0.0);
}

Simulator::~Simulator() = default;

Tick Simulator::SecondsToTicks(double seconds) const {
  MRM_CHECK(seconds >= 0.0);
  return static_cast<Tick>(std::llround(seconds * ticks_per_second_));
}

double Simulator::TicksToSeconds(Tick ticks) const {
  return static_cast<double>(ticks) / ticks_per_second_;
}

EventId Simulator::ScheduleAt(Tick when, EventCallback callback) {
  exec_role_.Held();
  if (when < now_) {
    when = now_;
  }
  return queue_.Push(when, std::move(callback));
}

EventId Simulator::ScheduleAfter(Tick delay, EventCallback callback) {
  exec_role_.Held();
  return queue_.Push(now_ + delay, std::move(callback));
}

EventId Simulator::Retime(EventId id, Tick when) {
  exec_role_.Held();
  if (when < now_) {
    when = now_;
  }
  return queue_.Retime(id, when);
}

void Simulator::AdvanceTo(Tick when) {
  exec_role_.Held();
  MRM_CHECK(when >= now_);
  now_ = when;
}

void Simulator::RegisterEpochDomain(EpochDomain* domain) {
  exec_role_.Held();
  MRM_CHECK(domain != nullptr);
  domains_.push_back(domain);
}

void Simulator::UnregisterEpochDomain(EpochDomain* domain) {
  exec_role_.Held();
  domains_.erase(std::remove(domains_.begin(), domains_.end(), domain), domains_.end());
}

void Simulator::SetWorkerThreads(int threads) {
  // Reconfigures the executive's scheduling state: an epoch-executive-context
  // operation, performed while no epoch is in flight.
  tsa::hub_role.Held();
  if (threads < 1) {
    threads = 1;
  }
  if (threads == worker_threads_) {
    return;
  }
  worker_threads_ = threads;
  executor_.reset();
  if (threads > 1) {
    executor_ = std::make_unique<ParallelExecutor>(threads);
  }
  // The lane->participant plan is meaningless for a different pool size;
  // forget the scheduling state so it re-derives from a clean static stride.
  sched_.lane_cost.clear();
  sched_.lane_owner.clear();
  lane_cost_est_.clear();
  plan_order_.clear();
  plan_starts_.clear();
  epochs_since_rebalance_ = 0;
}

void Simulator::SetEpochBatch(int batch) {
  MRM_CHECK(batch >= 0);
  epoch_batch_ = batch;
}

void Simulator::SaveState(SavedState* out) const {
  exec_role_.HeldShared();
  out->now = now_;
  out->events_executed = events_executed_;
  queue_.SaveState(&out->queue);
}

void Simulator::RestoreState(const SavedState& saved) {
  exec_role_.Held();
  MRM_CHECK(saved.now <= now_) << "RestoreState only rewinds: saved clock " << saved.now
                               << " is ahead of now " << now_;
  now_ = saved.now;
  events_executed_ = saved.events_executed;
  queue_.RestoreState(saved.queue);
}

void Simulator::RestoreExecution(Tick now, std::uint64_t events_executed,
                                 std::uint64_t next_sequence) {
  exec_role_.Held();
  // Applying an empty SavedState bumps every slot generation: all pending
  // events — including any a fresh process's constructors pre-scheduled —
  // are dead, and every outstanding EventId is invalidated.
  static const EventQueue::SavedState kEmpty;
  queue_.RestoreState(kEmpty);
  queue_.SetNextSequence(next_sequence);
  now_ = now;
  events_executed_ = events_executed;
}

EventId Simulator::ScheduleRestored(Tick when, std::uint64_t sequence, EventCallback callback) {
  exec_role_.Held();
  MRM_CHECK(when >= now_) << "ScheduleRestored: saved event tick " << when
                          << " precedes the restored clock " << now_;
  return queue_.PushWithSequence(when, sequence, std::move(callback));
}

bool Simulator::Step() {
  exec_role_.Held();
  const Tick next = queue_.NextTime();
  if (next == kTickNever) {
    return false;
  }
  now_ = next;
  queue_.ExecuteTop();
  ++events_executed_;
  return true;
}

std::uint64_t Simulator::Run() { return RunUntil(kTickNever); }

std::uint64_t Simulator::RunUntil(Tick deadline) {
  exec_role_.Held();
  return domains_.empty() ? RunClassic(deadline) : RunEpochs(deadline);
}

std::uint64_t Simulator::RunClassic(Tick deadline) {
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!stop_requested_) {
    const Tick next = queue_.NextTime();
    if (next == kTickNever) {
      break;
    }
    if (next > deadline) {
      now_ = deadline;
      break;
    }
    now_ = next;
    // Invokes the callback in place: no per-event callback move or copy.
    queue_.ExecuteTop();
    ++events_executed_;
    ++executed;
  }
  return executed;
}

void Simulator::EnsureSchedSlots() {
  const std::size_t n = lane_tasks_.size();
  if (sched_.lane_cost.size() == n) {
    return;
  }
  sched_.lane_cost.assign(n, 0);
  lane_cost_est_.assign(n, 0);
  // Until the first rebalance the executor partitions by static stride;
  // mirror that in the owner telemetry.
  sched_.lane_owner.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sched_.lane_owner[i] = static_cast<int>(i) % worker_threads_;
  }
  plan_order_.clear();
  plan_starts_.clear();
  epochs_since_rebalance_ = 0;
}

void Simulator::MaybeRebalance() {
  const std::size_t n = lane_tasks_.size();
  if (executor_ == nullptr || n <= 1 || epochs_since_rebalance_ < kRebalanceEpochs) {
    return;
  }
  epochs_since_rebalance_ = 0;
  std::uint64_t total = 0;
  for (std::uint64_t est : lane_cost_est_) {
    total += est;
  }
  // Engage one participant per kMinEstPerParticipant of decayed work: on a
  // lightly loaded system packing every lane onto the caller skips the
  // barrier entirely, which beats any parallel split of sub-microsecond
  // epochs.
  int bins = std::min(worker_threads_, static_cast<int>(n));
  const std::uint64_t justified = total / kMinEstPerParticipant + 1;
  if (static_cast<std::uint64_t>(bins) > justified) {
    bins = static_cast<int>(justified);
  }
  // LPT: heaviest lane first into the least-loaded bin. Ties break on lane
  // index / bin index, so the plan is a pure function of the estimates.
  lpt_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lpt_order_[i] = static_cast<int>(i);
  }
  // Bound once outside the comparator: clang analyzes lambda bodies as
  // separate functions, so they would need their own context claim to read
  // the guarded estimate vector directly.
  const std::vector<std::uint64_t>& est = lane_cost_est_;
  std::sort(lpt_order_.begin(), lpt_order_.end(), [&est](int a, int b) {
    const std::uint64_t ca = est[static_cast<std::size_t>(a)];
    const std::uint64_t cb = est[static_cast<std::size_t>(b)];
    return ca != cb ? ca > cb : a < b;
  });
  lpt_bin_load_.assign(static_cast<std::size_t>(bins), 0);
  std::vector<std::vector<int>> bin_lanes(static_cast<std::size_t>(bins));
  for (int lane : lpt_order_) {
    std::size_t best = 0;
    for (std::size_t b = 1; b < lpt_bin_load_.size(); ++b) {
      if (lpt_bin_load_[b] < lpt_bin_load_[best]) {
        best = b;
      }
    }
    lpt_bin_load_[best] += lane_cost_est_[static_cast<std::size_t>(lane)];
    bin_lanes[best].push_back(lane);
  }
  // Flatten, dropping bins every lane with zero estimate skipped: an engaged
  // participant with an empty range would still pay the round handshake.
  std::vector<int> order;
  std::vector<int> starts;
  order.reserve(n);
  starts.push_back(0);
  for (std::vector<int>& lanes : bin_lanes) {
    if (lanes.empty()) {
      continue;
    }
    std::sort(lanes.begin(), lanes.end());
    order.insert(order.end(), lanes.begin(), lanes.end());
    starts.push_back(static_cast<int>(order.size()));
  }
  if (order == plan_order_ && starts == plan_starts_) {
    return;
  }
  for (std::size_t p = 0; p + 1 < starts.size(); ++p) {
    for (int i = starts[p]; i < starts[p + 1]; ++i) {
      sched_.lane_owner[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
          static_cast<int>(p);
    }
  }
  plan_order_ = order;
  plan_starts_ = starts;
  ++sched_.rebalances;
  executor_->SetPlan(std::move(order), std::move(starts));
}

// The epoch driver. Each iteration either processes exactly one hub-side
// item (a completion record or a hub event, whichever is earliest, records
// first on ties) or — when every lane's earliest work strictly precedes any
// possible hub-side activity — runs one epoch: all lanes advance to a
// horizon no cross-lane effect can penetrate, in parallel when a worker pool
// is configured. Everything the schedule depends on (next-times, the
// horizon, record order) is derived from simulation state alone, so the
// execution is bit-identical for any worker count.
//
// Epoch batching: after an epoch seals, the driver re-derives what the next
// iteration of the outer loop would do. If — and only if — that would again
// be a pure epoch AND no domain holds a pending completion record, the next
// epoch's horizons are installed and the lanes run again under the same
// worker-pool dispatch, up to the batch limit. Any other case (pending
// record, hub event due, deadline, drained) falls back to the outer loop,
// which handles it exactly as it would have at batch limit 1. The batch
// decision reads only simulation state, so the epoch/hub-step schedule is
// identical for every batch limit; only the fork/join count changes.
std::uint64_t Simulator::RunEpochs(Tick deadline) {
  // This function IS the serial hub context: between dispatches it is the
  // only thread alive in the simulation, and during a dispatch it is the
  // serial side of the barrier.
  tsa::hub_role.Held();
  stop_requested_ = false;
  std::uint64_t executed = 0;
  const std::function<void(int)> run_lane = [this](int i) {
    LaneTask& task = lane_tasks_[static_cast<std::size_t>(i)];
    task.executed = task.domain->RunLaneSpeculative(task.lane, task.horizon, task.spec_horizon);
  };
  // Speculative horizon: H extended by the configured window, still capped at
  // the deadline so committed-at-deadline state matches the conservative run.
  const auto spec_horizon_for = [this, deadline](Tick horizon) {
    return spec_window_ == 0 ? horizon
                             : std::min(TickAdd(horizon, spec_window_), TickAdd(deadline, 1));
  };
  const int batch_limit = ResolvedEpochBatch();
  MRM_CHECK(batch_limit >= 1);
  while (!stop_requested_) {
    const Tick hub_next = queue_.NextTime();
    Tick record_next = kTickNever;
    Tick work_next = kTickNever;
    for (EpochDomain* domain : domains_) {
      record_next = std::min(record_next, domain->NextRecordTime());
      work_next = std::min(work_next, domain->NextWorkTime());
    }
    const Tick hub_activity = std::min(hub_next, record_next);
    const Tick t = std::min(hub_activity, work_next);
    if (t == kTickNever) {
      break;
    }
    if (t > deadline) {
      now_ = deadline;
      break;
    }
    if (hub_activity <= work_next) {
      // Serial hub step at `hub_activity`.
      now_ = hub_activity;
      if (record_next <= hub_next) {
        for (EpochDomain* domain : domains_) {
          if (domain->NextRecordTime() == record_next) {
            domain->ProcessOneRecord();
            break;
          }
        }
      } else {
        queue_.ExecuteTop();
      }
      ++events_executed_;
      ++executed;
      ++sched_.hub_steps;
      continue;
    }
    // Epoch: lanes hold all activity in [work_next, bound). New work can
    // only enter a lane ArrivalDelay() after the earliest hub-side activity,
    // which itself cannot precede `bound`.
    Tick bound = hub_activity;
    for (EpochDomain* domain : domains_) {
      bound = std::min(bound, domain->EarliestCompletionEffect(work_next));
    }
    MRM_CHECK(bound > work_next);
    lane_tasks_.clear();
    for (EpochDomain* domain : domains_) {
      const Tick horizon = std::min(TickAdd(bound, domain->ArrivalDelay()), TickAdd(deadline, 1));
      const Tick spec_horizon = spec_horizon_for(horizon);
      const int lanes = domain->LaneCount();
      for (int lane = 0; lane < lanes; ++lane) {
        lane_tasks_.push_back({domain, lane, horizon, spec_horizon, 0});
      }
    }
    EnsureSchedSlots();
    MaybeRebalance();
    int rounds_left = batch_limit;
    // Seals the epoch a round just ran, then decides whether the next epoch
    // may run back-to-back in the same dispatch. Runs serially on the
    // dispatching thread between rounds.
    const auto after_round = [&]() -> bool {
      // Runs serially on the dispatching thread between rounds, with every
      // engaged worker parked at the round spin: hub context.
      exec_role_.Held();
      tsa::hub_role.Held();
      for (std::size_t i = 0; i < lane_tasks_.size(); ++i) {
        const std::uint64_t cost = lane_tasks_[i].executed;
        events_executed_ += cost;
        executed += cost;
        sched_.lane_cost[i] += cost;
        lane_cost_est_[i] += cost - (lane_cost_est_[i] >> kCostDecayShift);
      }
      for (EpochDomain* domain : domains_) {
        domain->SealEpoch();
      }
      ++sched_.epochs;
      ++epochs_since_rebalance_;
      if (spec_window_ != 0 && !lane_tasks_.empty() &&
          lane_tasks_.front().spec_horizon > lane_tasks_.front().horizon) {
        ++sched_.spec_epochs;
      }
      if (--rounds_left <= 0 || stop_requested_) {
        return false;
      }
      // Safety guard: a pending completion record may bound the next horizon
      // (the outer loop folds NextRecordTime() into it); the batch path does
      // not look at record times, so it must not run while any record is
      // pending. This is what keeps batching schedule-identical to K=1.
      bool pending = false;
      for (EpochDomain* domain : domains_) {
        pending = pending || domain->HasPendingRecords();
      }
      if (pending && !test_ignore_batch_guard_) {
        ++sched_.batch_guard_stops;
        return false;
      }
      const Tick next_hub = queue_.NextTime();
      Tick next_work = kTickNever;
      for (EpochDomain* domain : domains_) {
        next_work = std::min(next_work, domain->NextWorkTime());
      }
      if (std::min(next_hub, next_work) == kTickNever ||
          std::min(next_hub, next_work) > deadline || next_hub <= next_work) {
        return false;  // drained, deadline, or a hub event is due first
      }
      Tick next_bound = next_hub;
      for (EpochDomain* domain : domains_) {
        next_bound = std::min(next_bound, domain->EarliestCompletionEffect(next_work));
      }
      MRM_CHECK(next_bound > next_work);
      for (LaneTask& task : lane_tasks_) {
        task.horizon =
            std::min(TickAdd(next_bound, task.domain->ArrivalDelay()), TickAdd(deadline, 1));
        task.spec_horizon = spec_horizon_for(task.horizon);
        task.executed = 0;
      }
      return true;
    };
    ++sched_.dispatches;
    if (executor_ != nullptr && lane_tasks_.size() > 1) {
      executor_->RunRounds(static_cast<int>(lane_tasks_.size()), run_lane, after_round);
    } else {
      bool more;
      do {
        for (std::size_t i = 0; i < lane_tasks_.size(); ++i) {
          run_lane(static_cast<int>(i));
        }
        more = after_round();
      } while (more);
    }
  }
  // Resolve any still-speculating lane. Drain/deadline exits commit: every
  // cross-shard cause below the speculated spans has been processed, so no
  // conflicting arrival can ever land inside them. A stop exit rolls back:
  // the caller resumes later and may still route work into a lane's
  // speculated past.
  for (EpochDomain* domain : domains_) {
    domain->FinishSpeculation(/*commit=*/!stop_requested_);
  }
  return executed;
}

}  // namespace sim
}  // namespace mrm
