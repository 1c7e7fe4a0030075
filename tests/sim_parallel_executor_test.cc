#include "src/sim/parallel_executor.h"

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace mrm {
namespace sim {
namespace {

TEST(ParallelExecutor, RunsEveryTaskExactlyOnce) {
  ParallelExecutor executor(4);
  constexpr int kTasks = 97;
  std::vector<std::atomic<int>> hits(kTasks);
  executor.Run(kTasks, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ParallelExecutor, ReusableAcrossManyGenerations) {
  // The pool is reused epoch after epoch: no run may lose tasks to a worker
  // still finishing the previous generation.
  ParallelExecutor executor(4);
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int round = 0; round < 2000; ++round) {
    const int tasks = 1 + round % 23;
    executor.Run(tasks, [&](int i) { sum.fetch_add(static_cast<std::uint64_t>(i) + 1); });
    expected += static_cast<std::uint64_t>(tasks) * (tasks + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelExecutor, ZeroAndNegativeTaskCountsAreNoOps) {
  ParallelExecutor executor(2);
  int calls = 0;
  executor.Run(0, [&](int) { ++calls; });
  executor.Run(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelExecutor, SingleThreadRunsInline) {
  // threads <= 1 spawns no workers; tasks run on the calling thread.
  ParallelExecutor executor(1);
  EXPECT_EQ(executor.threads(), 1);
  std::vector<int> order;
  executor.Run(5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutor, MoreThreadsThanTasks) {
  ParallelExecutor executor(8);
  EXPECT_EQ(executor.threads(), 8);
  std::vector<std::atomic<int>> hits(3);
  executor.Run(3, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
  }
}

TEST(ParallelExecutor, PlanRunsEveryTaskExactlyOnce) {
  // An uneven explicit plan (caller light, workers heavy, one participant
  // idle) must still run each task exactly once per dispatch.
  ParallelExecutor executor(4);
  constexpr int kTasks = 12;
  executor.SetPlan({11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {0, 1, 9, 12});
  std::vector<std::atomic<int>> hits(kTasks);
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    executor.Run(kTasks, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), kRounds) << "task " << i;
  }
}

TEST(ParallelExecutor, PackedPlanRunsOnCallerOnly) {
  // A plan that assigns every task to participant 0 engages no worker: all
  // tasks execute on the calling thread, in plan order.
  ParallelExecutor executor(4);
  constexpr int kTasks = 16;
  std::vector<int> order(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  executor.SetPlan(order, {0, kTasks});
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  std::vector<int> sequence;  // written by the caller only if the plan holds
  for (int round = 0; round < 200; ++round) {
    executor.Run(kTasks, [&](int i) {
      if (std::this_thread::get_id() != caller) {
        off_caller.fetch_add(1);
      } else {
        sequence.push_back(i);
      }
    });
  }
  EXPECT_EQ(off_caller.load(), 0);
  ASSERT_EQ(sequence.size(), static_cast<std::size_t>(200 * kTasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(sequence[static_cast<std::size_t>(i)], i);
  }
}

TEST(ParallelExecutor, MismatchedPlanFallsBackToStriding) {
  ParallelExecutor executor(4);
  executor.SetPlan({0, 1, 2, 3, 4, 5}, {0, 3, 6});  // plan for 6 tasks
  std::vector<std::atomic<int>> hits(9);
  executor.Run(9, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ParallelExecutor, ClearPlanRestoresStriding) {
  ParallelExecutor executor(4);
  constexpr int kTasks = 8;
  std::vector<int> order(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  executor.SetPlan(order, {0, kTasks});
  executor.ClearPlan();
  std::vector<std::atomic<int>> hits(kTasks);
  executor.Run(kTasks, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ParallelExecutor, RunRoundsDrivesEveryRound) {
  ParallelExecutor executor(4);
  constexpr int kTasks = 16;
  std::vector<std::atomic<int>> hits(kTasks);
  int rounds = 0;
  executor.RunRounds(
      kTasks, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
      [&] { return ++rounds < 50; });
  EXPECT_EQ(rounds, 50);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 50) << "task " << i;
  }
}

TEST(ParallelExecutor, RoundsObserveBetweenWrites) {
  // The between() callback runs serially on the caller; its writes must be
  // visible to the next round's tasks on any worker (release on the round
  // counter, acquire in the worker's round spin).
  ParallelExecutor executor(4);
  constexpr int kTasks = 8;
  constexpr std::uint64_t kRounds = 400;
  std::uint64_t value = 1;  // plain: written only by between(), read by tasks
  std::vector<std::uint64_t> acc(kTasks, 0);  // acc[i] written only by task i
  std::uint64_t rounds = 0;
  std::uint64_t expected = 0;
  executor.RunRounds(
      kTasks, [&](int i) { acc[static_cast<std::size_t>(i)] += value; },
      [&] {
        expected += value;
        value += 1;
        return ++rounds < kRounds;
      });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(acc[static_cast<std::size_t>(i)], expected) << "task " << i;
  }
}

TEST(ParallelExecutor, RunRoundsWithPlanAndSerialPoolAgree) {
  const auto run = [](int threads, bool plan) {
    ParallelExecutor executor(threads);
    constexpr int kTasks = 6;
    if (plan && threads > 1) {
      executor.SetPlan({5, 4, 3, 2, 1, 0}, {0, 2, 6});
    }
    std::vector<std::uint64_t> cells(kTasks, 0);
    int rounds = 0;
    executor.RunRounds(
        kTasks,
        [&](int i) { cells[static_cast<std::size_t>(i)] += static_cast<std::uint64_t>(i) + 1; },
        [&] { return ++rounds < 25; });
    std::uint64_t sum = 0;
    for (const std::uint64_t c : cells) {
      sum += c;
    }
    return sum;
  };
  const std::uint64_t serial = run(1, false);
  EXPECT_EQ(run(4, false), serial);
  EXPECT_EQ(run(4, true), serial);
}

TEST(ParallelExecutor, RunRoundsZeroTasksStillRunsBetween) {
  ParallelExecutor executor(2);
  int rounds = 0;
  executor.RunRounds(0, [](int) { FAIL() << "no tasks to run"; }, [&] { return ++rounds < 5; });
  EXPECT_EQ(rounds, 5);
}


TEST(ParallelExecutor, TasksObservePriorGenerationWrites) {
  // Run() is a full barrier: writes made by generation N's tasks must be
  // visible to generation N+1's tasks on any thread.
  ParallelExecutor executor(4);
  constexpr int kTasks = 16;
  std::vector<std::uint64_t> cells(kTasks, 0);  // plain, not atomic
  for (int round = 0; round < 500; ++round) {
    // Rotate task->cell so every cell is written by a different participant
    // each round — a missing barrier would lose increments or race.
    executor.Run(kTasks,
                 [&, round](int i) { cells[static_cast<std::size_t>((i + round) % kTasks)] += 1; });
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(cells[static_cast<std::size_t>(i)], 500u) << "task " << i;
  }
}

}  // namespace
}  // namespace sim
}  // namespace mrm
