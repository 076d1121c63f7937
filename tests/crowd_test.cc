#include <gtest/gtest.h>

#include <map>
#include <set>

#include "crowd/platform.h"

namespace cdb {
namespace {

Task YesNoTask(TaskId id) {
  Task task;
  task.id = id;
  task.type = TaskType::kSingleChoice;
  task.question = "match?";
  task.choices = {"yes", "no"};
  task.payload = id;
  return task;
}

TruthProvider AlwaysYes() {
  return [](const Task&) {
    TaskTruth truth;
    truth.correct_choice = 0;
    return truth;
  };
}

TEST(WorkerTest, PerfectWorkerAlwaysCorrect) {
  Rng rng(1);
  SimulatedWorker worker(0, 1.0);
  Task task = YesNoTask(0);
  TaskTruth truth;
  truth.correct_choice = 1;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(worker.AnswerTask(task, truth, rng).choice, 1);
  }
}

TEST(WorkerTest, AccuracyMatchesFrequency) {
  Rng rng(2);
  SimulatedWorker worker(0, 0.7);
  Task task = YesNoTask(0);
  TaskTruth truth;
  truth.correct_choice = 0;
  int correct = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    correct += worker.AnswerTask(task, truth, rng).choice == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(correct) / n, 0.7, 0.02);
}

TEST(WorkerTest, WrongAnswersAreUniformOverWrongChoices) {
  Rng rng(3);
  SimulatedWorker worker(0, 0.0);  // Clamped internally? No: direct 0.
  Task task = YesNoTask(0);
  task.choices = {"a", "b", "c", "d"};
  TaskTruth truth;
  truth.correct_choice = 2;
  std::map<int, int> counts;
  for (int i = 0; i < 9000; ++i) {
    ++counts[worker.AnswerTask(task, truth, rng).choice];
  }
  EXPECT_EQ(counts.count(2), 0u);  // Never correct.
  for (int c : {0, 1, 3}) EXPECT_NEAR(counts[c], 3000, 300);
}

TEST(WorkerTest, MultiChoicePerChoiceAccuracy) {
  Rng rng(4);
  SimulatedWorker worker(0, 1.0);
  Task task;
  task.id = 1;
  task.type = TaskType::kMultiChoice;
  task.choices = {"a", "b", "c"};
  TaskTruth truth;
  truth.correct_choice_set = {0, 2};
  Answer answer = worker.AnswerTask(task, truth, rng);
  EXPECT_EQ(answer.choice_set, (std::vector<int>{0, 2}));
}

TEST(WorkerTest, FillInBlankUsesWrongPool) {
  Rng rng(5);
  SimulatedWorker good(0, 1.0);
  SimulatedWorker bad(1, 0.0);
  Task task;
  task.id = 2;
  task.type = TaskType::kFillInBlank;
  TaskTruth truth;
  truth.correct_text = "Illinois";
  truth.wrong_text_pool = {"Indiana", "Iowa"};
  EXPECT_EQ(good.AnswerTask(task, truth, rng).text, "Illinois");
  std::string wrong = bad.AnswerTask(task, truth, rng).text;
  EXPECT_TRUE(wrong == "Indiana" || wrong == "Iowa");
}

TEST(WorkerPoolTest, QualitiesNearMean) {
  Rng rng(6);
  std::vector<SimulatedWorker> pool = MakeWorkerPool(500, 0.8, 0.1, rng);
  ASSERT_EQ(pool.size(), 500u);
  double sum = 0.0;
  for (const SimulatedWorker& w : pool) {
    EXPECT_GE(w.accuracy(), 0.05);
    EXPECT_LE(w.accuracy(), 0.99);
    sum += w.accuracy();
  }
  EXPECT_NEAR(sum / 500.0, 0.8, 0.02);
}

TEST(PlatformTest, EveryTaskGetsRedundancyAnswers) {
  PlatformOptions options;
  options.redundancy = 5;
  options.num_workers = 20;
  options.seed = 9;
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Task> tasks;
  for (int i = 0; i < 17; ++i) tasks.push_back(YesNoTask(i));
  std::vector<Answer> answers = platform.ExecuteRound(tasks).value();
  EXPECT_EQ(answers.size(), 17u * 5u);
  std::map<TaskId, std::set<int>> workers_per_task;
  for (const Answer& a : answers) {
    EXPECT_TRUE(workers_per_task[a.task].insert(a.worker).second)
        << "worker answered the same task twice";
  }
  for (auto& [task, workers] : workers_per_task) EXPECT_EQ(workers.size(), 5u);
}

TEST(PlatformTest, RedundancyCappedByWorkerCount) {
  PlatformOptions options;
  options.redundancy = 10;
  options.num_workers = 4;
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Answer> answers = platform.ExecuteRound({YesNoTask(0)}).value();
  EXPECT_EQ(answers.size(), 4u);
}

TEST(PlatformTest, StatsAccumulate) {
  PlatformOptions options;
  options.redundancy = 3;
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Task> tasks;
  for (int i = 0; i < 25; ++i) tasks.push_back(YesNoTask(i));
  ASSERT_TRUE(platform.ExecuteRound(tasks).ok());
  EXPECT_EQ(platform.stats().tasks_published, 25);
  EXPECT_EQ(platform.stats().hits_published, 3);  // ceil(25/10).
  EXPECT_EQ(platform.stats().micro_dollars_spent, 300000);  // 3 HITs * $0.1.
  EXPECT_EQ(platform.stats().answers_collected, 75);
  ASSERT_TRUE(platform.ExecuteRound({YesNoTask(100)}).ok());
  EXPECT_EQ(platform.stats().tasks_published, 26);
  EXPECT_EQ(platform.stats().hits_published, 4);
}

TEST(PlatformTest, PolicyControlsAssignment) {
  PlatformOptions options;
  options.redundancy = 2;
  options.num_workers = 10;
  options.requester_controls_assignment = true;
  CrowdPlatform platform(options, AlwaysYes());
  // Policy that always picks the last available task: everything still
  // completes, and the policy was actually consulted.
  int policy_calls = 0;
  AssignmentPolicy policy = [&](const SimulatedWorker&,
                                const std::vector<TaskId>& available,
                                int count) {
    ++policy_calls;
    std::vector<size_t> picks;
    for (int i = 0; i < count && i < static_cast<int>(available.size()); ++i) {
      picks.push_back(available.size() - 1 - static_cast<size_t>(i));
    }
    return picks;
  };
  std::vector<Task> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(YesNoTask(i));
  std::vector<Answer> answers = platform.ExecuteRound(tasks, &policy).value();
  EXPECT_EQ(answers.size(), 16u);
  EXPECT_GT(policy_calls, 0);
}

TEST(PlatformTest, ObserverSeesEveryAnswer) {
  PlatformOptions options;
  options.redundancy = 3;
  CrowdPlatform platform(options, AlwaysYes());
  int observed = 0;
  AnswerObserver observer = [&](const Answer&) { ++observed; };
  ASSERT_TRUE(
      platform.ExecuteRound({YesNoTask(0), YesNoTask(1)}, nullptr, &observer)
          .ok());
  EXPECT_EQ(observed, 6);
}

TEST(PlatformTest, EmptyRoundIsNoop) {
  CrowdPlatform platform(PlatformOptions{}, AlwaysYes());
  EXPECT_TRUE(platform.ExecuteRound({}).value().empty());
  EXPECT_EQ(platform.stats().tasks_published, 0);
}

// Regression: a policy that keeps picking tasks the worker already answered
// (or none at all) used to spin the arrival loop forever because a non-empty
// pick reset the idle counter even when no answer was recorded. The platform
// must detect the livelock and fail with a typed status instead.
TEST(PlatformTest, ExhaustedCrowdReturnsTypedStatus) {
  PlatformOptions options;
  options.redundancy = 2;
  options.num_workers = 6;
  CrowdPlatform platform(options, AlwaysYes());
  AssignmentPolicy stubborn = [](const SimulatedWorker&,
                                 const std::vector<TaskId>&, int) {
    // Declines every offer: no arrival ever records an answer.
    return std::vector<size_t>{};
  };
  Result<std::vector<Answer>> result =
      platform.ExecuteRound({YesNoTask(0)}, &stubborn);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("crowd exhausted"),
            std::string::npos);
}

TEST(PlatformTest, UnsatisfiableFaultProfileIsInvalidArgument) {
  PlatformOptions options;
  options.fault.abandon_prob = 0.5;  // Needs a deadline to ever free slots.
  options.fault.task_deadline_ticks = 0;
  CrowdPlatform platform(options, AlwaysYes());
  Result<std::vector<Answer>> result = platform.ExecuteRound({YesNoTask(0)});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlatformTest, CertainNoShowIsInvalidArgument) {
  // Every arrival would take nothing, so the round could never end.
  PlatformOptions options;
  options.fault.no_show_prob = 1.0;
  options.fault.task_deadline_ticks = 8;
  CrowdPlatform platform(options, AlwaysYes());
  Result<std::vector<Answer>> result = platform.ExecuteRound({YesNoTask(0)});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(platform.stats().tasks_published, 0);
}

TEST(PlatformTest, CleanMarketKeepsNoFaultState) {
  // Under FaultProfile{} every lease delivers on the tick it is granted: the
  // clock stands still, no lease is counted and no per-task delivery is
  // recorded, whether a policy or the round-robin walk assigns the tasks.
  const AssignmentPolicy last_ones = [](const SimulatedWorker&,
                                        const std::vector<TaskId>& available,
                                        int count) {
    std::vector<size_t> picks;
    for (size_t i = available.size(); i > 0; --i) {
      if (picks.size() == static_cast<size_t>(count)) break;
      picks.push_back(i - 1);
    }
    return picks;
  };
  const AssignmentPolicy* const policies[] = {&last_ones, nullptr};
  for (const AssignmentPolicy* policy : policies) {
    PlatformOptions options;
    options.redundancy = 3;
    options.seed = 11;
    CrowdPlatform platform(options, AlwaysYes());
    for (int round = 0; round < 3; ++round) {
      std::vector<Task> tasks;
      for (int i = 0; i < 9; ++i) tasks.push_back(YesNoTask(10 * round + i));
      std::vector<Answer> answers =
          platform.ExecuteRound(tasks, policy).value();
      EXPECT_EQ(answers.size(), 27u);
      for (const Answer& a : answers) EXPECT_EQ(a.tick, 0);
    }
    // Every fault-layer counter, ticks and leases_granted included, is 0.
    PlatformStats want;
    want.tasks_published = 27;
    want.answers_collected = 81;
    want.hits_published = 3;
    want.micro_dollars_spent = 3 * MicroDollars(kPricePerHit);
    EXPECT_EQ(PlatformStatsDump(platform.stats()), PlatformStatsDump(want));
    EXPECT_TRUE(platform.delivered_per_task().empty());
  }
}

TEST(PlatformTest, AbandonedLeasesAreRepostedToRedundancy) {
  PlatformOptions options;
  options.redundancy = 3;
  options.num_workers = 30;
  options.seed = 21;
  options.fault.abandon_prob = 0.3;
  options.fault.task_deadline_ticks = 6;
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Task> tasks;
  for (int i = 0; i < 12; ++i) tasks.push_back(YesNoTask(i));
  std::vector<Answer> answers = platform.ExecuteRound(tasks).value();
  std::map<TaskId, std::set<int>> workers_per_task;
  for (const Answer& a : answers) {
    workers_per_task[a.task].insert(a.worker);
  }
  for (const Task& task : tasks) {
    if (platform.delivered_per_task().count(task.id) == 0) continue;
    EXPECT_GE(workers_per_task[task.id].size(), 3u) << "task " << task.id;
  }
  const PlatformStats& stats = platform.stats();
  EXPECT_GT(stats.abandons, 0);
  EXPECT_GT(stats.expiries, 0);
  EXPECT_EQ(stats.leases_granted, (stats.answers_collected - stats.duplicates) +
                                      stats.abandons + stats.late_answers);
}

TEST(PlatformTest, StragglersDeliverLateAnswers) {
  PlatformOptions options;
  options.redundancy = 3;
  options.num_workers = 30;
  options.seed = 5;
  options.fault.straggler_prob = 0.6;
  options.fault.straggler_delay_ticks = 8;
  options.fault.task_deadline_ticks = 3;  // Short lease: stragglers miss it.
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back(YesNoTask(i));
  ASSERT_TRUE(platform.ExecuteRound(tasks).ok());
  std::vector<Answer> late = platform.TakeLateAnswers();
  EXPECT_GT(platform.stats().late_answers, 0);
  EXPECT_EQ(static_cast<int64_t>(late.size()), platform.stats().late_answers);
  for (const Answer& a : late) EXPECT_TRUE(a.late);
  // Draining is destructive.
  EXPECT_TRUE(platform.TakeLateAnswers().empty());
}

TEST(PlatformTest, DuplicatesAreCountedAndDelivered) {
  PlatformOptions options;
  options.redundancy = 2;
  options.num_workers = 20;
  options.seed = 7;
  options.fault.duplicate_prob = 1.0;  // Every on-time answer doubled.
  options.fault.task_deadline_ticks = 8;
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Answer> answers =
      platform.ExecuteRound({YesNoTask(0), YesNoTask(1)}).value();
  EXPECT_GT(platform.stats().duplicates, 0);
  EXPECT_EQ(static_cast<int64_t>(answers.size()),
            platform.stats().answers_collected);
  // De-duplicating by (task, worker) recovers exactly redundancy answers.
  std::map<TaskId, std::set<int>> unique;
  for (const Answer& a : answers) unique[a.task].insert(a.worker);
  for (auto& [task, workers] : unique) EXPECT_EQ(workers.size(), 2u);
}

TEST(PlatformTest, HopelessTasksAreDeadLettered) {
  PlatformOptions options;
  options.redundancy = 3;
  options.num_workers = 8;
  options.seed = 13;
  options.fault.abandon_prob = 1.0;  // Nobody ever submits.
  options.fault.task_deadline_ticks = 2;
  options.fault.max_task_expiries = 2;
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Answer> answers =
      platform.ExecuteRound({YesNoTask(0), YesNoTask(1)}).value();
  EXPECT_TRUE(answers.empty());
  std::vector<TaskId> dead = platform.TakeDeadLetters();
  EXPECT_EQ(dead.size(), 2u);
  EXPECT_EQ(platform.stats().dead_lettered, 2);
  EXPECT_TRUE(platform.TakeDeadLetters().empty());
}

TEST(PlatformTest, RedundancyOverrideControlsAnswerCount) {
  PlatformOptions options;
  options.redundancy = 5;
  options.num_workers = 20;
  CrowdPlatform platform(options, AlwaysYes());
  Task task = YesNoTask(0);
  task.redundancy_override = 2;
  std::vector<Answer> answers = platform.ExecuteRound({task}).value();
  EXPECT_EQ(answers.size(), 2u);
}

TEST(PlatformTest, AdvanceTicksMovesVirtualClock) {
  CrowdPlatform platform(PlatformOptions{}, AlwaysYes());
  EXPECT_EQ(platform.stats().ticks, 0);
  platform.AdvanceTicks(17);
  EXPECT_EQ(platform.stats().ticks, 17);
}

TEST(PlatformPublisherTest, PartitionsAndMerges) {
  PlatformOptions a;
  a.market_name = "SimAMT";
  a.redundancy = 2;
  a.seed = 1;
  PlatformOptions b;
  b.market_name = "SimCrowdFlower";
  b.requester_controls_assignment = false;
  b.redundancy = 2;
  b.seed = 2;
  PlatformPublisher market({a, b}, AlwaysYes());
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back(YesNoTask(i));
  std::vector<Answer> answers = market.Publish(tasks, nullptr, nullptr).value();
  EXPECT_EQ(answers.size(), 20u);
  PlatformStats stats = market.stats();
  EXPECT_EQ(stats.tasks_published, 10);
  EXPECT_EQ(stats.answers_collected, 20);
  // Worker ids from the second market carry the offset.
  bool saw_offset = false;
  for (const Answer& answer : answers) {
    if (answer.worker >= PlatformPublisher::kWorkerIdStride) saw_offset = true;
  }
  EXPECT_TRUE(saw_offset);
}

TEST(TaskTest, MakeEdgeTaskFormatsQuestion) {
  Task task = MakeEdgeTask(3, 7, "MIT", "Massachusetts Institute of Technology");
  EXPECT_EQ(task.id, 3);
  EXPECT_EQ(task.payload, 7);
  EXPECT_EQ(task.type, TaskType::kSingleChoice);
  ASSERT_EQ(task.choices.size(), 2u);
  EXPECT_NE(task.question.find("MIT"), std::string::npos);
}

TEST(TaskTest, TypeNames) {
  EXPECT_STREQ(TaskTypeName(TaskType::kSingleChoice), "single-choice");
  EXPECT_STREQ(TaskTypeName(TaskType::kCollection), "collection");
}

}  // namespace
}  // namespace cdb
