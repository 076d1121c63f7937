// Tests for the paper's extension features: golden tasks (Appendix E) and
// cross-market deployment (Section 2.2) wired into the executor.
#include <gtest/gtest.h>

#include <set>

#include "bench_util/metrics.h"
#include "cql/parser.h"
#include "crowd/platform.h"
#include "datagen/mini_example.h"
#include "exec/executor.h"
#include "quality/task_assignment.h"
#include "quality/truth_inference.h"

namespace cdb {
namespace {

TEST(GoldenTasksTest, AccurateWorkersScoreHigh) {
  std::map<TaskId, int> truths = {{-1, 0}, {-2, 1}, {-3, 0}, {-4, 1}};
  std::vector<ChoiceObservation> answers;
  // Worker 1 answers all four correctly; worker 2 gets all four wrong.
  for (const auto& [task, truth] : truths) {
    answers.push_back({task, 1, truth});
    answers.push_back({task, 2, 1 - truth});
  }
  std::map<int, double> quality = QualityFromGoldenTasks(answers, truths);
  EXPECT_GT(quality.at(1), 0.85);
  EXPECT_LT(quality.at(2), 0.4);
}

TEST(GoldenTasksTest, SmoothedTowardDefault) {
  // One answer only: the estimate stays near the prior.
  std::map<TaskId, int> truths = {{-1, 0}};
  std::vector<ChoiceObservation> answers = {{-1, 7, 0}};
  std::map<int, double> quality = QualityFromGoldenTasks(answers, truths, 0.7, 2.0);
  EXPECT_NEAR(quality.at(7), (2.0 * 0.7 + 1.0) / 3.0, 1e-9);
}

TEST(GoldenTasksTest, UnknownTasksIgnored) {
  std::map<TaskId, int> truths = {{-1, 0}};
  std::vector<ChoiceObservation> answers = {{-99, 7, 0}};
  EXPECT_TRUE(QualityFromGoldenTasks(answers, truths).empty());
}

class ExecutorExtensionTest : public ::testing::Test {
 protected:
  ExecutorExtensionTest() : dataset_(MakeMiniPaperExample()) {
    Statement stmt = ParseStatement(kMiniExampleQuery).value();
    query_ = AnalyzeSelect(std::get<SelectStatement>(stmt), dataset_.catalog).value();
    truth_ = MakeEdgeTruth(&dataset_, &query_);
  }

  GeneratedDataset dataset_;
  ResolvedQuery query_;
  EdgeTruthFn truth_;
};

TEST_F(ExecutorExtensionTest, GoldenTasksWarmUpRun) {
  ExecutorOptions options;
  options.quality_control = true;
  options.golden_tasks = 10;
  options.platform.worker_quality_mean = 0.85;
  options.platform.seed = 31;
  CdbExecutor executor(&query_, options, truth_);
  ExecutionResult result = executor.Run().value();
  // The warm-up answers are extra crowd work but not query tasks.
  EXPECT_GT(result.stats.worker_answers,
            result.stats.tasks_asked * options.platform.redundancy);
  EXPECT_GT(result.answers.size(), 0u);
}

TEST_F(ExecutorExtensionTest, CrossMarketDeploymentCompletes) {
  ExecutorOptions options;
  PlatformOptions amt;
  amt.market_name = "SimAMT";
  amt.worker_quality_mean = 1.0;
  amt.worker_quality_stddev = 0.0;
  amt.redundancy = 1;
  amt.seed = 5;
  PlatformOptions flower = amt;
  flower.market_name = "SimCrowdFlower";
  flower.requester_controls_assignment = false;
  flower.seed = 6;
  options.markets = {amt, flower};
  CdbExecutor executor(&query_, options, truth_);
  ExecutionResult result = executor.Run().value();
  PrecisionRecall pr = ComputeF1(result.answers, TrueAnswers(dataset_, query_));
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_GT(result.stats.tasks_asked, 0);
  EXPECT_EQ(result.stats.worker_answers, result.stats.tasks_asked);
}

TEST_F(ExecutorExtensionTest, CrossMarketMatchesSingleMarketAnswers) {
  // With perfect workers, deploying across two markets returns exactly the
  // same answer set as a single market.
  ExecutorOptions single;
  single.platform.worker_quality_mean = 1.0;
  single.platform.worker_quality_stddev = 0.0;
  single.platform.redundancy = 1;
  ExecutionResult base = CdbExecutor(&query_, single, truth_).Run().value();

  ExecutorOptions multi = single;
  PlatformOptions b = single.platform;
  b.seed = 99;
  multi.markets = {single.platform, b};
  ExecutionResult cross = CdbExecutor(&query_, multi, truth_).Run().value();
  EXPECT_EQ(base.answers, cross.answers);
}

TEST(CrossMarketQualityControlTest, PolicySeesTheWorkerIdsAnswersCarry) {
  // CDB+ across two requester-controlled markets: the Eq.-3 assigner reads
  // worker qualities keyed by the ids answers carry (EM and golden
  // estimates), so every worker the policy is handed must appear under the
  // same id in that market's answers — not under its market-local id.
  PlatformOptions amt;
  amt.num_workers = 20;
  amt.redundancy = 3;
  amt.seed = 3;
  PlatformOptions flower = amt;
  flower.market_name = "SimCrowdFlower";
  flower.seed = 4;
  MultiMarket markets({amt, flower}, [](const Task&) {
    TaskTruth truth;
    truth.correct_choice = 0;
    return truth;
  });

  // Tasks are dealt round-robin, so task i runs on market i % 2.
  std::vector<Task> tasks;
  std::map<TaskId, std::vector<double>> posteriors;
  for (TaskId id = 0; id < 30; ++id) {
    Task task;
    task.id = id;
    task.payload = id;
    task.choices = {"yes", "no"};
    tasks.push_back(task);
    posteriors[id] = {0.6, 0.4};
  }
  std::map<int, double> quality;
  EntropyAssigner assigner(&posteriors, &quality, 2);
  std::map<TaskId, std::set<int>> seen;  // Market -> ids the policy saw.
  AssignmentPolicy policy = [&](const SimulatedWorker& worker,
                                const std::vector<TaskId>& available,
                                int count) {
    seen[available.front() % 2].insert(worker.id());
    return assigner(worker, available, count);
  };
  AnswerObserver observer = [&](const Answer& answer) {
    assigner.Observe(answer);
  };
  for (int round = 0; round < 2; ++round) {
    assigner.BeginRound(tasks);
    std::vector<Answer> answers =
        markets.ExecuteRound(tasks, &policy, &observer).value();
    std::map<TaskId, std::set<int>> carried;
    for (const Answer& answer : answers) {
      carried[answer.task % 2].insert(answer.worker);
      // The next round scores with per-id estimates, as EM would leave them.
      quality[answer.worker] = 0.6 + 0.01 * (answer.worker % 30);
    }
    ASSERT_EQ(seen.size(), 2u);
    for (const auto& [market, ids] : seen) {
      for (int id : ids) {
        EXPECT_EQ(carried[market].count(id), 1u)
            << "market " << market << " policy saw worker " << id
            << " in round " << round;
      }
    }
    seen.clear();
  }
}

}  // namespace
}  // namespace cdb
