#include <gtest/gtest.h>

#include "bench_util/metrics.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "exec/session.h"
#include "graph/pruning.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

ResolvedQuery Resolve(const GeneratedDataset& ds, const std::string& cql) {
  Statement stmt = ParseStatement(cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), ds.catalog).value();
}

ExecutorOptions PerfectCrowd(uint64_t seed = 3) {
  ExecutorOptions options;
  options.platform.worker_quality_mean = 1.0;
  options.platform.worker_quality_stddev = 0.0;
  options.platform.redundancy = 1;
  options.platform.seed = seed;
  return options;
}

class ExecutorMiniTest : public ::testing::Test {
 protected:
  ExecutorMiniTest()
      : dataset_(MakeMiniPaperExample()),
        query_(Resolve(dataset_, kMiniExampleQuery)),
        truth_(MakeEdgeTruth(&dataset_, &query_)) {}

  GeneratedDataset dataset_;
  ResolvedQuery query_;
  EdgeTruthFn truth_;
};

TEST_F(ExecutorMiniTest, PerfectCrowdFindsExactlyTrueAnswers) {
  QuerySession session(&query_, PerfectCrowd(), truth_);
  ExecutionResult result = session.RunToCompletion().value();

  // With perfect workers the returned tuples must coincide with the
  // graph-reachable subset of the truth: precision 1.
  std::vector<QueryAnswer> reference = TrueAnswers(dataset_, query_);
  PrecisionRecall pr = ComputeF1(result.answers, reference);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_GT(result.answers.size(), 0u);
  EXPECT_GT(result.stats.tasks_asked, 0);
  EXPECT_GT(result.stats.rounds, 0);
}

TEST_F(ExecutorMiniTest, NoUncoloredValidEdgesRemain) {
  QuerySession session(&query_, PerfectCrowd(), truth_);
  session.RunToCompletion().value();
  // Algorithm-1 termination: every remaining unknown edge must be invalid.
  const QueryGraph& graph = session.graph();
  Pruner pruner(const_cast<QueryGraph*>(&graph));
  EXPECT_TRUE(pruner.RemainingTasks().empty());
}

TEST_F(ExecutorMiniTest, AsksFewerTasksThanEdges) {
  QuerySession session(&query_, PerfectCrowd(), truth_);
  ExecutionResult result = session.RunToCompletion().value();
  // Tuple-level pruning must save something on the mini example.
  EXPECT_LT(result.stats.tasks_asked, session.graph().num_edges());
}

TEST_F(ExecutorMiniTest, RoundSizesSumToTasks) {
  QuerySession session(&query_, PerfectCrowd(), truth_);
  ExecutionResult result = session.RunToCompletion().value();
  int64_t sum = 0;
  for (int64_t size : result.stats.round_sizes) sum += size;
  EXPECT_EQ(sum, result.stats.tasks_asked);
  EXPECT_EQ(static_cast<int64_t>(result.stats.round_sizes.size()),
            result.stats.rounds);
}

TEST_F(ExecutorMiniTest, SamplingMethodAlsoCompletes) {
  ExecutorOptions options = PerfectCrowd();
  options.cost_method = CostMethod::kSampling;
  options.sampling_samples = 25;
  QuerySession session(&query_, options, truth_);
  ExecutionResult result = session.RunToCompletion().value();
  PrecisionRecall pr = ComputeF1(result.answers, TrueAnswers(dataset_, query_));
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
}

TEST_F(ExecutorMiniTest, CdbPlusRunsQualityControl) {
  ExecutorOptions options;
  options.quality_control = true;
  options.platform.worker_quality_mean = 0.85;
  options.platform.redundancy = 5;
  options.platform.seed = 11;
  QuerySession session(&query_, options, truth_);
  ExecutionResult result = session.RunToCompletion().value();
  EXPECT_GT(result.stats.worker_answers, result.stats.tasks_asked);
}

TEST_F(ExecutorMiniTest, RoundLimitFlushes) {
  ExecutorOptions options = PerfectCrowd();
  options.round_limit = 2;
  QuerySession session(&query_, options, truth_);
  ExecutionResult result = session.RunToCompletion().value();
  EXPECT_LE(result.stats.rounds, 2);
  // Flushing in round 2 must still finish the query: no valid unknowns left.
  Pruner pruner(const_cast<QueryGraph*>(&session.graph()));
  EXPECT_TRUE(pruner.RemainingTasks().empty());
}

TEST_F(ExecutorMiniTest, RoundLimitOneAsksEverythingValid) {
  ExecutorOptions options = PerfectCrowd();
  options.round_limit = 1;
  QuerySession session(&query_, options, truth_);
  ExecutionResult one = session.RunToCompletion().value();
  ExecutorOptions unconstrained = PerfectCrowd();
  QuerySession unconstrained_session(&query_, unconstrained, truth_);
  ExecutionResult free_run = unconstrained_session.RunToCompletion().value();
  // A 1-round flush cannot ask fewer tasks than the multi-round optimum.
  EXPECT_GE(one.stats.tasks_asked, free_run.stats.tasks_asked);
  EXPECT_EQ(one.stats.rounds, 1);
}

TEST_F(ExecutorMiniTest, BudgetModeRespectsBudget) {
  ExecutorOptions options = PerfectCrowd();
  options.budget = 5;
  QuerySession session(&query_, options, truth_);
  ExecutionResult result = session.RunToCompletion().value();
  EXPECT_LE(result.stats.tasks_asked, 5);
}

TEST_F(ExecutorMiniTest, BudgetRecallGrowsWithBudget) {
  std::vector<QueryAnswer> reference = TrueAnswers(dataset_, query_);
  double small_recall = 0.0;
  double large_recall = 0.0;
  {
    ExecutorOptions options = PerfectCrowd();
    options.budget = 3;
    QuerySession session(&query_, options, truth_);
    small_recall =
        ComputeF1(session.RunToCompletion().value().answers, reference).recall;
  }
  {
    ExecutorOptions options = PerfectCrowd();
    options.budget = 60;
    QuerySession session(&query_, options, truth_);
    large_recall =
        ComputeF1(session.RunToCompletion().value().answers, reference).recall;
  }
  EXPECT_GE(large_recall, small_recall);
  EXPECT_GT(large_recall, 0.0);
}

TEST_F(ExecutorMiniTest, SelectionQueryWorks) {
  ResolvedQuery query = Resolve(dataset_,
                                "SELECT University.name FROM University "
                                "WHERE University.country CROWDEQUAL 'USA'");
  EdgeTruthFn truth = MakeEdgeTruth(&dataset_, &query);
  QuerySession session(&query, PerfectCrowd(), truth);
  ExecutionResult result = session.RunToCompletion().value();
  // 11 of the 12 universities are in the USA ("US"/"USA" variants).
  PrecisionRecall pr = ComputeF1(result.answers, TrueAnswers(dataset_, query));
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  EXPECT_EQ(result.answers.size(), 11u);
}

TEST_F(ExecutorMiniTest, MixedCrowdAndTraditionalPredicates) {
  ResolvedQuery query = Resolve(dataset_,
                                "SELECT Paper.title FROM Paper, Citation "
                                "WHERE Paper.title CROWDJOIN Citation.title "
                                "AND Paper.conference = 'sigmod14'");
  EdgeTruthFn truth = MakeEdgeTruth(&dataset_, &query);
  QuerySession session(&query, PerfectCrowd(), truth);
  ExecutionResult result = session.RunToCompletion().value();
  // Papers p5 and p7 are sigmod14; p5's citation c7 matches; p7's real
  // citation c9 matches.
  EXPECT_GE(result.answers.size(), 1u);
  for (const QueryAnswer& answer : result.answers) {
    int64_t paper_row = answer.rows[0];
    EXPECT_TRUE(paper_row == 4 || paper_row == 6);
  }
}

TEST(ExecutorSyntheticTest, NoisyCrowdDegradesGracefully) {
  // With a mediocre crowd some answers will be wrong, but execution still
  // terminates and returns a result.
  GeneratedDataset ds = MakeMiniPaperExample();
  ResolvedQuery query = Resolve(ds, kMiniExampleQuery);
  EdgeTruthFn truth = MakeEdgeTruth(&ds, &query);
  ExecutorOptions options;
  options.platform.worker_quality_mean = 0.6;
  options.platform.redundancy = 3;
  options.platform.seed = 21;
  QuerySession session(&query, options, truth);
  ExecutionResult result = session.RunToCompletion().value();
  EXPECT_GT(result.stats.tasks_asked, 0);
}

}  // namespace
}  // namespace cdb
