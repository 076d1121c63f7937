// The session-pipeline contract: a Step()-driven QuerySession is
// byte-identical to RunToCompletion(), pausable/resumable mid-query, and
// MultiQueryScheduler's cross-query dedup preserves single-query answers
// while strictly saving crowd work; digests pin every scheduled session's
// blob, answers and stats.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bench_util/metrics.h"
#include "bench_util/queries.h"
#include "cql/parser.h"
#include "datagen/award_dataset.h"
#include "datagen/mini_example.h"
#include "exec/scheduler.h"
#include "exec/session.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

const char kTwoTableQuery[] =
    "SELECT * FROM Paper, Researcher "
    "WHERE Paper.Author CROWDJOIN Researcher.Name";

ResolvedQuery Resolve(const GeneratedDataset& ds, const std::string& cql) {
  Statement stmt = ParseStatement(cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), ds.catalog).value();
}

// Everything the executor reports, as one comparable byte string.
std::string StatsSignature(const ExecutionStats& stats) {
  std::ostringstream out;
  out << "tasks=" << stats.tasks_asked << "\nrounds=" << stats.rounds
      << "\nworker_answers=" << stats.worker_answers
      << "\nhits=" << stats.hits_published
      << "\nreposted=" << stats.reposted_tasks
      << "\nlate=" << stats.late_answers
      << "\nrecolored=" << stats.recolored_edges
      << "\nfallback=" << stats.fallback_colored << "\nround_sizes=";
  for (int64_t size : stats.round_sizes) out << size << ",";
  out << "\nstarved=";
  for (int64_t id : stats.starved_task_ids) out << id << ",";
  out << "\nunique_answers=";
  for (const auto& [task, n] : stats.unique_answers_per_task) {
    out << task << ":" << n << ",";
  }
  out << "\n" << PlatformStatsDump(stats.platform);
  return out.str();
}

std::string ColorDump(const QueryGraph& graph) {
  std::string out;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    switch (graph.edge(e).color) {
      case EdgeColor::kBlue:
        out += 'B';
        break;
      case EdgeColor::kRed:
        out += 'R';
        break;
      default:
        out += '?';
        break;
    }
  }
  return out;
}

ExecutorOptions NoisyCrowd(uint64_t seed, int threads) {
  ExecutorOptions options;
  options.platform.worker_quality_mean = 0.85;
  options.platform.redundancy = 3;
  options.platform.seed = seed;
  options.num_threads = threads;
  options.graph.num_threads = threads;
  return options;
}

ExecutorOptions FaultyCrowd(uint64_t seed, int threads) {
  ExecutorOptions options = NoisyCrowd(seed, threads);
  FaultProfile& fault = options.platform.fault;
  fault.abandon_prob = 0.25;
  fault.straggler_prob = 0.2;
  fault.straggler_delay_ticks = 6;
  fault.duplicate_prob = 0.1;
  fault.no_show_prob = 0.15;
  fault.task_deadline_ticks = 8;
  return options;
}

ExecutorOptions PerfectCrowd(uint64_t seed) {
  ExecutorOptions options;
  options.platform.worker_quality_mean = 1.0;
  options.platform.worker_quality_stddev = 0.0;
  options.platform.redundancy = 1;
  options.platform.seed = seed;
  return options;
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : dataset_(MakeMiniPaperExample()),
        query_(Resolve(dataset_, kMiniExampleQuery)),
        truth_(MakeEdgeTruth(&dataset_, &query_)) {}

  // Runs the session phase by phase via Step(), like a scheduler would,
  // instead of RunToCompletion().
  ExecutionResult StepToCompletion(QuerySession& session) {
    while (true) {
      Result<bool> more = session.Step();
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) break;
    }
    EXPECT_TRUE(session.done());
    return session.TakeResult();
  }

  GeneratedDataset dataset_;
  ResolvedQuery query_;
  EdgeTruthFn truth_;
};

TEST_F(SessionTest, StepDrivenMatchesExecutorByteIdentical) {
  for (int threads : {1, 8}) {
    QuerySession to_completion(&query_, NoisyCrowd(21, threads), truth_);
    ExecutionResult via_run = to_completion.RunToCompletion().value();

    QuerySession session(&query_, NoisyCrowd(21, threads), truth_);
    ExecutionResult via_steps = StepToCompletion(session);

    EXPECT_EQ(StatsSignature(via_run.stats), StatsSignature(via_steps.stats))
        << "threads=" << threads;
    EXPECT_EQ(ColorDump(to_completion.graph()), ColorDump(session.graph()))
        << "threads=" << threads;
    EXPECT_EQ(via_run.answers, via_steps.answers);
  }
}

TEST_F(SessionTest, StepDrivenMatchesExecutorUnderFaults) {
  for (int threads : {1, 8}) {
    QuerySession to_completion(&query_, FaultyCrowd(77, threads), truth_);
    ExecutionResult via_run = to_completion.RunToCompletion().value();

    QuerySession session(&query_, FaultyCrowd(77, threads), truth_);
    ExecutionResult via_steps = StepToCompletion(session);

    EXPECT_EQ(StatsSignature(via_run.stats), StatsSignature(via_steps.stats))
        << "threads=" << threads;
    EXPECT_EQ(ColorDump(to_completion.graph()), ColorDump(session.graph()))
        << "threads=" << threads;
  }
}

TEST_F(SessionTest, PhaseCountersTrackTheRoundLoop) {
  QuerySession session(&query_, NoisyCrowd(5, 1), truth_);
  ExecutionResult result = StepToCompletion(session);
  const auto& phases = result.stats.phases;
  auto at = [&](SessionPhase p) -> const PhaseCounters& {
    return phases[static_cast<size_t>(p)];
  };
  // One graph build; one color step per counted round; every round task goes
  // through kPublish exactly once (clean crowd: no reposts, nothing denied).
  EXPECT_EQ(at(SessionPhase::kBuildGraph).steps, 1);
  EXPECT_EQ(at(SessionPhase::kColor).steps, result.stats.rounds);
  EXPECT_EQ(at(SessionPhase::kPublish).tasks, result.stats.tasks_asked);
  EXPECT_EQ(at(SessionPhase::kCollect).tasks, result.stats.reposted_tasks);
  EXPECT_GT(at(SessionPhase::kPublish).answers, 0);
  EXPECT_EQ(at(SessionPhase::kDone).steps, 0);
  int64_t steps = 0;
  for (const PhaseCounters& c : phases) steps += c.steps;
  EXPECT_GT(steps, result.stats.rounds * 4);  // Every round walks >=5 phases.
}

TEST_F(SessionTest, PauseAndInterleaveDoesNotChangeTheResult) {
  QuerySession continuous(&query_, NoisyCrowd(9, 1), truth_);
  ExecutionResult expected = StepToCompletion(continuous);

  // Pause one session mid-query, run a different query to completion, then
  // resume: per-session state must be fully isolated.
  QuerySession paused(&query_, NoisyCrowd(9, 1), truth_);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(paused.Step().value());
  }
  EXPECT_FALSE(paused.done());
  ResolvedQuery other = Resolve(dataset_, kTwoTableQuery);
  EdgeTruthFn other_truth = MakeEdgeTruth(&dataset_, &other);
  QuerySession interloper(&other, NoisyCrowd(33, 1), other_truth);
  StepToCompletion(interloper);
  ExecutionResult resumed = StepToCompletion(paused);

  EXPECT_EQ(StatsSignature(expected.stats), StatsSignature(resumed.stats));
  EXPECT_EQ(expected.answers, resumed.answers);
}

TEST_F(SessionTest, SchedulerMatchesSoloColorsWithPerfectWorkers) {
  // Solo runs of both queries.
  QuerySession solo_a(&query_, PerfectCrowd(3), truth_);
  ExecutionResult result_a = solo_a.RunToCompletion().value();
  ResolvedQuery query_b = Resolve(dataset_, kTwoTableQuery);
  EdgeTruthFn truth_b = MakeEdgeTruth(&dataset_, &query_b);
  QuerySession solo_b(&query_b, PerfectCrowd(3), truth_b);
  ExecutionResult result_b = solo_b.RunToCompletion().value();

  // The same two queries co-scheduled: perfect workers answer every asked
  // task correctly in either mode, so every colored edge must agree.
  MultiQueryOptions mq;
  mq.platform = PerfectCrowd(3).platform;
  MultiQueryScheduler scheduler(mq);
  ASSERT_EQ(scheduler.AddQuery(&query_, PerfectCrowd(3), truth_), 0u);
  ASSERT_EQ(scheduler.AddQuery(&query_b, PerfectCrowd(3), truth_b), 1u);
  std::vector<ExecutionResult> results = scheduler.RunAll().value();
  ASSERT_EQ(results.size(), 2u);

  EXPECT_EQ(ColorDump(scheduler.session(0).graph()),
            ColorDump(solo_a.graph()));
  EXPECT_EQ(ColorDump(scheduler.session(1).graph()),
            ColorDump(solo_b.graph()));
  EXPECT_EQ(results[0].answers, result_a.answers);
  EXPECT_EQ(results[1].answers, result_b.answers);
}

TEST_F(SessionTest, SchedulerDedupsOverlappingQueries) {
  QuerySession solo(&query_, PerfectCrowd(3), truth_);
  ExecutionResult solo_result = solo.RunToCompletion().value();
  int64_t solo_published = solo_result.stats.platform.tasks_published;

  // The same query twice: every join task of the second session is the same
  // question, so the scheduler must publish far fewer than 2x solo.
  MultiQueryOptions mq;
  mq.platform = PerfectCrowd(3).platform;
  MultiQueryScheduler scheduler(mq);
  scheduler.AddQuery(&query_, PerfectCrowd(3), truth_);
  scheduler.AddQuery(&query_, PerfectCrowd(3), truth_);
  std::vector<ExecutionResult> results = scheduler.RunAll().value();

  EXPECT_LT(scheduler.platform_stats().tasks_published, 2 * solo_published);
  EXPECT_GT(scheduler.stats().dedup_hits + scheduler.stats().cache_hits, 0);
  EXPECT_GT(results[0].stats.dedup_tasks_saved +
                results[1].stats.dedup_tasks_saved,
            0);
  // Both sessions still answer the query correctly.
  EXPECT_EQ(results[0].answers, solo_result.answers);
  EXPECT_EQ(results[1].answers, solo_result.answers);
}

TEST_F(SessionTest, GlobalBudgetCapsThePlatform) {
  MultiQueryOptions mq;
  mq.platform = PerfectCrowd(3).platform;
  mq.global_budget = 25;
  MultiQueryScheduler scheduler(mq);
  scheduler.AddQuery(&query_, PerfectCrowd(3), truth_);
  scheduler.AddQuery(&query_, PerfectCrowd(3), truth_);
  std::vector<ExecutionResult> results = scheduler.RunAll().value();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_LE(scheduler.platform_stats().tasks_published, 25);
  EXPECT_GT(scheduler.stats().budget_denied, 0);
}

TEST_F(SessionTest, SharedHitsAreCountedForMergedRounds) {
  // Two different queries on one dataset: their merged rounds pack both
  // sessions' tasks into the same HITs.
  ResolvedQuery query_b = Resolve(dataset_, kTwoTableQuery);
  EdgeTruthFn truth_b = MakeEdgeTruth(&dataset_, &query_b);
  MultiQueryOptions mq;
  mq.platform = PerfectCrowd(3).platform;
  MultiQueryScheduler scheduler(mq);
  scheduler.AddQuery(&query_, PerfectCrowd(3), truth_);
  scheduler.AddQuery(&query_b, PerfectCrowd(3), truth_b);
  scheduler.RunAll().value();
  EXPECT_GT(scheduler.platform_stats().shared_hits, 0);
}

// The hostile market of the award benchmark workload: abandons, stragglers,
// duplicates, no-shows and 8-tick leases.
FaultProfile HostileFaults() {
  FaultProfile fault;
  fault.abandon_prob = 0.3;
  fault.straggler_prob = 0.2;
  fault.straggler_delay_ticks = 6;
  fault.duplicate_prob = 0.1;
  fault.no_show_prob = 0.2;
  fault.task_deadline_ticks = 8;
  fault.max_task_expiries = 6;
  return fault;
}

// Steps one standalone session to the end and digests its Snapshot() blob
// after every Step(), then its answers and stats.
uint64_t RoundStateDigest(const ResolvedQuery& query, const EdgeTruthFn& truth,
                          const ExecutorOptions& options,
                          ExecutionStats* stats) {
  testing_util::BitDigest digest;
  QuerySession session(&query, options, truth);
  while (true) {
    Result<bool> more = session.Step();
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    digest.Add(session.Snapshot());
    if (!more.ok() || !more.value()) break;
  }
  ExecutionResult result = session.TakeResult();
  digest.Add(static_cast<int64_t>(result.answers.size()));
  for (const QueryAnswer& answer : result.answers) {
    for (int64_t row : answer.rows) digest.Add(row);
  }
  digest.Add(StatsSignature(result.stats));
  digest.Add(result.stats.deduced_edges);
  digest.Add(result.stats.deduction_invalidations);
  *stats = result.stats;
  return digest.value();
}

// Award 2J at scale 0.05 under {majority, CDB+ with propagation and golden
// tasks} x {clean, hostile}, at 1 and 8 threads: every checkpoint blob the
// round loop passes through (observations, posteriors, colors, inference),
// the answers and the stats. The hostile runs flip colors on late answers,
// and the CDB+ hostile run invalidates deductions, so the late-answer
// re-inference and the pruner's rebuild after a flip are both pinned.
TEST_F(SessionTest, RoundStateDigestsHold) {
  AwardDatasetOptions dataset_options;
  dataset_options.scale = 0.05;
  GeneratedDataset dataset = GenerateAwardDataset(dataset_options);
  ResolvedQuery query = Resolve(dataset, AwardQueries()[0].cql);
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  const uint64_t kWant[4] = {0x6a6dade9a3e0e487ULL, 0x4db110f86b92f97aULL,
                             0xf48a79c81f2209ecULL, 0x5722f869e7085ff2ULL};
  for (int threads : {1, 8}) {
    size_t i = 0;
    for (bool quality : {false, true}) {
      for (bool hostile : {false, true}) {
        ExecutorOptions options = NoisyCrowd(7, threads);
        if (hostile) options.platform.fault = HostileFaults();
        options.quality_control = quality;
        options.propagation.enabled = quality;
        options.golden_tasks = quality ? 3 : 0;
        ExecutionStats stats;
        EXPECT_EQ(RoundStateDigest(query, truth, options, &stats), kWant[i])
            << " threads=" << threads << " quality=" << quality
            << " hostile=" << hostile;
        if (hostile) {
          EXPECT_GT(stats.recolored_edges, 0);
          if (quality) {
            EXPECT_GT(stats.deduction_invalidations, 0);
          }
        }
        ++i;
      }
    }
  }
}

// Everything a scheduled session ends with: its checkpoint blob (colors,
// observations, posteriors, budget spend), its answers, and its stats.
void AddSessionDigest(testing_util::BitDigest& digest,
                      const QuerySession& session,
                      const ExecutionResult& result) {
  digest.Add(session.Snapshot());
  digest.Add(static_cast<int64_t>(result.answers.size()));
  for (const QueryAnswer& answer : result.answers) {
    for (int64_t row : answer.rows) digest.Add(row);
  }
  const ExecutionStats& stats = result.stats;
  for (int64_t value :
       {stats.tasks_asked, stats.rounds, stats.worker_answers,
        stats.dedup_tasks_saved, stats.late_answers, stats.reposted_tasks}) {
    digest.Add(value);
  }
  for (const PhaseCounters& counters : stats.phases) {
    digest.Add(counters.steps);
    digest.Add(counters.tasks);
    digest.Add(counters.answers);
  }
  digest.Add(PlatformStatsDump(stats.platform));
}

// Four award queries on one shared market, {clean, hostile} x {retry off
// under a global budget of 2000, retry on under 5000}, in that nesting
// order. Each digest covers every session's output, the scheduler's stats
// and the shared market's stats; it is the same at 1 and 8 threads. The
// runs cover reposts, budget denials, cache hits and skipped deduced
// fan-outs, so every path that hands a scheduled session its answers shows.
TEST(SchedulerDigestTest, SchedulerSessionDigestsHold) {
  const uint64_t kWant[4] = {0xe655b8a65bf98ad6ULL, 0x3a7ee6941f48b171ULL,
                             0x96d5d553649de3caULL, 0xb2b8d6827d1d16efULL};
  AwardDatasetOptions dataset_options;
  dataset_options.scale = 0.1;
  GeneratedDataset dataset = GenerateAwardDataset(dataset_options);
  ResolvedQuery two_join = Resolve(dataset, AwardQueries()[0].cql);
  ResolvedQuery with_selection = Resolve(dataset, AwardQueries()[1].cql);
  EdgeTruthFn two_join_truth = MakeEdgeTruth(&dataset, &two_join);
  EdgeTruthFn selection_truth = MakeEdgeTruth(&dataset, &with_selection);
  MultiQueryStats seen;
  for (int threads : {1, 8}) {
    size_t i = 0;
    for (bool hostile : {false, true}) {
      for (bool retry : {false, true}) {
        MultiQueryOptions mq;
        mq.platform.seed = 19;
        mq.platform.worker_quality_mean = 0.85;
        mq.platform.redundancy = 3;
        if (hostile) {
          FaultProfile& fault = mq.platform.fault;
          fault.straggler_prob = 0.5;
          fault.straggler_delay_ticks = 40;
          fault.task_deadline_ticks = 3;
          fault.max_task_expiries = 1;
          fault.abandon_prob = 0.2;
          fault.duplicate_prob = 0.1;
        }
        mq.global_budget = retry ? 5000 : 2000;
        MultiQueryScheduler scheduler(mq);
        ExecutorOptions plain;
        plain.retry.enabled = retry;
        plain.num_threads = threads;
        plain.graph.num_threads = threads;
        ExecutorOptions quality = plain;
        quality.quality_control = true;
        ExecutorOptions propagating = plain;
        propagating.propagation.enabled = true;
        ExecutorOptions propagating_quality = propagating;
        propagating_quality.quality_control = true;
        propagating_quality.golden_tasks = 3;
        scheduler.AddQuery(&two_join, propagating, two_join_truth);
        scheduler.AddQuery(&two_join, propagating_quality, two_join_truth);
        scheduler.AddQuery(&with_selection, plain, selection_truth);
        scheduler.AddQuery(&with_selection, quality, selection_truth);
        Result<std::vector<ExecutionResult>> results = scheduler.RunAll();
        ASSERT_TRUE(results.ok()) << results.status().ToString();
        testing_util::BitDigest digest;
        for (size_t s = 0; s < scheduler.num_sessions(); ++s) {
          AddSessionDigest(digest, scheduler.session(s), results.value()[s]);
        }
        for (const StatField<MultiQueryStats>& row : kSchedulerStatFields) {
          digest.Add(scheduler.stats().*row.field);
          seen.*row.field += scheduler.stats().*row.field;
        }
        digest.Add(PlatformStatsDump(scheduler.platform_stats()));
        EXPECT_EQ(digest.value(), kWant[i])
            << " threads=" << threads << " hostile=" << hostile
            << " retry=" << retry;
        ++i;
      }
    }
  }
  EXPECT_GT(seen.direct_tasks, 0);
  EXPECT_GT(seen.budget_denied, 0);
  EXPECT_GT(seen.cache_hits, 0);
  EXPECT_GT(seen.dedup_tasks_saved, 0);
}

}  // namespace
}  // namespace cdb
