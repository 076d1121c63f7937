// Deterministic simulation tests for the unreliable-crowd stack (label:
// fault). Platform-level DST sweeps seeds over a hostile FaultProfile and
// checks the lease conservation laws; executor-level sweeps run whole
// queries through SimCrowd and assert termination, budget bounds and
// byte-identical reruns across thread counts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util/metrics.h"
#include "bench_util/sim_crowd.h"
#include "cql/parser.h"
#include "crowd/platform.h"
#include "datagen/mini_example.h"
#include "exec/scheduler.h"
#include "tests/test_util.h"

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

// The ISSUE's hostile profile: a third of leases abandoned, stragglers,
// duplicated answers and no-shows, under a tight deadline.
FaultProfile HostileProfile() {
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

void CheckConservation(const PlatformStats& stats) {
  EXPECT_EQ(stats.leases_granted,
            (stats.answers_collected - stats.duplicates) + stats.abandons +
                stats.late_answers)
      << PlatformStatsDump(stats);
  EXPECT_LE(stats.expiries, stats.abandons + stats.late_answers)
      << PlatformStatsDump(stats);
  // Exact integer pricing: micro-dollars are a pure function of HITs.
  EXPECT_EQ(stats.micro_dollars_spent, stats.hits_published * 100000);
}

TEST(FaultDstTest, TwentySeedConservationSweep) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PlatformOptions options;
    options.seed = seed;
    options.redundancy = 3;
    options.num_workers = 25;
    options.fault = HostileProfile();
    CrowdPlatform platform(options, AlwaysYes());
    std::vector<Task> tasks;
    for (int i = 0; i < 15; ++i) tasks.push_back(YesNoTask(i));

    Result<std::vector<Answer>> round = platform.ExecuteRound(tasks);
    ASSERT_TRUE(round.ok()) << "seed " << seed << ": "
                            << round.status().message();
    CheckConservation(platform.stats());

    // Every task the platform did not give up on reached redundancy with
    // distinct workers.
    std::set<TaskId> dead;
    for (TaskId t : platform.TakeDeadLetters()) dead.insert(t);
    std::map<TaskId, std::set<int>> workers_per_task;
    for (const Answer& a : round.value()) {
      EXPECT_FALSE(a.late);
      workers_per_task[a.task].insert(a.worker);
    }
    for (const Task& task : tasks) {
      if (dead.count(task.id) != 0) continue;
      EXPECT_GE(workers_per_task[task.id].size(), 3u)
          << "seed " << seed << " task " << task.id;
    }

    // Late answers carry the flag and are counted exactly once.
    std::vector<Answer> late = platform.TakeLateAnswers();
    EXPECT_EQ(static_cast<int64_t>(late.size()),
              platform.stats().late_answers);
    for (const Answer& a : late) EXPECT_TRUE(a.late);
  }
}

TEST(FaultDstTest, SameSeedSameSchedule) {
  // The entire fault schedule must be a pure function of the seed: two
  // platforms with identical options produce byte-identical stats and
  // answer streams.
  for (uint64_t seed : {3u, 17u}) {
    PlatformOptions options;
    options.seed = seed;
    options.redundancy = 3;
    options.num_workers = 20;
    options.fault = HostileProfile();
    std::vector<Task> tasks;
    for (int i = 0; i < 10; ++i) tasks.push_back(YesNoTask(i));

    CrowdPlatform a(options, AlwaysYes());
    CrowdPlatform b(options, AlwaysYes());
    std::vector<Answer> answers_a = a.ExecuteRound(tasks).value();
    std::vector<Answer> answers_b = b.ExecuteRound(tasks).value();
    ASSERT_EQ(answers_a.size(), answers_b.size());
    for (size_t i = 0; i < answers_a.size(); ++i) {
      EXPECT_EQ(answers_a[i].task, answers_b[i].task);
      EXPECT_EQ(answers_a[i].worker, answers_b[i].worker);
      EXPECT_EQ(answers_a[i].tick, answers_b[i].tick);
    }
    EXPECT_EQ(PlatformStatsDump(a.stats()), PlatformStatsDump(b.stats()));
  }
}

TEST(FaultDstTest, StatsPersistAcrossRounds) {
  PlatformOptions options;
  options.seed = 9;
  options.redundancy = 2;
  options.num_workers = 15;
  options.fault = HostileProfile();
  CrowdPlatform platform(options, AlwaysYes());
  ASSERT_TRUE(platform.ExecuteRound({YesNoTask(0), YesNoTask(1)}).ok());
  int64_t leases_after_one = platform.stats().leases_granted;
  ASSERT_TRUE(platform.ExecuteRound({YesNoTask(2), YesNoTask(3)}).ok());
  EXPECT_GT(platform.stats().leases_granted, leases_after_one);
  CheckConservation(platform.stats());
}

TEST(FaultDstTest, MultiMarketConservesAcrossMarkets) {
  PlatformOptions a;
  a.seed = 4;
  a.redundancy = 2;
  a.num_workers = 12;
  a.fault = HostileProfile();
  PlatformOptions b = a;
  b.seed = 5;
  b.market_name = "SimCrowdFlower";
  b.requester_controls_assignment = false;
  MultiMarket market({a, b}, AlwaysYes());
  std::vector<Task> tasks;
  for (int i = 0; i < 12; ++i) tasks.push_back(YesNoTask(i));
  ASSERT_TRUE(market.ExecuteRound(tasks).ok());
  CheckConservation(market.CombinedStats());
  // Late answers from the second market carry the worker-id offset.
  for (const Answer& late : market.TakeLateAnswers()) {
    EXPECT_TRUE(late.late);
    EXPECT_GE(late.worker, 0);
  }
}

// --- Golden fault schedules. ---
//
// FNV-1a digests of whole fault schedules, recorded before FaultyRound kept
// its lease bookkeeping incrementally and drew its faults from ShortStream.
// Both rewrites must reproduce every draw, every policy pick and every dead
// letter, so any change to a schedule fails here. Each case runs three
// consecutive rounds on one platform (the virtual clock and the lease
// sequence carry across rounds) and digests every on-time answer, every late
// answer, every dead letter and the final stats dump.

struct ScheduleCase {
  FaultProfile fault;
  int num_workers = 25;
  int redundancy = 3;
  int tasks_per_round = 15;
  bool use_policy = true;
};

struct ScheduleRun {
  uint64_t digest = 0;
  PlatformStats stats;
};

// Takes every other entry of `available` from the back, so the picks change
// whenever the order of `available` does.
std::vector<size_t> EveryOtherFromBack(const SimulatedWorker&,
                                       const std::vector<TaskId>& available,
                                       int count) {
  std::vector<size_t> picks;
  for (size_t k = 0; 2 * k < available.size() &&
                     picks.size() < static_cast<size_t>(count);
       ++k) {
    picks.push_back(available.size() - 1 - 2 * k);
  }
  return picks;
}

void DigestAnswers(const std::vector<Answer>& answers,
                   testing_util::BitDigest* digest) {
  digest->Add(static_cast<uint64_t>(answers.size()));
  for (const Answer& a : answers) {
    digest->Add(static_cast<int64_t>(a.task));
    digest->Add(static_cast<int64_t>(a.worker));
    digest->Add(static_cast<int64_t>(a.choice));
    digest->Add(a.tick);
    digest->Add(static_cast<uint64_t>(a.late));
  }
}

ScheduleRun RunSchedule(const ScheduleCase& c, uint64_t seed) {
  PlatformOptions options;
  options.seed = seed;
  options.num_workers = c.num_workers;
  options.redundancy = c.redundancy;
  options.fault = c.fault;
  // Odd tasks are truly "no", so a worker's choice depends on its accuracy
  // draw and on which task it was handed.
  CrowdPlatform platform(options, [](const Task& task) {
    TaskTruth truth;
    truth.correct_choice = static_cast<int>(task.id % 2);
    return truth;
  });
  const AssignmentPolicy policy = EveryOtherFromBack;
  testing_util::BitDigest digest;
  for (int round = 0; round < 3; ++round) {
    std::vector<Task> tasks;
    for (int i = 0; i < c.tasks_per_round; ++i) {
      tasks.push_back(YesNoTask(100 * round + i));
    }
    Result<std::vector<Answer>> answers =
        platform.ExecuteRound(tasks, c.use_policy ? &policy : nullptr);
    EXPECT_TRUE(answers.ok()) << "seed " << seed << " round " << round << ": "
                              << answers.status().message();
    if (!answers.ok()) return {};
    DigestAnswers(answers.value(), &digest);
    DigestAnswers(platform.TakeLateAnswers(), &digest);
    std::vector<TaskId> dead = platform.TakeDeadLetters();
    digest.Add(static_cast<uint64_t>(dead.size()));
    for (TaskId id : dead) digest.Add(static_cast<int64_t>(id));
  }
  digest.Add(PlatformStatsDump(platform.stats()));
  return {digest.value(), platform.stats()};
}

// Runs seeds 1..5 of `c` against `golden` and returns the summed stats.
PlatformStats ExpectSchedules(const ScheduleCase& c,
                              const std::vector<uint64_t>& golden) {
  PlatformStats total;
  for (uint64_t seed = 1; seed <= golden.size(); ++seed) {
    ScheduleRun run = RunSchedule(c, seed);
    EXPECT_EQ(run.digest, golden[seed - 1])
        << "seed " << seed << std::hex << ": digest 0x" << run.digest;
    CheckConservation(run.stats);
    total.late_answers += run.stats.late_answers;
    total.dead_lettered += run.stats.dead_lettered;
    total.no_shows += run.stats.no_shows;
    total.abandons += run.stats.abandons;
  }
  return total;
}

TEST(FaultScheduleGoldenTest, HostileOrderSensitivePolicy) {
  ScheduleCase c;
  c.fault = HostileProfile();
  PlatformStats total = ExpectSchedules(
      c, {0x7f16f0fb574e21d8ULL, 0x87fea2a06cfd8205ULL, 0x4921981a93a36177ULL,
          0xc1641c4664a29947ULL, 0x3a096800aeda6a2eULL});
  EXPECT_GT(total.no_shows, 0);
  EXPECT_GT(total.abandons, 0);
}

TEST(FaultScheduleGoldenTest, HostileRoundRobin) {
  ScheduleCase c;
  c.fault = HostileProfile();
  c.use_policy = false;
  ExpectSchedules(
      c, {0xdd845f79cb108f72ULL, 0x14a09ca56f5fec63ULL, 0xde6bc9eb3c01b795ULL,
          0x455709a6ef84826aULL, 0xb28e079c5816011bULL});
}

TEST(FaultScheduleGoldenTest, StragglersDeliverLate) {
  ScheduleCase c;
  c.fault.straggler_prob = 0.6;
  c.fault.straggler_delay_ticks = 30;
  c.fault.task_deadline_ticks = 4;
  c.fault.abandon_prob = 0.1;
  PlatformStats total = ExpectSchedules(
      c, {0x5eb3b5ed00c168aaULL, 0x7d101ebb01588fe9ULL, 0xa327dcae39c07ad3ULL,
          0x9c5c35e1fcee8ff6ULL, 0x168ffeae2a076036ULL});
  EXPECT_GT(total.late_answers, 0);
}

TEST(FaultScheduleGoldenTest, StarvedTasksAreDeadLettered) {
  // Four workers for redundancy 3 under heavy abandonment: a task runs out
  // of fresh workers long before its 50-expiry cap, so every dead letter
  // comes from the starvation check or the idle give-up.
  ScheduleCase c;
  c.fault.abandon_prob = 0.6;
  c.fault.task_deadline_ticks = 2;
  c.fault.max_task_expiries = 50;
  c.num_workers = 4;
  c.tasks_per_round = 6;
  PlatformStats total = ExpectSchedules(
      c, {0x599f552df75aaf8aULL, 0x02abe3dc4f872591ULL, 0xc32aa4bb166aededULL,
          0x39d13dc5074e2ddcULL, 0xf81fdb57a35a6507ULL});
  EXPECT_GT(total.dead_lettered, 0);
}

// --- Executor-level DST: whole queries through SimCrowd. ---

TEST(SimCrowdTest, CleanRunHasNoViolations) {
  SimCrowdConfig config;
  config.seed = 2;
  SimCrowdReport report = RunSimCrowd(config).value();
  EXPECT_TRUE(report.violations.empty())
      << report.violations.front() << " (+" << report.violations.size() - 1
      << " more)";
  EXPECT_GT(report.result.answers.size(), 0u);
  EXPECT_EQ(report.result.stats.reposted_tasks, 0);
  EXPECT_EQ(report.result.stats.late_answers, 0);
}

TEST(SimCrowdTest, TwentySeedHostileSweepCompletesEveryQuery) {
  // The ISSUE's acceptance sweep: abandonment 0.3 + stragglers, 20 seeds;
  // every query must run to completion (no abort) with all invariants
  // intact.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SimCrowdConfig config;
    config.seed = seed;
    config.fault = HostileProfile();
    Result<SimCrowdReport> report = RunSimCrowd(config);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().message();
    for (const std::string& violation : report->violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation;
    }
  }
}

TEST(SimCrowdTest, BudgetIsNeverExceededUnderFaults) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SimCrowdConfig config;
    config.seed = seed;
    config.fault = HostileProfile();
    config.budget = 12;
    SimCrowdReport report = RunSimCrowd(config).value();
    for (const std::string& violation : report.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation;
    }
    const PlatformStats& ps = report.result.stats.platform;
    EXPECT_LE(ps.tasks_published, 12) << "seed " << seed;
    EXPECT_LE(ps.micro_dollars_spent, 12 * 100000) << "seed " << seed;
  }
}

TEST(SimCrowdTest, RetryDisabledStillTerminates) {
  // Without requester-side reposts the platform's own repost/dead-letter
  // machinery must still finish the round; fallback coloring covers any
  // edge whose task starved.
  SimCrowdConfig config;
  config.seed = 6;
  config.fault = HostileProfile();
  config.retry.enabled = false;
  SimCrowdReport report = RunSimCrowd(config).value();
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
}

TEST(SimCrowdTest, QualityControlPathSurvivesFaults) {
  SimCrowdConfig config;
  config.seed = 8;
  config.fault = HostileProfile();
  config.quality_control = true;
  config.worker_quality_mean = 0.85;
  config.worker_quality_stddev = 0.05;
  SimCrowdReport report = RunSimCrowd(config).value();
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
}

TEST(SimCrowdTest, SameSeedByteIdenticalAcrossThreadCounts) {
  // The ISSUE's determinism acceptance: two same-seed runs byte-identical
  // at 1 and 8 optimizer threads (EM inference + sampling min-cut are the
  // parallel stages; the platform interaction is serial by design).
  for (uint64_t seed : {1u, 7u, 13u}) {
    std::string reference_stats;
    std::string reference_colors;
    for (int threads : {1, 8}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        SimCrowdConfig config;
        config.seed = seed;
        config.fault = HostileProfile();
        config.quality_control = true;
        config.cost_method = CostMethod::kSampling;
        config.num_threads = threads;
        SimCrowdReport report = RunSimCrowd(config).value();
        if (reference_stats.empty()) {
          reference_stats = report.stats_dump;
          reference_colors = report.color_dump;
        } else {
          EXPECT_EQ(report.stats_dump, reference_stats)
              << "seed " << seed << " threads " << threads;
          EXPECT_EQ(report.color_dump, reference_colors)
              << "seed " << seed << " threads " << threads;
        }
      }
    }
  }
}

TEST(SimCrowdTest, LateAnswerAfterPruningDoesNotResurrectEdges) {
  // Regression for the RecolorEdge audit: an extreme straggler profile makes
  // late answers land whole rounds after the pruner has already acted on the
  // early deliveries. Reconciliation may flip a colored edge, but an answer
  // for an edge the pruner skipped (still kUnknown, or a traditional
  // predicate) must be dropped, never resurrect it into the crowd set. The
  // color-integrity invariant in RunSimCrowd observes exactly that.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SimCrowdConfig config;
    config.seed = seed;
    config.fault.straggler_prob = 0.6;
    config.fault.straggler_delay_ticks = 30;
    config.fault.task_deadline_ticks = 4;
    config.fault.abandon_prob = 0.1;
    SimCrowdReport report = RunSimCrowd(config).value();
    for (const std::string& violation : report.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation;
    }
    // The profile must actually exercise the late path, and reruns must be
    // byte-identical (reconciliation is deterministic).
    if (seed == 1) {
      SimCrowdReport rerun = RunSimCrowd(config).value();
      EXPECT_EQ(rerun.stats_dump, report.stats_dump);
      EXPECT_EQ(rerun.color_dump, report.color_dump);
    }
  }
}

TEST(SimCrowdTest, HostileSweepProducesLateAnswers) {
  // Sanity for the regression above: the straggler-heavy profile does push
  // answers past the deadline, so the reconciliation path is genuinely
  // covered rather than vacuously green.
  int64_t total_late = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SimCrowdConfig config;
    config.seed = seed;
    config.fault.straggler_prob = 0.6;
    config.fault.straggler_delay_ticks = 30;
    config.fault.task_deadline_ticks = 4;
    config.fault.abandon_prob = 0.1;
    SimCrowdReport report = RunSimCrowd(config).value();
    total_late += report.result.stats.platform.late_answers;
  }
  EXPECT_GT(total_late, 0);
}

TEST(SimCrowdTest, PropagationStaysClusterConsistentUnderHostileCrowd) {
  // Satellite regression for the invalidate-and-rederive path: under the
  // hostile profile late answers promote and flip crowd-evidenced edges
  // after deductions were made from them. ReconcileLate must rebuild the
  // closure, so RunSimCrowd's cluster-consistency sweep (active here: the
  // crowd is noise-free, so asked colors are mutually consistent) must find
  // no pair that is both matched and non-matched, on top of every standing
  // invariant — and reruns must stay byte-identical.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SimCrowdConfig config;
    config.seed = seed;
    config.fault = HostileProfile();
    config.propagation.enabled = true;
    Result<SimCrowdReport> report = RunSimCrowd(config);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().message();
    for (const std::string& violation : report->violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation;
    }
    if (seed == 1) {
      SimCrowdReport rerun = RunSimCrowd(config).value();
      EXPECT_EQ(rerun.stats_dump, report->stats_dump);
      EXPECT_EQ(rerun.color_dump, report->color_dump);
    }
  }
}

TEST(SimCrowdTest, PropagationSurvivesExtremeStragglers) {
  // The straggler-heavy late-answer profile with the deduction layer on:
  // flips may orphan deduced colors whole rounds after they were derived;
  // the terminal reconcile must still leave every valid edge colored and
  // the clusters consistent.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SimCrowdConfig config;
    config.seed = seed;
    config.fault.straggler_prob = 0.6;
    config.fault.straggler_delay_ticks = 30;
    config.fault.task_deadline_ticks = 4;
    config.fault.abandon_prob = 0.1;
    config.propagation.enabled = true;
    SimCrowdReport report = RunSimCrowd(config).value();
    for (const std::string& violation : report.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << violation;
    }
  }
}

TEST(SimCrowdTest, StatsDumpIsStableFormat) {
  SimCrowdConfig config;
  config.seed = 3;
  SimCrowdReport report = RunSimCrowd(config).value();
  EXPECT_NE(report.stats_dump.find("tasks_published="), std::string::npos);
  EXPECT_NE(report.stats_dump.find("leases_granted="), std::string::npos);
  EXPECT_NE(report.color_dump.find("0="), std::string::npos);
}

// The merge barrier under a hostile crowd: N sessions sharing one faulty
// platform still satisfy every conservation law, finish every query, and the
// whole run is byte-identical across optimizer thread counts. (The
// single-session hostile path is covered above and in session_test.cc; this
// closes the scheduler-shaped gap.)
TEST(FaultDstTest, SchedulerUnderHostileCrowdConservesAndIsDeterministic) {
  GeneratedDataset dataset = MakeMiniPaperExample();
  Statement stmt = ParseStatement(kMiniExampleQuery).value();
  ResolvedQuery query =
      AnalyzeSelect(std::get<SelectStatement>(stmt), dataset.catalog).value();
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);

  std::map<int, std::string> dumps;
  for (int threads : {1, 8}) {
    MultiQueryOptions mq;
    mq.platform.seed = 77;
    mq.platform.worker_quality_mean = 0.85;
    mq.platform.redundancy = 3;
    mq.platform.fault = HostileProfile();
    MultiQueryScheduler scheduler(mq);
    ExecutorOptions options;
    options.num_threads = threads;
    options.graph.num_threads = threads;
    ASSERT_EQ(scheduler.AddQuery(&query, options, truth), 0u);
    ASSERT_EQ(scheduler.AddQuery(&query, options, truth), 1u);
    Result<std::vector<ExecutionResult>> results = scheduler.RunAll();
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results.value().size(), 2u);
    CheckConservation(scheduler.platform_stats());

    std::string dump = PlatformStatsDump(scheduler.platform_stats());
    for (size_t i = 0; i < results.value().size(); ++i) {
      const ExecutionStats& stats = results.value()[i].stats;
      dump += "\nsession" + std::to_string(i) +
              ": rounds=" + std::to_string(stats.rounds) +
              " tasks=" + std::to_string(stats.tasks_asked) +
              " answers=" + std::to_string(stats.worker_answers) +
              " late=" + std::to_string(stats.late_answers) +
              " reposted=" + std::to_string(stats.reposted_tasks) +
              " results=" + std::to_string(results.value()[i].answers.size());
    }
    dumps[threads] = dump;
    // Hostile faults actually fired — the run was not accidentally clean.
    EXPECT_GT(scheduler.platform_stats().abandons +
                  scheduler.platform_stats().late_answers +
                  scheduler.platform_stats().expiries,
              0);
  }
  EXPECT_EQ(dumps[1], dumps[8]);
}

}  // namespace
}  // namespace cdb
