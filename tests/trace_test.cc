// The `ctest -L trace` suite: unit semantics of the metrics registry and the
// tick-keyed tracer, plus the ISSUE's determinism acceptance — MetricsDump()
// and Tracer::DumpJson() byte-identical at 1 vs 8 optimizer threads on
// seeded clean and hostile-fault runs, exactly like the platform-stats and
// edge-color dumps.
// It also pins whole MetricsDump() texts by digest, and checks that every
// stats table equals its registry counters after each public call.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/metrics.h"
#include "bench_util/queries.h"
#include "bench_util/sim_crowd.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "cql/parser.h"
#include "crowd/platform.h"
#include "datagen/award_dataset.h"
#include "datagen/mini_example.h"
#include "exec/scheduler.h"
#include "exec/service.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42);
  counter.Increment(-2);  // Deltas are signed; the fold is a plain sum.
  EXPECT_EQ(counter.Value(), 40);
}

TEST(CounterTest, ConcurrentIncrementsFoldExactly) {
  // The sharded fold is an integer sum, so any interleaving of increments
  // from any number of threads must produce the exact total.
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(7);
  gauge.Set(-3);
  EXPECT_EQ(gauge.Value(), -3);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(7), 3);
  EXPECT_EQ(Histogram::BucketFor(8), 4);
  EXPECT_EQ(Histogram::BucketFor(-5), 0);  // Negative clamps to 0.
  EXPECT_EQ(Histogram::BucketFor(INT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, ObserveAccumulates) {
  Histogram histogram;
  histogram.Observe(0);
  histogram.Observe(3);
  histogram.Observe(3);
  histogram.Observe(100);
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_EQ(histogram.sum(), 106);
  EXPECT_EQ(histogram.bucket(0), 1);
  EXPECT_EQ(histogram.bucket(Histogram::BucketFor(3)), 2);
  EXPECT_EQ(histogram.bucket(Histogram::BucketFor(100)), 1);
}

TEST(RegistryTest, HandlesAreStableAcrossLookups) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  registry.counter("y").Increment();
  registry.histogram("h").Observe(4);
  EXPECT_EQ(&a, &registry.counter("x"));
  a.Increment(3);
  EXPECT_EQ(registry.counter("x").Value(), 3);
}

TEST(RegistryTest, DumpIsSortedNameValueLines) {
  MetricsRegistry registry;
  registry.counter("zeta").Increment(2);
  registry.counter("alpha").Increment(1);
  registry.gauge("mid").Set(-7);
  registry.histogram("hist").Observe(3);
  const std::string dump = MetricsDump(registry);
  // Sorted by name; histograms expand to .count/.sum/.bucketNN lines with
  // only non-empty buckets present.
  EXPECT_EQ(dump,
            "alpha=1\n"
            "hist.bucket02=1\n"
            "hist.count=1\n"
            "hist.sum=3\n"
            "mid=-7\n"
            "zeta=2\n");
}

TEST(RegistryTest, DumpJsonSortedObject) {
  MetricsRegistry registry;
  registry.counter("b").Increment(2);
  registry.counter("a").Increment(1);
  const std::string json = registry.DumpJson();
  EXPECT_EQ(json, "{\n  \"a\": 1,\n  \"b\": 2\n}\n");
}

TEST(RegistryDeathTest, TypeCollisionIsFatal) {
  MetricsRegistry registry;
  registry.counter("name");
  EXPECT_DEATH(registry.gauge("name"), "metric name registered");
  EXPECT_DEATH(registry.histogram("name"), "metric name registered");
}

TEST(TracerTest, SpansKeepCallOrder) {
  Tracer tracer;
  tracer.AddSpan("first", "cat", 0, 3);
  tracer.AddSpan("second", "cat", 3, 5);
  ASSERT_EQ(tracer.num_spans(), 2u);
  std::vector<TraceSpan> spans = tracer.Spans();
  EXPECT_EQ(spans[0].name, "first");
  EXPECT_EQ(spans[1].tick_begin, 3);
  EXPECT_EQ(spans[0].wall_micros, -1);
}

TEST(TracerTest, DeterministicDumpExcludesWall) {
  Tracer tracer(TracerOptions{/*record_wall=*/true});
  EXPECT_TRUE(tracer.record_wall());
  tracer.AddSpan("span", "cat", 1, 4, /*wall_micros=*/123456);
  const std::string deterministic = tracer.DumpJson();
  EXPECT_EQ(deterministic.find("wall_us"), std::string::npos);
  EXPECT_NE(deterministic.find("\"span\""), std::string::npos);
  const std::string with_wall = tracer.DumpJsonWithWall();
  EXPECT_NE(with_wall.find("wall_us"), std::string::npos);
  EXPECT_NE(with_wall.find("123456"), std::string::npos);
}

TEST(TracerTest, WallTimerMonotone) {
  WallTimer timer;
  EXPECT_GE(timer.ElapsedMicros(), 0);
  timer.Restart();
  EXPECT_GE(timer.ElapsedMs(), 0.0);
}

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

TEST(PlatformMirrorTest, RegistryIsAViewOverPlatformStats) {
  // PlatformStats and the crowd.* registry namespace are two readouts of the
  // same events; after any run they must agree field for field.
  MetricsRegistry registry;
  Tracer tracer;
  PlatformOptions options;
  options.redundancy = 3;
  options.tasks_per_hit = 10;
  options.price_per_hit = 0.1;
  options.fault.abandon_prob = 0.3;
  options.fault.straggler_prob = 0.2;
  options.fault.straggler_delay_ticks = 6;
  options.fault.duplicate_prob = 0.1;
  options.fault.no_show_prob = 0.2;
  options.fault.task_deadline_ticks = 8;
  options.fault.max_task_expiries = 6;
  options.num_workers = 25;
  options.metrics = &registry;
  options.tracer = &tracer;
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Task> tasks;
  for (int i = 0; i < 15; ++i) tasks.push_back(YesNoTask(i));
  ASSERT_TRUE(platform.ExecuteRound(tasks).ok());

  const PlatformStats& stats = platform.stats();
  MetricsRegistry& reg = registry;
  EXPECT_EQ(reg.counter("crowd.tasks_published").Value(), stats.tasks_published);
  EXPECT_EQ(reg.counter("crowd.answers_collected").Value(),
            stats.answers_collected);
  EXPECT_EQ(reg.counter("crowd.hits_published").Value(), stats.hits_published);
  EXPECT_EQ(reg.counter("crowd.shared_hits").Value(), stats.shared_hits);
  EXPECT_EQ(reg.counter("crowd.micro_dollars_spent").Value(),
            stats.micro_dollars_spent);
  EXPECT_EQ(reg.counter("crowd.ticks").Value(), stats.ticks);
  EXPECT_EQ(reg.counter("crowd.leases_granted").Value(), stats.leases_granted);
  EXPECT_EQ(reg.counter("crowd.no_shows").Value(), stats.no_shows);
  EXPECT_EQ(reg.counter("crowd.abandons").Value(), stats.abandons);
  EXPECT_EQ(reg.counter("crowd.expiries").Value(), stats.expiries);
  EXPECT_EQ(reg.counter("crowd.reposts").Value(), stats.reposts);
  EXPECT_EQ(reg.counter("crowd.dead_lettered").Value(), stats.dead_lettered);
  EXPECT_EQ(reg.counter("crowd.late_answers").Value(), stats.late_answers);
  EXPECT_EQ(reg.counter("crowd.duplicates").Value(), stats.duplicates);

  // Each ExecuteRound emits exactly one crowd.round span over the tick clock.
  ASSERT_EQ(tracer.num_spans(), 1u);
  const TraceSpan span = tracer.Spans()[0];
  EXPECT_EQ(span.name, "crowd.round");
  EXPECT_EQ(span.tick_begin, 0);
  EXPECT_EQ(span.tick_end, stats.ticks);
}

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

// One seeded end-to-end run with fresh observability sinks; returns the two
// deterministic byte surfaces.
struct ObservedRun {
  std::string metrics_dump;
  std::string trace_json;
};

ObservedRun RunObserved(uint64_t seed, bool hostile, int threads) {
  MetricsRegistry registry;
  Tracer tracer;  // Deterministic mode: no wall durations recorded.
  SimCrowdConfig config;
  config.seed = seed;
  if (hostile) config.fault = HostileProfile();
  config.quality_control = true;
  config.cost_method = CostMethod::kSampling;
  config.num_threads = threads;
  config.metrics = &registry;
  config.tracer = &tracer;
  SimCrowdReport report = RunSimCrowd(config).value();
  EXPECT_TRUE(report.violations.empty());
  ObservedRun run;
  run.metrics_dump = MetricsDump(registry);
  run.trace_json = tracer.DumpJson();
  return run;
}

TEST(TraceDeterminismTest, MetricsAndTraceByteIdenticalAcrossThreads) {
  // The ISSUE's acceptance bar: seeded runs at 1 and 8 optimizer threads
  // (and reruns at each count) produce byte-identical metrics dumps and
  // tick-based traces, on both clean and hostile-fault schedules.
  for (bool hostile : {false, true}) {
    for (uint64_t seed : {1u, 7u, 13u}) {
      ObservedRun reference = RunObserved(seed, hostile, /*threads=*/1);
      EXPECT_FALSE(reference.metrics_dump.empty());
      EXPECT_FALSE(reference.trace_json.empty());
      for (int threads : {1, 8}) {
        for (int repeat = 0; repeat < 2; ++repeat) {
          if (threads == 1 && repeat == 0) continue;  // The reference itself.
          ObservedRun run = RunObserved(seed, hostile, threads);
          EXPECT_EQ(run.metrics_dump, reference.metrics_dump)
              << "seed " << seed << " hostile " << hostile << " threads "
              << threads;
          EXPECT_EQ(run.trace_json, reference.trace_json)
              << "seed " << seed << " hostile " << hostile << " threads "
              << threads;
        }
      }
    }
  }
}

TEST(TraceDeterminismTest, SessionPhasesAndRoundsAreInstrumented) {
  // Spot-check that the instrumentation actually fires end to end: phase
  // spans and session counters must be present after a hostile run.
  MetricsRegistry registry;
  Tracer tracer;
  SimCrowdConfig config;
  config.seed = 5;
  config.fault = HostileProfile();
  config.metrics = &registry;
  config.tracer = &tracer;
  SimCrowdReport report = RunSimCrowd(config).value();
  EXPECT_TRUE(report.violations.empty());
  const std::string dump = MetricsDump(registry);
  EXPECT_NE(dump.find("session.phase.publish.tasks="), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("session.rounds="), std::string::npos);
  EXPECT_NE(dump.find("crowd.leases_granted="), std::string::npos);
  EXPECT_NE(dump.find("session.round_size.count="), std::string::npos);
  EXPECT_GT(registry.counter("session.rounds").Value(), 0);
  bool saw_session_span = false;
  bool saw_crowd_span = false;
  for (const TraceSpan& span : tracer.Spans()) {
    if (span.category == "session") saw_session_span = true;
    if (span.name == "crowd.round") saw_crowd_span = true;
  }
  EXPECT_TRUE(saw_session_span);
  EXPECT_TRUE(saw_crowd_span);
}

TEST(TraceDeterminismTest, QualityControlEmitsEmMetrics) {
  MetricsRegistry registry;
  SimCrowdConfig config;
  config.seed = 9;
  config.quality_control = true;
  config.worker_quality_mean = 0.85;
  config.worker_quality_stddev = 0.05;
  config.metrics = &registry;
  SimCrowdReport report = RunSimCrowd(config).value();
  EXPECT_TRUE(report.violations.empty());
  EXPECT_GT(registry.counter("quality.em.runs").Value(), 0);
  EXPECT_GT(registry.counter("quality.em.iterations").Value(), 0);
  EXPECT_EQ(registry.histogram("quality.em.iterations_per_run").count(),
            registry.counter("quality.em.runs").Value());
}

ResolvedQuery ResolveQuery(const GeneratedDataset& dataset, const char* cql) {
  Statement stmt = ParseStatement(cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), dataset.catalog)
      .value();
}

// --- The registry is a view of the stats structs after every public call --

// Every counter of `table` under `prefix` equals its field of `stats`.
template <typename S, size_t N>
void ExpectView(MetricsRegistry& registry, const std::string& prefix,
                const StatField<S> (&table)[N], const S& stats,
                const std::string& where) {
  for (const StatField<S>& row : table) {
    EXPECT_EQ(registry.counter(prefix + row.name).Value(), stats.*row.field)
        << where << ": " << prefix << row.name;
  }
}

void ExpectSessionView(MetricsRegistry& registry, const ExecutionStats& stats,
                       const std::string& where) {
  ExpectView(registry, "session.", kSessionStatFields, stats, where);
  for (int p = 0; p < kNumSessionPhases; ++p) {
    ExpectView(registry,
               std::string("session.phase.") +
                   SessionPhaseName(static_cast<SessionPhase>(p)) + ".",
               kPhaseStatFields, stats.phases[static_cast<size_t>(p)], where);
  }
}

TEST(StatsMirrorTest, PublishAddsGrowthAndRebaseSkipsRestoredCounts) {
  MetricsRegistry registry;
  ServiceStats stats;
  StatsMirror<ServiceStats> mirror(&registry, "x.", kServiceStatFields);
  Counter& waves = registry.counter("x.waves");
  stats.waves = 3;
  EXPECT_EQ(waves.Value(), 0);  // Nothing moves before Publish().
  mirror.Publish(stats);
  EXPECT_EQ(waves.Value(), 3);
  mirror.Publish(stats);  // No growth, nothing added.
  EXPECT_EQ(waves.Value(), 3);
  // A second struct on the same registry adds to the same counter.
  ServiceStats other;
  StatsMirror<ServiceStats> other_mirror(&registry, "x.", kServiceStatFields);
  other.waves = 2;
  other_mirror.Publish(other);
  EXPECT_EQ(waves.Value(), 5);
  // A restored struct is rebased: only growth after the restore publishes.
  stats.waves = 10;
  mirror.Rebase(stats);
  ++stats.waves;
  mirror.Publish(stats);
  EXPECT_EQ(waves.Value(), 6);

  StatsMirror<ServiceStats> disabled(nullptr, "x.", kServiceStatFields);
  disabled.Publish(stats);
  disabled.Rebase(stats);
  EXPECT_EQ(waves.Value(), 6);
}

TEST(RegistryViewTest, PlatformAfterEveryCall) {
  MetricsRegistry registry;
  PlatformOptions options;
  options.redundancy = 3;
  options.num_workers = 25;
  options.fault = HostileProfile();
  options.metrics = &registry;
  CrowdPlatform platform(options, AlwaysYes());
  std::vector<Task> tasks;
  for (int i = 0; i < 15; ++i) tasks.push_back(YesNoTask(i));
  ASSERT_TRUE(platform.ExecuteRound(tasks).ok());
  ExpectView(registry, "crowd.", kPlatformStatFields, platform.stats(),
             "ExecuteRound");
  platform.AdvanceTicks(7);
  ExpectView(registry, "crowd.", kPlatformStatFields, platform.stats(),
             "AdvanceTicks");
  ASSERT_TRUE(platform.ExecuteRound(tasks).ok());
  ExpectView(registry, "crowd.", kPlatformStatFields, platform.stats(),
             "second ExecuteRound");

  // A clean round that runs out of progress fails part-way; what it
  // published and collected before failing is in the registry too.
  MetricsRegistry clean_registry;
  PlatformOptions clean;
  clean.redundancy = 3;
  clean.num_workers = 10;
  clean.metrics = &clean_registry;
  CrowdPlatform exhausted(clean, AlwaysYes());
  int calls = 0;
  AssignmentPolicy stalls = [&calls](const SimulatedWorker&,
                                     const std::vector<TaskId>& available,
                                     int) {
    std::vector<size_t> picks;
    if (++calls <= 3) picks.push_back(available.size() - 1);
    return picks;
  };
  Result<std::vector<Answer>> failed = exhausted.ExecuteRound(tasks, &stalls);
  ASSERT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(exhausted.stats().answers_collected, 0);
  ExpectView(clean_registry, "crowd.", kPlatformStatFields, exhausted.stats(),
             "failed ExecuteRound");
}

// Every Step() of a hostile CDB+ session, and of a session restored from
// each of its crash points: after Restore() (registry restored by its
// owner) and after every Step() that follows.
TEST(RegistryViewTest, SessionAfterEveryStepAndRestore) {
  GeneratedDataset dataset = MakeMiniPaperExample();
  ResolvedQuery query = ResolveQuery(dataset, kMiniExampleQuery);
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  ExecutorOptions base;
  base.platform.seed = 23;
  base.platform.worker_quality_mean = 0.85;
  base.platform.redundancy = 3;
  base.platform.fault = HostileProfile();
  base.quality_control = true;
  base.golden_tasks = 3;

  MetricsRegistry straight_registry;
  ExecutorOptions straight_options = base;
  straight_options.metrics = &straight_registry;
  QuerySession straight(&query, straight_options, truth);
  int64_t steps = 0;
  while (true) {
    Result<bool> more = straight.Step();
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ++steps;
    ExpectSessionView(straight_registry, straight.stats(),
                      "step " + std::to_string(steps));
    if (!more.value()) break;
  }
  ExpectView(straight_registry, "crowd.", kPlatformStatFields,
             straight.stats().platform, "finished");

  for (int64_t crash = 1; crash < steps; ++crash) {
    const std::string where = "crash=" + std::to_string(crash);
    std::string session_blob;
    std::string registry_blob;
    {
      MetricsRegistry registry;
      ExecutorOptions options = base;
      options.metrics = &registry;
      QuerySession session(&query, options, truth);
      for (int64_t s = 0; s < crash; ++s) ASSERT_TRUE(session.Step().ok());
      session_blob = session.Snapshot();
      registry_blob = registry.SerializeState();
    }
    MetricsRegistry registry;
    ExecutorOptions options = base;
    options.metrics = &registry;
    QuerySession resumed(&query, options, truth);
    ASSERT_TRUE(registry.RestoreState(registry_blob).ok()) << where;
    ASSERT_TRUE(resumed.Restore(session_blob).ok()) << where;
    ExpectSessionView(registry, resumed.stats(), where + " Restore");
    for (int64_t s = crash; s < steps; ++s) {
      Result<bool> more = resumed.Step();
      ASSERT_TRUE(more.ok()) << where << ": " << more.status().ToString();
      ExpectSessionView(registry, resumed.stats(),
                        where + " step " + std::to_string(s + 1));
    }
    ASSERT_TRUE(resumed.done()) << where;
    ExpectView(registry, "crowd.", kPlatformStatFields,
               resumed.stats().platform, where + " finished");
  }
}

// A scheduler-mode session driven by hand: the merge barrier's two calls
// into the session, DeliverAnswers() and RecordDedupSavings(), publish
// before they return.
TEST(RegistryViewTest, SessionAfterDeliverAnswersAndDedupSavings) {
  class PlatformChannel : public TaskPublisher {
   public:
    explicit PlatformChannel(CrowdPlatform* platform) : platform_(platform) {}
    Result<std::vector<Answer>> Publish(const std::vector<Task>& tasks,
                                        const AssignmentPolicy*,
                                        const AnswerObserver*) override {
      return platform_->ExecuteRound(tasks);
    }
    std::vector<Answer> TakeLateAnswers() override {
      return platform_->TakeLateAnswers();
    }
    std::vector<TaskId> TakeDeadLetters() override {
      return platform_->TakeDeadLetters();
    }
    void AdvanceTicks(int64_t ticks) override {
      platform_->AdvanceTicks(ticks);
    }
    int effective_redundancy() const override {
      return platform_->options().redundancy;
    }
    PlatformStats stats() const override { return platform_->stats(); }

   private:
    CrowdPlatform* platform_;
  };

  GeneratedDataset dataset = MakeMiniPaperExample();
  ResolvedQuery query = ResolveQuery(dataset, kMiniExampleQuery);
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  MetricsRegistry registry;
  const QuerySession* session_ptr = nullptr;
  PlatformOptions platform_options;
  platform_options.redundancy = 3;
  platform_options.fault = HostileProfile();
  platform_options.metrics = &registry;
  CrowdPlatform platform(platform_options, [&session_ptr](const Task& task) {
    return session_ptr->TaskTruthFor(task);
  });
  PlatformChannel channel(&platform);
  ExecutorOptions options;
  options.quality_control = true;
  options.golden_tasks = 2;
  options.metrics = &registry;
  QuerySession session(&query, options, truth, &channel);
  session_ptr = &session;

  int64_t deliveries = 0;
  while (!session.done()) {
    if (session.waiting_for_answers()) {
      Result<std::vector<Answer>> answers =
          platform.ExecuteRound(session.pending_tasks());
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      session.DeliverAnswers(answers.value());
      ++deliveries;
      ExpectSessionView(registry, session.stats(),
                        "DeliverAnswers " + std::to_string(deliveries));
      session.RecordDedupSavings(2);
      ExpectSessionView(registry, session.stats(),
                        "RecordDedupSavings " + std::to_string(deliveries));
      continue;
    }
    ASSERT_TRUE(session.Step().ok());
    ExpectSessionView(registry, session.stats(), "Step");
  }
  EXPECT_GT(deliveries, 0);
  ExpectView(registry, "crowd.", kPlatformStatFields, platform.stats(),
             "finished");
}

// RunAll publishes MultiQueryStats before it returns, on success and on an
// error return.
TEST(RegistryViewTest, SchedulerAfterRunAll) {
  GeneratedDataset dataset = MakeMiniPaperExample();
  ResolvedQuery query = ResolveQuery(dataset, kMiniExampleQuery);
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  MetricsRegistry registry;
  MultiQueryOptions mq;
  mq.platform.redundancy = 3;
  mq.platform.fault = HostileProfile();
  mq.global_budget = 12;
  mq.metrics = &registry;
  MultiQueryScheduler scheduler(mq);
  ExecutorOptions quality;
  quality.quality_control = true;
  quality.golden_tasks = 2;
  scheduler.AddQuery(&query, ExecutorOptions{}, truth);
  scheduler.AddQuery(&query, quality, truth);
  Result<std::vector<ExecutionResult>> results = scheduler.RunAll();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_GT(scheduler.stats().budget_denied, 0);
  ExpectView(registry, "scheduler.", kSchedulerStatFields, scheduler.stats(),
             "RunAll");
  ExpectView(registry, "crowd.", kPlatformStatFields,
             scheduler.platform_stats(), "RunAll");
  ExecutionStats sum;
  for (const ExecutionResult& result : results.value()) {
    for (const StatField<ExecutionStats>& row : kSessionStatFields) {
      sum.*row.field += result.stats.*row.field;
    }
    for (size_t p = 0; p < sum.phases.size(); ++p) {
      for (const StatField<PhaseCounters>& row : kPhaseStatFields) {
        sum.phases[p].*row.field += result.stats.phases[p].*row.field;
      }
    }
  }
  ExpectSessionView(registry, sum, "RunAll");

  // An unsatisfiable fault profile fails the first merged round, after the
  // barrier counted the sessions' asks.
  MetricsRegistry failing_registry;
  MultiQueryOptions broken = mq;
  broken.platform.fault = FaultProfile{};
  broken.platform.fault.abandon_prob = 0.5;
  broken.metrics = &failing_registry;
  MultiQueryScheduler failing(broken);
  failing.AddQuery(&query, ExecutorOptions{}, truth);
  Result<std::vector<ExecutionResult>> failed = failing.RunAll();
  ASSERT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_GT(failing.stats().tasks_requested, 0);
  ExpectView(failing_registry, "scheduler.", kSchedulerStatFields,
             failing.stats(), "failed RunAll");
}

TEST(RegistryViewTest, ServiceAfterEveryCall) {
  GeneratedDataset dataset = MakeMiniPaperExample();
  ResolvedQuery query = ResolveQuery(dataset, kMiniExampleQuery);
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  MetricsRegistry registry;
  ServiceOptions service_options;
  service_options.max_pending = 2;
  service_options.tenant_budget = 2;
  service_options.metrics = &registry;
  CdbService service(service_options);
  auto expect_view = [&](const std::string& where) {
    ExpectView(registry, "service.", kServiceStatFields, service.stats(),
               where);
  };
  ExecutorOptions options;
  options.platform.redundancy = 3;
  ASSERT_TRUE(service.Submit("alice", &query, options, truth).ok());
  expect_view("accepted Submit");
  ASSERT_TRUE(service.Submit("alice", &query, options, truth).ok());
  EXPECT_EQ(service.Submit("bob", &query, options, truth).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_queue, 1);
  expect_view("queue-full Submit");
  service.StepWave();
  expect_view("first StepWave");
  EXPECT_EQ(service.Submit("alice", &query, options, truth).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_budget, 1);
  expect_view("over-budget Submit");
  ASSERT_TRUE(service.Submit("bob", &query, options, truth).ok());
  for (int wave = 0; wave < 4; ++wave) {
    service.StepWave();
    expect_view("StepWave " + std::to_string(wave));
  }
  ASSERT_FALSE(service.CheckpointAll().empty());
  expect_view("CheckpointAll");
  while (service.HasWork()) {
    service.StepWave();
    expect_view("draining StepWave");
  }
  EXPECT_EQ(service.stats().completed, 3);
}

// --- Registry goldens ---------------------------------------------------
//
// FNV-1a digests of whole MetricsDump() texts, recorded while every stats
// increment still bumped its registry counter in place. The registry is now
// published from the stats structs when control leaves a layer; these pin
// that the published dump did not move by one byte: every name, every value,
// and no name added or dropped.

uint64_t DumpDigest(const MetricsRegistry& registry) {
  testing_util::BitDigest digest;
  digest.Add(MetricsDump(registry));
  return digest.value();
}

std::string Hex(uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64 "ULL", v);
  return buffer;
}

// {clean, hostile} x {CDB, CDB+} x {Eq.-1, MinCut} x {propagation off, on}
// x seeds {1, 2}, in that nesting order.
TEST(MetricsGoldenTest, SimCrowdMatrixDumpsHold) {
  const uint64_t kWant[32] = {
      0xdf14fbb6253c2428ULL, 0xcbd0f54879134d2bULL,
      0xdf14fbb6253c2428ULL, 0xcbd0f54879134d2bULL,
      0x61be1ccb9b0e5f88ULL, 0xdf14fbb6253c2428ULL,
      0x61be1ccb9b0e5f88ULL, 0xdf14fbb6253c2428ULL,
      0xf6ddcfc5dc08db1dULL, 0x4cde6242463d9b1eULL,
      0xf6ddcfc5dc08db1dULL, 0x4cde6242463d9b1eULL,
      0x5e7bd00a49340a92ULL, 0xa7f1836acf1779d9ULL,
      0x5e7bd00a49340a92ULL, 0xa7f1836acf1779d9ULL,
      0xa338c33e4dede5bbULL, 0x5bdc5a23132bf196ULL,
      0xa338c33e4dede5bbULL, 0x5bdc5a23132bf196ULL,
      0xe3f98fe31f7f3970ULL, 0x786b555ec8d6f586ULL,
      0xe3f98fe31f7f3970ULL, 0x786b555ec8d6f586ULL,
      0xb9699e1f4de11266ULL, 0xed90678cf4131ffaULL,
      0xb9699e1f4de11266ULL, 0xed90678cf4131ffaULL,
      0x0a954810b6bac482ULL, 0xfed50f21d31bca97ULL,
      0x0a954810b6bac482ULL, 0xfed50f21d31bca97ULL,
  };
  size_t i = 0;
  for (bool hostile : {false, true}) {
    for (bool quality_control : {false, true}) {
      for (CostMethod method :
           {CostMethod::kExpectation, CostMethod::kSampling}) {
        for (bool propagate : {false, true}) {
          for (uint64_t seed : {1u, 2u}) {
            MetricsRegistry registry;
            Tracer tracer;
            SimCrowdConfig config;
            config.seed = seed;
            if (hostile) config.fault = HostileProfile();
            config.worker_quality_mean = 0.8;
            config.worker_quality_stddev = 0.1;
            config.quality_control = quality_control;
            config.cost_method = method;
            config.propagation.enabled = propagate;
            config.metrics = &registry;
            config.tracer = &tracer;
            SimCrowdReport report = RunSimCrowd(config).value();
            EXPECT_TRUE(report.violations.empty());
            EXPECT_EQ(Hex(DumpDigest(registry)), Hex(kWant[i]))
                << "run " << i << ": hostile=" << hostile
                << " qc=" << quality_control
                << " sampling=" << (method == CostMethod::kSampling)
                << " propagate=" << propagate << " seed=" << seed;
            ++i;
          }
        }
      }
    }
  }
}

// Three award queries on one shared market under a global budget that
// denies asks, with answer propagation on: the scheduler.*, session.* and
// crowd.* namespaces together. The hostile market is straggler-heavy, so
// deduced colors invalidate and cancel shared fan-out as well.
TEST(MetricsGoldenTest, SchedulerDumpsHold) {
  const uint64_t kWant[2] = {0xaa447c91a04f0349ULL, 0x5a9672feb12777efULL};
  AwardDatasetOptions dataset_options;
  dataset_options.scale = 0.1;
  GeneratedDataset dataset = GenerateAwardDataset(dataset_options);
  ResolvedQuery two_join = ResolveQuery(dataset, AwardQueries()[0].cql.c_str());
  ResolvedQuery with_selection =
      ResolveQuery(dataset, AwardQueries()[1].cql.c_str());
  EdgeTruthFn two_join_truth = MakeEdgeTruth(&dataset, &two_join);
  EdgeTruthFn selection_truth = MakeEdgeTruth(&dataset, &with_selection);
  size_t i = 0;
  for (bool hostile : {false, true}) {
    MetricsRegistry registry;
    MultiQueryOptions mq;
    mq.platform.seed = 19;
    mq.platform.worker_quality_mean = 0.85;
    mq.platform.redundancy = 3;
    if (hostile) {
      mq.platform.fault.straggler_prob = 0.5;
      mq.platform.fault.straggler_delay_ticks = 40;
      mq.platform.fault.task_deadline_ticks = 3;
      mq.platform.fault.max_task_expiries = 1;
    }
    mq.global_budget = 2000;
    mq.metrics = &registry;
    MultiQueryScheduler scheduler(mq);
    ExecutorOptions propagating;
    propagating.propagation.enabled = true;
    propagating.retry.enabled = false;
    ExecutorOptions quality = propagating;
    quality.quality_control = true;
    quality.golden_tasks = 3;
    scheduler.AddQuery(&two_join, propagating, two_join_truth);
    scheduler.AddQuery(&two_join, quality, two_join_truth);
    scheduler.AddQuery(&with_selection, ExecutorOptions{}, selection_truth);
    Result<std::vector<ExecutionResult>> results = scheduler.RunAll();
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_GT(scheduler.stats().budget_denied, 0);
    EXPECT_EQ(Hex(DumpDigest(registry)), Hex(kWant[i]))
        << "hostile=" << hostile;
    ++i;
  }
}

// Thirty submissions from three tenants into a service that refuses some
// (queue full, tenant budget), checkpoints every two waves and crashes; a
// second service sharing the registry rebuilds the checkpointed sessions
// and drains them. The checkpoint bytes are pinned next to the dump; both
// are the same at 1 and 4 wave threads.
TEST(MetricsGoldenTest, ServiceCrashRebuildDumpsHold) {
  constexpr uint64_t kWantDump = 0x72b994275e13497bULL;
  constexpr uint64_t kWantCheckpoint = 0xa21272a6cc3849e7ULL;
  GeneratedDataset dataset = MakeMiniPaperExample();
  ResolvedQuery query = ResolveQuery(dataset, kMiniExampleQuery);
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  auto options_for = [](int i, MetricsRegistry* registry) {
    ExecutorOptions options;
    options.platform.seed = 900 + static_cast<uint64_t>(i);
    options.platform.worker_quality_mean = 0.85;
    options.platform.redundancy = 3;
    if (i % 2 == 1) options.platform.fault = HostileProfile();
    if (i % 3 == 2) options.quality_control = true;
    if (i % 5 == 4) options.propagation.enabled = true;
    if (i % 7 == 6) options.budget = 12;
    options.metrics = registry;
    return options;
  };
  const char* tenants[] = {"alice", "bob", "carol"};
  for (int threads : {1, 4}) {
    MetricsRegistry registry;
    ServiceOptions service_options;
    service_options.max_pending = 4;
    service_options.max_live_sessions = 12;
    service_options.tenant_budget = 12;
    service_options.checkpoint_interval = 2;
    service_options.num_threads = threads;
    service_options.metrics = &registry;
    std::map<int64_t, int> index_of;
    std::map<int64_t, std::string> bundle;
    {
      CdbService crashed(service_options);
      int next = 0;
      for (int wave = 0; wave < 20; ++wave) {
        for (int k = 0; k < 3 && next < 30; ++k, ++next) {
          Result<int64_t> id = crashed.Submit(tenants[next % 3], &query,
                                              options_for(next, &registry),
                                              truth);
          if (id.ok()) index_of[id.value()] = next;
        }
        crashed.StepWave();
      }
      bundle = crashed.last_checkpoint();
      ASSERT_FALSE(bundle.empty());
      const ServiceStats stats = crashed.stats();
      EXPECT_GT(stats.rejected_queue, 0);
      EXPECT_GT(stats.rejected_budget, 0);
    }
    testing_util::BitDigest checkpoint;
    for (const auto& [id, blob] : bundle) {
      checkpoint.Add(id);
      checkpoint.Add(blob);
    }
    ServiceOptions rebuilt_options = service_options;
    rebuilt_options.max_pending = 64;
    rebuilt_options.tenant_budget.reset();
    CdbService rebuilt(rebuilt_options);
    for (const auto& [id, blob] : bundle) {
      const int i = index_of.at(id);
      ASSERT_TRUE(rebuilt
                      .SubmitRestored(tenants[i % 3], &query,
                                      options_for(i, &registry), truth, blob)
                      .ok());
    }
    rebuilt.RunUntilDrained();
    EXPECT_EQ(rebuilt.stats().failed, 0);
    EXPECT_EQ(Hex(DumpDigest(registry)), Hex(kWantDump))
        << "threads=" << threads;
    EXPECT_EQ(Hex(checkpoint.value()), Hex(kWantCheckpoint))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace cdb
