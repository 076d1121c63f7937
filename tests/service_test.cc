// The service-layer contract: (1) restore-then-run is byte-identical to
// run-straight-through at EVERY crash point — for each phase boundary the
// sweep snapshots the session and registry, destroys both, rehydrates fresh
// ones, runs to completion, and compares edge colors, MetricsDump, and the
// full stats signature (PlatformStatsDump included) against the
// uninterrupted run, clean and under a hostile FaultProfile, on one market
// and on two, with MinCut and in budget mode, at 1 and 8 threads, and
// digests pin every snapshot byte of six such runs and each run's final
// registry blob; (2) CdbService admits asynchronously with typed
// backpressure (bounded queue, per-tenant budgets), steps thousands of
// sessions deterministically at any thread count, and checkpoints live
// sessions such that a rebuilt service finishes them byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/metrics.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "exec/service.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

ResolvedQuery Resolve(const GeneratedDataset& ds, const std::string& cql) {
  Statement stmt = ParseStatement(cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), ds.catalog).value();
}

// Everything the session reports, as one comparable byte string (the same
// signature session_test.cc compares against RunToCompletion()).
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

ExecutorOptions CleanCrowd(uint64_t seed, int threads) {
  ExecutorOptions options;
  options.platform.worker_quality_mean = 0.85;
  options.platform.redundancy = 3;
  options.platform.seed = seed;
  options.num_threads = threads;
  options.graph.num_threads = threads;
  return options;
}

ExecutorOptions HostileCrowd(uint64_t seed, int threads) {
  ExecutorOptions options = CleanCrowd(seed, threads);
  FaultProfile& fault = options.platform.fault;
  fault.abandon_prob = 0.25;
  fault.straggler_prob = 0.2;
  fault.straggler_delay_ticks = 6;
  fault.duplicate_prob = 0.1;
  fault.no_show_prob = 0.15;
  fault.task_deadline_ticks = 8;
  return options;
}

// Quality control + golden warm-up: populates every quality-control snapshot
// section (observations, worker qualities, posteriors, golden answers).
ExecutorOptions WithQualityControl(ExecutorOptions options) {
  options.quality_control = true;
  options.golden_tasks = 4;
  return options;
}

// MinCut (Section 4.2): the sampled order fills the snapshot's
// sampling-order section, which the expectation configs leave empty.
ExecutorOptions WithMinCut(ExecutorOptions options) {
  options.cost_method = CostMethod::kSampling;
  return options;
}

// Budget-aware mode (Section 5.1.3): every published task and requester
// repost is a ledger debit, so the blob carries a non-zero budget spend.
ExecutorOptions WithBudget(ExecutorOptions options, int64_t budget) {
  options.budget = budget;
  return options;
}

// Cross-market deployment (Section 2.2): `options.platform` plus a
// platform-controlled second market with its own seed, so the blob carries
// two platform states and the answers carry offset worker ids.
ExecutorOptions TwoMarkets(ExecutorOptions options) {
  PlatformOptions flower = options.platform;
  flower.market_name = "SimCrowdFlower";
  flower.requester_controls_assignment = false;
  flower.seed = options.platform.seed + 1;
  options.markets = {options.platform, flower};
  return options;
}

// `payload` (a blob without its checksum trailer) sealed with a recomputed
// checksum: how a hand-edited or hostile file gets past the checksum.
std::string Reseal(const std::string& payload) {
  ByteWriter checksum;
  (void)checksum(SnapshotChecksum(payload));
  return payload + checksum.data();
}

// `blob` with `bytes` written over it at `at`, resealed.
std::string Patched(const std::string& blob, size_t at,
                    const std::string& bytes) {
  std::string payload = blob.substr(0, blob.size() - sizeof(uint64_t));
  payload.replace(at, bytes.size(), bytes);
  return Reseal(payload);
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : dataset_(MakeMiniPaperExample()),
        query_(Resolve(dataset_, kMiniExampleQuery)),
        truth_(MakeEdgeTruth(&dataset_, &query_)) {}

  GeneratedDataset dataset_;
  ResolvedQuery query_;
  EdgeTruthFn truth_;
};

// One complete run's comparable artifacts.
struct RunArtifacts {
  std::string colors;
  std::string stats_signature;  // Includes PlatformStatsDump.
  std::string metrics_dump;
  std::vector<QueryAnswer> answers;
  int64_t steps = 0;
};

RunArtifacts FinishAndCollect(QuerySession& session,
                              const MetricsRegistry& registry,
                              int64_t steps_so_far) {
  RunArtifacts artifacts;
  artifacts.steps = steps_so_far;
  while (true) {
    Result<bool> more = session.Step();
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    ++artifacts.steps;
    if (!more.value()) break;
  }
  EXPECT_TRUE(session.done());
  ExecutionResult result = session.TakeResult();
  artifacts.colors = ColorDump(session.graph());
  artifacts.stats_signature = StatsSignature(result.stats);
  artifacts.metrics_dump = MetricsDump(registry);
  artifacts.answers = result.answers;
  return artifacts;
}

// The tentpole invariant: for every crash point k, running k steps,
// snapshotting session + registry, destroying both, and rehydrating into
// fresh objects finishes byte-identically to never having crashed.
void CrashPointSweep(const ResolvedQuery* query, const ExecutorOptions& base,
                     const EdgeTruthFn& truth, const std::string& tag) {
  ExecutorOptions options = base;
  MetricsRegistry straight_registry;
  options.metrics = &straight_registry;
  QuerySession straight(query, options, truth);
  const RunArtifacts baseline =
      FinishAndCollect(straight, straight_registry, 0);
  ASSERT_GT(baseline.steps, 2) << tag;

  for (int64_t crash = 0; crash < baseline.steps; ++crash) {
    std::string session_blob;
    std::string registry_blob;
    {
      MetricsRegistry registry;
      ExecutorOptions crash_options = base;
      crash_options.metrics = &registry;
      QuerySession session(query, crash_options, truth);
      for (int64_t s = 0; s < crash; ++s) {
        Result<bool> more = session.Step();
        ASSERT_TRUE(more.ok()) << tag << " crash=" << crash << ": "
                               << more.status().ToString();
        ASSERT_TRUE(more.value());
      }
      session_blob = session.Snapshot();
      registry_blob = registry.SerializeState();
      // Session, platform, and registry all die here — the "crash".
    }

    MetricsRegistry registry;
    ExecutorOptions resume_options = base;
    resume_options.metrics = &registry;
    // Construction first (it re-registers handles and bumps construction-
    // time platform counters), then the registry restore zeroes and rewinds
    // everything to the crash point, then the session rehydrates.
    QuerySession resumed(query, resume_options, truth);
    Status registry_restored = registry.RestoreState(registry_blob);
    ASSERT_TRUE(registry_restored.ok())
        << tag << " crash=" << crash << ": " << registry_restored.ToString();
    Status session_restored = resumed.Restore(session_blob);
    ASSERT_TRUE(session_restored.ok())
        << tag << " crash=" << crash << ": " << session_restored.ToString();

    const RunArtifacts rerun = FinishAndCollect(resumed, registry, crash);
    EXPECT_EQ(baseline.colors, rerun.colors) << tag << " crash=" << crash;
    EXPECT_EQ(baseline.stats_signature, rerun.stats_signature)
        << tag << " crash=" << crash;
    EXPECT_EQ(baseline.metrics_dump, rerun.metrics_dump)
        << tag << " crash=" << crash;
    EXPECT_EQ(baseline.answers, rerun.answers) << tag << " crash=" << crash;
    EXPECT_EQ(baseline.steps, rerun.steps) << tag << " crash=" << crash;
  }
}

TEST_F(ServiceTest, CrashPointResumeSweepCleanCrowd) {
  for (int threads : {1, 8}) {
    CrashPointSweep(&query_, CleanCrowd(31, threads), truth_,
                    "clean threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceTest, CrashPointResumeSweepHostileCrowd) {
  for (int threads : {1, 8}) {
    CrashPointSweep(&query_, HostileCrowd(31, threads), truth_,
                    "hostile threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceTest, CrashPointResumeSweepQualityControlClean) {
  for (int threads : {1, 8}) {
    CrashPointSweep(&query_, WithQualityControl(CleanCrowd(32, threads)),
                    truth_, "qc-clean threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceTest, CrashPointResumeSweepQualityControlHostile) {
  for (int threads : {1, 8}) {
    CrashPointSweep(&query_, WithQualityControl(HostileCrowd(32, threads)),
                    truth_, "qc-hostile threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceTest, CrashPointResumeSweepTwoMarketsClean) {
  for (int threads : {1, 8}) {
    CrashPointSweep(&query_, TwoMarkets(CleanCrowd(33, threads)), truth_,
                    "two-market clean threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceTest, CrashPointResumeSweepTwoMarketsHostile) {
  for (int threads : {1, 8}) {
    CrashPointSweep(&query_, TwoMarkets(HostileCrowd(33, threads)), truth_,
                    "two-market hostile threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceTest, CrashPointResumeSweepMinCut) {
  for (int threads : {1, 8}) {
    CrashPointSweep(&query_, WithMinCut(CleanCrowd(37, threads)), truth_,
                    "mincut threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceTest, CrashPointResumeSweepBudgetHostile) {
  for (int threads : {1, 8}) {
    CrashPointSweep(&query_, WithBudget(HostileCrowd(38, threads), 6), truth_,
                    "budget hostile threads=" + std::to_string(threads));
  }
}

// Every Snapshot() blob of six runs stepped to completion, digested with
// its length: one clean market; one hostile market whose retry policy finds
// dead letters pending at kCollect; CDB+ with golden tasks and answer
// propagation; two hostile markets; MinCut, whose blobs carry a sampling
// order; one hostile market in budget mode, whose blobs carry a budget
// spend. A second digest pins the registry's SerializeState() blob after
// each run. Any moved checkpoint byte fails it, and the digests are the
// same at 1 and 8 threads.
TEST_F(ServiceTest, SnapshotDigestsHold) {
  ExecutorOptions dead_letters = HostileCrowd(34, 1);
  dead_letters.platform.fault.abandon_prob = 0.5;
  dead_letters.platform.fault.max_task_expiries = 1;
  ExecutorOptions cdb_plus = WithQualityControl(CleanCrowd(35, 1));
  cdb_plus.propagation.enabled = true;
  struct Config {
    const char* name;
    ExecutorOptions options;
    uint64_t want;
    uint64_t want_registry;
  };
  const Config configs[] = {
      {"one clean market", CleanCrowd(34, 1), 0x01de5c53e6649eadULL,
       0x715a0838432047d2ULL},
      {"one hostile market, dead letters", dead_letters,
       0x28fa01025d3c816dULL, 0x1cca257f9c076c5dULL},
      {"cdb+ golden propagation", cdb_plus, 0xa9648aa525a21dfbULL,
       0x0e7e66ac6c991b6cULL},
      {"two hostile markets", TwoMarkets(HostileCrowd(36, 1)),
       0x98ed0d85ac064875ULL, 0x1fb64991b33432d1ULL},
      {"mincut", WithMinCut(CleanCrowd(37, 1)), 0xdd93d4a280bf58a7ULL,
       0x7227d177113ae4daULL},
      {"one hostile market, budget", WithBudget(HostileCrowd(38, 1), 6),
       0x9ce971d1348a964bULL, 0xd4011b0ad858bb58ULL},
  };
  auto add_blob = [](testing_util::BitDigest& digest,
                     const std::string& blob) {
    digest.Add(static_cast<int64_t>(blob.size()));
    digest.Add(blob);
  };
  for (const Config& config : configs) {
    for (int threads : {1, 8}) {
      MetricsRegistry registry;
      ExecutorOptions options = config.options;
      options.num_threads = threads;
      options.graph.num_threads = threads;
      options.metrics = &registry;
      QuerySession session(&query_, options, truth_);
      testing_util::BitDigest digest;
      Counter& dead_lettered = registry.counter("crowd.dead_lettered");
      bool dead_letters_pending_at_collect = false;
      add_blob(digest, session.Snapshot());
      while (true) {
        const SessionPhase entry = session.phase();
        const int64_t dead_before = dead_lettered.Value();
        Result<bool> more = session.Step();
        ASSERT_TRUE(more.ok()) << config.name << ": "
                               << more.status().ToString();
        if (entry == SessionPhase::kPublish &&
            dead_lettered.Value() > dead_before) {
          dead_letters_pending_at_collect = true;
        }
        add_blob(digest, session.Snapshot());
        if (!more.value()) break;
      }
      if (&config == &configs[1]) {
        EXPECT_TRUE(dead_letters_pending_at_collect) << config.name;
      }
      EXPECT_EQ(digest.value(), config.want)
          << config.name << " threads=" << threads << ": got 0x" << std::hex
          << digest.value();
      testing_util::BitDigest registry_digest;
      add_blob(registry_digest, registry.SerializeState());
      EXPECT_EQ(registry_digest.value(), config.want_registry)
          << config.name << " threads=" << threads << ": registry got 0x"
          << std::hex << registry_digest.value();
    }
  }
}

// --- CdbService: admission, fairness, determinism, checkpointing ---

TEST_F(ServiceTest, ServiceRunsManySessionsToCompletion) {
  ServiceOptions service_options;
  service_options.max_live_sessions = 16;
  service_options.max_pending = 64;
  CdbService service(service_options);

  const char* tenants[] = {"alice", "bob", "carol"};
  std::map<int64_t, uint64_t> seed_of;
  for (int i = 0; i < 24; ++i) {
    Result<int64_t> id = service.Submit(tenants[i % 3], &query_,
                                        CleanCrowd(100 + i, 1), truth_);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    seed_of[id.value()] = 100 + i;
  }
  service.RunUntilDrained();
  EXPECT_FALSE(service.HasWork());
  EXPECT_EQ(service.stats().completed, 24);
  EXPECT_EQ(service.stats().failed, 0);

  // Every serviced query finishes exactly as it would standalone.
  for (const auto& [id, seed] : seed_of) {
    Result<ExecutionResult> from_service = service.TakeResult(id);
    ASSERT_TRUE(from_service.ok()) << from_service.status().ToString();
    QuerySession standalone(&query_, CleanCrowd(seed, 1), truth_);
    ExecutionResult expected = standalone.RunToCompletion().value();
    EXPECT_EQ(StatsSignature(expected.stats),
              StatsSignature(from_service.value().stats))
        << "seed=" << seed;
    EXPECT_EQ(expected.answers, from_service.value().answers);
  }
  // Draining: a second take is a typed miss.
  EXPECT_EQ(service.TakeResult(1).status().code(), StatusCode::kNotFound);
}

TEST_F(ServiceTest, AdmissionControlBoundedQueueRejectsTyped) {
  ServiceOptions service_options;
  service_options.max_live_sessions = 4;
  service_options.max_pending = 3;
  CdbService service(service_options);

  int rejected = 0;
  for (int i = 0; i < 8; ++i) {
    Result<int64_t> id =
        service.Submit("alice", &query_, CleanCrowd(200 + i, 1), truth_);
    if (!id.ok()) {
      EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 5);  // 3 queued, the rest pushed back.
  EXPECT_EQ(service.stats().rejected_queue, 5);
  // Backpressure is not terminal: after a wave drains the queue into the
  // live set, submits are accepted again.
  EXPECT_GT(service.StepWave(), 0);
  EXPECT_TRUE(
      service.Submit("alice", &query_, CleanCrowd(299, 1), truth_).ok());
  service.RunUntilDrained();
  EXPECT_EQ(service.stats().completed, 4);
}

TEST_F(ServiceTest, AdmissionControlTenantBudgetIsPerTenant) {
  ServiceOptions service_options;
  service_options.tenant_budget = 2;  // Two unit-cost queries per tenant.
  CdbService service(service_options);

  EXPECT_TRUE(service.Submit("alice", &query_, CleanCrowd(1, 1), truth_).ok());
  EXPECT_TRUE(service.Submit("alice", &query_, CleanCrowd(2, 1), truth_).ok());
  Result<int64_t> third =
      service.Submit("alice", &query_, CleanCrowd(3, 1), truth_);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // One tenant exhausting its share does not starve another.
  EXPECT_TRUE(service.Submit("bob", &query_, CleanCrowd(4, 1), truth_).ok());
  EXPECT_EQ(service.stats().rejected_budget, 1);

  // A query declaring a budget is charged that budget, all-or-nothing.
  ExecutorOptions expensive = CleanCrowd(5, 1);
  expensive.budget = 99;
  Result<int64_t> over = service.Submit("bob", &query_, expensive, truth_);
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(service.Submit("bob", &query_, CleanCrowd(6, 1), truth_).ok());

  service.RunUntilDrained();
  EXPECT_EQ(service.stats().completed, 4);
}

TEST_F(ServiceTest, ServiceWavesDeterministicAcrossThreadCounts) {
  std::map<int, std::map<int64_t, std::string>> signatures_by_threads;
  std::map<int, std::string> metrics_by_threads;
  for (int threads : {1, 8}) {
    ServiceOptions service_options;
    service_options.num_threads = threads;
    MetricsRegistry registry;
    service_options.metrics = &registry;
    CdbService service(service_options);
    for (int i = 0; i < 12; ++i) {
      ExecutorOptions options =
          i % 2 == 0 ? CleanCrowd(300 + i, 1) : HostileCrowd(300 + i, 1);
      ASSERT_TRUE(
          service.Submit(i % 3 == 0 ? "alice" : "bob", &query_, options, truth_)
              .ok());
    }
    service.RunUntilDrained();
    for (int64_t id = 1; id <= 12; ++id) {
      Result<ExecutionResult> result = service.TakeResult(id);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      signatures_by_threads[threads][id] = StatsSignature(result.value().stats);
    }
    metrics_by_threads[threads] = MetricsDump(registry);
  }
  EXPECT_EQ(signatures_by_threads[1], signatures_by_threads[8]);
  // The registry folds commutative integer sums, so even the shared dump is
  // byte-identical across wave parallelism.
  EXPECT_EQ(metrics_by_threads[1], metrics_by_threads[8]);
}

TEST_F(ServiceTest, ServiceCheckpointRebuildFinishesByteIdentically) {
  ServiceOptions service_options;
  service_options.checkpoint_interval = 3;
  CdbService crashed(service_options);
  std::map<int64_t, uint64_t> seed_of;
  for (int i = 0; i < 6; ++i) {
    ExecutorOptions options = i % 2 == 0 ? CleanCrowd(400 + i, 1)
                                         : HostileCrowd(400 + i, 1);
    Result<int64_t> id = crashed.Submit("alice", &query_, options, truth_);
    ASSERT_TRUE(id.ok());
    seed_of[id.value()] = 400 + i;
  }
  // Part-way through, the periodic checkpoint fires; then the service dies.
  for (int wave = 0; wave < 9; ++wave) crashed.StepWave();
  ASSERT_GT(crashed.stats().checkpoints, 0);
  ASSERT_GT(crashed.stats().checkpoint_bytes, 0);
  const std::map<int64_t, std::string> bundle = crashed.last_checkpoint();
  ASSERT_FALSE(bundle.empty());

  // A fresh service rehydrates every checkpointed session and finishes each
  // one exactly as an uninterrupted standalone run would.
  CdbService rebuilt(ServiceOptions{});
  std::map<int64_t, int64_t> rebuilt_id_of;  // original id -> rebuilt id.
  for (const auto& [original_id, blob] : bundle) {
    ExecutorOptions options = seed_of.at(original_id) % 2 == 0
                                  ? CleanCrowd(seed_of.at(original_id), 1)
                                  : HostileCrowd(seed_of.at(original_id), 1);
    Result<int64_t> id =
        rebuilt.SubmitRestored("alice", &query_, options, truth_, blob);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    rebuilt_id_of[original_id] = id.value();
  }
  rebuilt.RunUntilDrained();
  EXPECT_EQ(rebuilt.stats().failed, 0);
  for (const auto& [original_id, rebuilt_id] : rebuilt_id_of) {
    Result<ExecutionResult> resumed = rebuilt.TakeResult(rebuilt_id);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    const uint64_t seed = seed_of.at(original_id);
    ExecutorOptions options =
        seed % 2 == 0 ? CleanCrowd(seed, 1) : HostileCrowd(seed, 1);
    QuerySession standalone(&query_, options, truth_);
    ExecutionResult expected = standalone.RunToCompletion().value();
    EXPECT_EQ(StatsSignature(expected.stats),
              StatsSignature(resumed.value().stats))
        << "seed=" << seed;
    EXPECT_EQ(expected.answers, resumed.value().answers);
  }
}

// Sessions in one service share each distinct crowd join: the registry
// counts the simjoin.* funnel once per distinct ε, not once per session, and
// every session still finishes exactly as it would standalone.
TEST_F(ServiceTest, ServiceSharesJoinsAcrossSessions) {
  constexpr double kOtherEpsilon = 0.5;
  auto options_for = [](int i) {
    ExecutorOptions options = CleanCrowd(700 + i, 1);
    if (i >= 12) options.graph.epsilon = kOtherEpsilon;
    return options;
  };
  // One standalone build per distinct ε.
  MetricsRegistry want;
  for (double epsilon : {GraphOptions{}.epsilon, kOtherEpsilon}) {
    GraphOptions graph_options;
    graph_options.epsilon = epsilon;
    graph_options.sim_metrics = &want;
    ASSERT_TRUE(QueryGraph::Build(query_, graph_options).ok());
  }
  ASSERT_GT(want.counter("simjoin.pairs").Value(), 0);

  for (int threads : {1, 8}) {
    MetricsRegistry registry;
    ServiceOptions service_options;
    service_options.num_threads = threads;
    service_options.metrics = &registry;
    CdbService service(service_options);
    std::map<int64_t, int> index_of;
    for (int i = 0; i < 15; ++i) {
      ExecutorOptions options = options_for(i);
      // Sessions report into the same registry, as in a deployment; a build
      // served by the cache adds nothing to its own sink.
      options.metrics = &registry;
      Result<int64_t> id = service.Submit(i % 2 == 0 ? "alice" : "bob",
                                          &query_, options, truth_);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      index_of[id.value()] = i;
    }
    service.RunUntilDrained();
    EXPECT_EQ(service.stats().completed, 15);
    for (const auto& [id, i] : index_of) {
      Result<ExecutionResult> from_service = service.TakeResult(id);
      ASSERT_TRUE(from_service.ok()) << from_service.status().ToString();
      QuerySession standalone(&query_, options_for(i), truth_);
      ExecutionResult expected = standalone.RunToCompletion().value();
      EXPECT_EQ(StatsSignature(expected.stats),
                StatsSignature(from_service.value().stats))
          << "session " << i << " threads=" << threads;
      EXPECT_EQ(expected.answers, from_service.value().answers)
          << "session " << i << " threads=" << threads;
    }
    for (const char* name :
         {"simjoin.candidates", "simjoin.position_rejects",
          "simjoin.signature_rejects", "simjoin.verified", "simjoin.pairs"}) {
      EXPECT_EQ(registry.counter(name).Value(), want.counter(name).Value())
          << name << " threads=" << threads;
    }
  }
}

// A cap below 1 could never admit anything: Submit refuses up front instead
// of queueing a query that RunUntilDrained() would wait on forever.
TEST_F(ServiceTest, UnusableCapsAreInvalidArgument) {
  for (const auto& [live, pending] :
       {std::pair{0, 256}, std::pair{1024, 0}, std::pair{-1, -1}}) {
    ServiceOptions service_options;
    service_options.max_live_sessions = live;
    service_options.max_pending = pending;
    CdbService service(service_options);
    Result<int64_t> fresh =
        service.Submit("alice", &query_, CleanCrowd(800, 1), truth_);
    EXPECT_EQ(fresh.status().code(), StatusCode::kInvalidArgument)
        << "live=" << live << " pending=" << pending;
    QuerySession donor(&query_, CleanCrowd(801, 1), truth_);
    ASSERT_TRUE(donor.Step().ok());
    Result<int64_t> restored = service.SubmitRestored(
        "alice", &query_, CleanCrowd(801, 1), truth_, donor.Snapshot());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << "live=" << live << " pending=" << pending;
    EXPECT_FALSE(service.HasWork());
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 0);
    EXPECT_EQ(stats.rejected_queue, 0);
    EXPECT_EQ(stats.rejected_budget, 0);
  }
}

// Submitters on several threads enqueue while the driver steps waves: every
// Submit is counted exactly once, and the service.* counters published from
// both sides of the admission lock equal the stats.
TEST_F(ServiceTest, ConcurrentSubmittersAreCountedOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  MetricsRegistry registry;
  ServiceOptions service_options;
  service_options.max_pending = 6;
  service_options.tenant_budget = 5;
  service_options.num_threads = 2;
  service_options.metrics = &registry;
  CdbService service(service_options);
  std::atomic<int> accepted{0};
  std::atomic<int> finished{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t seed = static_cast<uint64_t>(900 + t * kPerThread + i);
        if (service.Submit(t % 2 == 0 ? "alice" : "bob", &query_,
                           CleanCrowd(seed, 1), truth_)
                .ok()) {
          ++accepted;
        }
      }
      ++finished;
    });
  }
  while (finished.load() < kThreads) service.StepWave();
  for (std::thread& submitter : submitters) submitter.join();
  service.RunUntilDrained();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, accepted.load());
  EXPECT_EQ(stats.submitted + stats.rejected_queue + stats.rejected_budget,
            kThreads * kPerThread);
  EXPECT_EQ(stats.completed, stats.submitted);
  for (const StatField<ServiceStats>& row : kServiceStatFields) {
    EXPECT_EQ(registry.counter(std::string("service.") + row.name).Value(),
              stats.*row.field)
        << row.name;
  }
}

// A negative query cost or tenant budget is no budget at all: Submit refuses
// it typed, before the queue or any tenant ledger is touched, instead of
// aborting the whole service in the ledger's own precondition check.
TEST_F(ServiceTest, NegativeCostIsInvalidArgument) {
  ExecutorOptions negative_budget = CleanCrowd(810, 1);
  negative_budget.budget = -1;
  ServiceOptions negative_default;
  negative_default.default_query_cost = -1;
  ServiceOptions negative_tenant;
  negative_tenant.tenant_budget = -1;
  const std::vector<std::pair<ServiceOptions, ExecutorOptions>> cases = {
      {ServiceOptions{}, negative_budget},
      {negative_default, CleanCrowd(811, 1)},
      {negative_tenant, CleanCrowd(812, 1)},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    CdbService service(cases[i].first);
    Result<int64_t> id =
        service.Submit("alice", &query_, cases[i].second, truth_);
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument)
        << "case " << i;
    EXPECT_FALSE(service.HasWork()) << "case " << i;
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted + stats.rejected_queue + stats.rejected_budget,
              0)
        << "case " << i;
  }
}

// The snapshot's answers-received slot holds the sum of the phase answer
// counters. A blob whose slot disagrees with them — checksum recomputed, so
// nothing else catches it — is refused as kDataLoss.
TEST_F(ServiceTest, AnswersReceivedSlotMustMatchPhaseCounters) {
  const ExecutorOptions options = WithQualityControl(CleanCrowd(9, 1));
  QuerySession donor(&query_, options, truth_);
  ASSERT_TRUE(donor.Step().value());  // Build: the golden answers arrive.
  int64_t received = 0;
  for (const PhaseCounters& counters : donor.stats().phases) {
    received += counters.answers;
  }
  ASSERT_GT(received, 0);
  const std::string blob = donor.Snapshot();
  std::string payload = blob.substr(0, blob.size() - sizeof(uint64_t));
  ASSERT_EQ(Reseal(payload), blob);
  // The slot follows the empty inference posteriors and worker qualities,
  // and precedes the empty result-answer list.
  ByteWriter slot;
  (void)slot(uint32_t{0}, uint32_t{0}, received, uint32_t{0});
  const size_t at = payload.find(slot.data());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(payload.find(slot.data(), at + 1), std::string::npos);
  payload[at + 2 * sizeof(uint32_t)] ^= 0x01;
  QuerySession restored(&query_, options, truth_);
  EXPECT_EQ(restored.Restore(Reseal(payload)).code(), StatusCode::kDataLoss);
}

// Every answer is choice 0 or 1 of a yes/no task. A blob with another
// choice used to restore, and the next kInfer step read EM's posterior row
// out of bounds. Under expectation cost control the sampling-order count
// (0) follows the colors and provenance bytes; then come the observation
// count and the first observation (task i64, worker i32, choice i32).
TEST_F(ServiceTest, ObservationChoiceMustBeZeroOrOne) {
  const ExecutorOptions options = WithQualityControl(CleanCrowd(9, 1));
  QuerySession donor(&query_, options, truth_);
  while (donor.phase() != SessionPhase::kCollect) {
    ASSERT_TRUE(donor.Step().value());
  }
  const std::string blob = donor.Snapshot();
  const size_t observations_at =
      18 + 2 * static_cast<size_t>(donor.graph().num_edges());
  uint32_t num_observations = 0;
  int32_t choice = -1;
  ByteReader reader(std::string_view(blob).substr(observations_at));
  ASSERT_TRUE(reader(num_observations).ok());
  ASSERT_GT(num_observations, 0u);
  const size_t choice_at = observations_at + 4 + 8 + 4;
  ASSERT_TRUE(
      ByteReader(std::string_view(blob).substr(choice_at))(choice).ok());
  ASSERT_TRUE(choice == 0 || choice == 1);
  ByteWriter other_answer;
  (void)other_answer(int32_t{1 - choice});
  QuerySession flipped(&query_, options, truth_);
  EXPECT_TRUE(flipped.Restore(Patched(blob, choice_at, other_answer.data()))
                  .ok());
  ByteWriter out_of_range;
  (void)out_of_range(int32_t{1000000});
  QuerySession restored(&query_, options, truth_);
  EXPECT_EQ(
      restored.Restore(Patched(blob, choice_at, out_of_range.data())).code(),
      StatusCode::kDataLoss);
}

// StepBatchRound writes two-entry posterior rows (the edge's similarity
// prior). A row of another length used to restore, and the assigner's
// scoring or the next answer's posterior update aborted. At kPublish the
// lowest round task's row is the first: task i64, count u32, two doubles.
TEST_F(ServiceTest, PosteriorRowMustHoldTwoChoices) {
  const ExecutorOptions options = WithQualityControl(CleanCrowd(9, 1));
  QuerySession donor(&query_, options, truth_);
  while (donor.phase() != SessionPhase::kPublish) {
    ASSERT_TRUE(donor.Step().value());
  }
  TaskId first = donor.pending_tasks().front().id;
  for (const Task& task : donor.pending_tasks()) first = std::min(first, task.id);
  const double weight = donor.graph().edge(static_cast<EdgeId>(first)).weight;
  ByteWriter row;
  (void)row(first, uint32_t{2}, weight, 1.0 - weight);
  const std::string blob = donor.Snapshot();
  std::string payload = blob.substr(0, blob.size() - sizeof(uint64_t));
  const size_t at = payload.find(row.data());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(payload.find(row.data(), at + 1), std::string::npos);
  for (uint32_t length : {0u, 1u, 3u}) {
    ByteWriter patched_row;
    (void)patched_row(first, length);
    for (uint32_t k = 0; k < length; ++k) (void)patched_row(weight);
    std::string patched = payload;
    patched.replace(at, row.data().size(), patched_row.data());
    QuerySession restored(&query_, options, truth_);
    EXPECT_EQ(restored.Restore(Reseal(patched)).code(), StatusCode::kDataLoss)
        << "length " << length;
  }
}

// The blob of a fresh session opens with a fixed prefix: magic (bytes 0-3),
// version (4-7), phase (8), graph_built (9) and the sampling-order count
// (10-13). A count above the bytes left is refused before anything is sized
// from it; 0xFFFFFFFF edge ids used to ask the allocator for 16 GB.
TEST_F(ServiceTest, CountAboveRemainingBytesIsDataLoss) {
  QuerySession donor(&query_, CleanCrowd(40, 1), truth_);
  ByteWriter count;
  (void)count(uint32_t{0xFFFFFFFF});
  QuerySession restored(&query_, CleanCrowd(40, 1), truth_);
  EXPECT_EQ(
      restored.Restore(Patched(donor.Snapshot(), 10, count.data())).code(),
      StatusCode::kDataLoss);
}

// Every phase after kBuildGraph holds the graph and its pruner. A blob that
// claims a later phase without the graph used to restore, and the next
// Step() dereferenced the missing pruner.
TEST_F(ServiceTest, GraphFlagMustMatchPhase) {
  QuerySession donor(&query_, CleanCrowd(41, 1), truth_);
  const std::string blob = donor.Snapshot();
  ASSERT_EQ(blob[8], static_cast<char>(SessionPhase::kBuildGraph));
  ASSERT_EQ(blob[9], 0);  // No graph.
  const std::string select(1, static_cast<char>(SessionPhase::kSelectTasks));
  QuerySession restored(&query_, CleanCrowd(41, 1), truth_);
  EXPECT_EQ(restored.Restore(Patched(blob, 8, select)).code(),
            StatusCode::kDataLoss);
}

// Edge ids in the sampling order must name edges of the rebuilt graph; one
// past the end used to restore, and StepColor wrote past the graph's colors
// and edge_provenance_. After MinCut's build step the sampling order
// follows the count, colors and provenance bytes of the graph's edges.
TEST_F(ServiceTest, SamplingOrderEdgeIdMustNameARebuiltEdge) {
  const ExecutorOptions options = WithMinCut(CleanCrowd(42, 1));
  QuerySession donor(&query_, options, truth_);
  ASSERT_TRUE(donor.Step().value());
  const int32_t num_edges = donor.graph().num_edges();
  const std::string blob = donor.Snapshot();
  const size_t order_at = 14 + 2 * static_cast<size_t>(num_edges);
  uint32_t order_size = 0;
  ASSERT_TRUE(ByteReader(std::string_view(blob).substr(order_at))(order_size)
                  .ok());
  ASSERT_GT(order_size, 0u);
  ByteWriter past_end;
  (void)past_end(num_edges);
  QuerySession restored(&query_, options, truth_);
  EXPECT_EQ(
      restored.Restore(Patched(blob, order_at + 4, past_end.data())).code(),
      StatusCode::kDataLoss);
}

// The same for a round task's payload (a negative payload marks a golden
// task and stays valid). At kPublish the round's first task ends with its
// payload, redundancy override and batch tag.
TEST_F(ServiceTest, RoundTaskPayloadMustNameARebuiltEdge) {
  const ExecutorOptions options = CleanCrowd(43, 1);
  QuerySession donor(&query_, options, truth_);
  while (donor.phase() != SessionPhase::kPublish) {
    ASSERT_TRUE(donor.Step().value());
  }
  const Task& task = donor.pending_tasks().front();
  ByteWriter tail;
  (void)tail(task.payload, task.redundancy_override, task.batch_tag);
  const std::string blob = donor.Snapshot();
  const size_t at = blob.find(tail.data());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.find(tail.data(), at + 1), std::string::npos);
  ByteWriter past_end;
  (void)past_end(static_cast<int64_t>(donor.graph().num_edges()));
  QuerySession restored(&query_, options, truth_);
  EXPECT_EQ(restored.Restore(Patched(blob, at, past_end.data())).code(),
            StatusCode::kDataLoss);
}

// The encoded head of `task` in a session blob: id, type byte, question
// and choices.
std::string TaskHead(const Task& task,
                     const std::vector<std::string>& choices) {
  ByteWriter head;
  (void)head(task.id, static_cast<uint8_t>(task.type), task.question, choices);
  return head.data();
}

// Round tasks are yes/no questions. A fill-in-blank round task used to
// restore, and the next answer's posterior update in the assigner aborted.
// At kPublish the round's first task is in the blob once.
TEST_F(ServiceTest, RoundTaskMustBeSingleChoice) {
  const ExecutorOptions options = WithQualityControl(CleanCrowd(9, 1));
  QuerySession donor(&query_, options, truth_);
  while (donor.phase() != SessionPhase::kPublish) {
    ASSERT_TRUE(donor.Step().value());
  }
  const Task& task = donor.pending_tasks().front();
  const std::string head = TaskHead(task, task.choices);
  const std::string blob = donor.Snapshot();
  const size_t at = blob.find(head);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.find(head, at + 1), std::string::npos);
  const std::string fill_in_blank(
      1, static_cast<char>(TaskType::kFillInBlank));
  QuerySession restored(&query_, options, truth_);
  EXPECT_EQ(restored.Restore(Patched(blob, at + sizeof(TaskId), fill_in_blank))
                .code(),
            StatusCode::kDataLoss);
}

// The same for a round task with one choice: the simulated worker aborted on
// it.
TEST_F(ServiceTest, RoundTaskMustHoldTwoChoices) {
  const ExecutorOptions options = CleanCrowd(43, 1);
  QuerySession donor(&query_, options, truth_);
  while (donor.phase() != SessionPhase::kPublish) {
    ASSERT_TRUE(donor.Step().value());
  }
  const Task& task = donor.pending_tasks().front();
  ASSERT_EQ(task.choices.size(), 2u);
  const std::string head = TaskHead(task, task.choices);
  const std::string blob = donor.Snapshot();
  std::string payload = blob.substr(0, blob.size() - sizeof(uint64_t));
  const size_t at = payload.find(head);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(payload.find(head, at + 1), std::string::npos);
  payload.replace(at, head.size(), TaskHead(task, {task.choices[0]}));
  QuerySession restored(&query_, options, truth_);
  EXPECT_EQ(restored.Restore(Reseal(payload)).code(), StatusCode::kDataLoss);
}

// A one-market publisher writes shape byte 1 before its market's state. The
// old one-entry form (shape byte 0, market count 1) still restores, into the
// same state: the restored session snapshots back to the current form.
TEST_F(ServiceTest, OneEntryPublisherFormStillRestores) {
  const ExecutorOptions options = CleanCrowd(44, 1);
  QuerySession donor(&query_, options, truth_);
  ASSERT_TRUE(donor.Step().value());
  const std::string blob = donor.Snapshot();
  // The owned-platform flag, the shape byte, the market's seed and workers.
  ByteWriter head;
  (void)head(true, true, options.platform.seed,
             int32_t{options.platform.num_workers});
  const size_t at = blob.find(head.data());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.find(head.data(), at + 1), std::string::npos);
  ByteWriter one_entry;
  (void)one_entry(false, uint32_t{1});
  std::string payload = blob.substr(0, blob.size() - sizeof(uint64_t));
  payload.replace(at + 1, 1, one_entry.data());
  QuerySession restored(&query_, options, truth_);
  const Status status = restored.Restore(Reseal(payload));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.Snapshot(), blob);
}

TEST_F(ServiceTest, CorruptCheckpointSurfacesAsSessionFailureNotCrash) {
  CdbService service(ServiceOptions{});
  QuerySession donor(&query_, CleanCrowd(7, 1), truth_);
  ASSERT_TRUE(donor.Step().value());
  std::string blob = donor.Snapshot();
  blob[blob.size() / 2] ^= 0x20;  // Bit-flip in the middle.
  Result<int64_t> id =
      service.SubmitRestored("alice", &query_, CleanCrowd(7, 1), truth_, blob);
  ASSERT_TRUE(id.ok());
  service.RunUntilDrained();
  EXPECT_EQ(service.stats().failed, 1);
  Result<ExecutionResult> result = service.TakeResult(id.value());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST_F(ServiceTest, WaveOrderInterleavesTenants) {
  // With the live cap below the total, admission is FIFO but stepping is
  // tenant round-robin; the single-query tenant finishes no later than the
  // flooding tenant's same-aged queries.
  ServiceOptions service_options;
  CdbService service(service_options);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        service.Submit("flood", &query_, CleanCrowd(500 + i, 1), truth_).ok());
  }
  Result<int64_t> small =
      service.Submit("small", &query_, CleanCrowd(600, 1), truth_);
  ASSERT_TRUE(small.ok());

  int64_t waves_until_small_done = 0;
  while (service.HasWork()) {
    service.StepWave();
    ++waves_until_small_done;
    if (!service.TakeResult(small.value()).ok()) continue;
    break;
  }
  // The small tenant's query needed exactly its own step count in waves —
  // the flood in front of it did not delay it.
  QuerySession standalone(&query_, CleanCrowd(600, 1), truth_);
  int64_t standalone_steps = 0;
  while (standalone.Step().value()) ++standalone_steps;
  EXPECT_EQ(waves_until_small_done, standalone_steps + 1);
}

}  // namespace
}  // namespace cdb
