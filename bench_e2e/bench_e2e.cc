// End-to-end CDB benchmark: crowd cost (tasks, rounds, dollars, F1) and
// machine time for whole queries, plus a traced run that splits the time by
// layer. bench_e2e/README.md explains the workloads and every metric;
// bench_e2e/run.py builds this binary, runs it and checks its outputs
// against the recorded ones.
//
// Usage:
//   bench_e2e --workload paper_full|award_qc_hostile|service_restart
//             --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// The benchmark drives only public entry points and measures each layer from
// outside: it times its own calls (QuerySession::Step() keyed by the phase it
// is about to run, CdbService::Submit/SubmitRestored/StepWave/CheckpointAll,
// the dataset generators, ParseStatement/AnalyzeSelect) and reads counters
// the program already exports (ExecutionStats, PlatformStats, and with
// --trace 1 the MetricsRegistry). RunToCompletion() is a loop over Step(),
// so stepping sessions here runs exactly the production path.
//
// One run = set-up (repeated; setup_s is the median) and then passes until
// --seconds have elapsed, always whole cycles. A workload is a list of units
// and a pass runs one unit: one unit on paper_full and service_restart, one
// per crowd seed on award_qc_hostile. A cycle runs every unit once; an
// untraced run makes at least kMinCycles of them. Every pass must reproduce
// the outputs of its unit's first pass exactly. The last line of stdout is
// one JSON object with the metrics, the per-session outputs and the
// attempted/failed counts; any failed internal check exits non-zero without
// printing it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/metrics.h"
#include "bench_util/queries.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "cql/parser.h"
#include "datagen/award_dataset.h"
#include "datagen/paper_dataset.h"
#include "exec/service.h"
#include "exec/session.h"

namespace cdb {
namespace bench_e2e {
namespace {

// Set-up runs at least kMinSetupReps times and, while it is cheap, until
// kSetupSeconds have gone into it (at most kMaxSetupReps times), so the
// median of a 10 ms set-up rests on more samples than that of a 1 s one.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupSeconds = 1.0;
// An untraced run runs every unit at least this many times, so each unit's
// wall time is a median over passes that one slow pass does not move, and
// session_ms.p50 holds at least three samples of every session.
constexpr int kMinCycles = 3;

// ---------------------------------------------------------------------------
// Wall clock and in-memory spans.

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

// One timed call. `session` is shared by every span of one session (-1 for
// spans that belong to none); `parent` indexes the enclosing span.
struct Span {
  std::string name;
  int64_t session = -1;
  int parent = -1;
  double begin_us = 0.0;
  double end_us = 0.0;
};

// Spans are kept in memory while enabled and written out once at the end.
// The benchmark calls in from one thread, strictly nested, so a stack gives
// parents.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int Begin(std::string name, int64_t session) {
    if (!enabled_) return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), session,
                          open_.empty() ? -1 : open_.back(), NowUs(), 0.0});
    open_.push_back(index);
    return index;
  }

  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_us = NowUs();
    open_.pop_back();
  }

  // Self time per span name in ms: each span's duration minus the part its
  // child spans cover (children never overlap: calls are serial).
  std::map<std::string, double> SelfMs() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += s.end_us - s.begin_us;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name] += (s.end_us - s.begin_us - child_us[i]) / 1000.0;
    }
    return self;
  }

  // Total duration of all root spans named `name`, in ms.
  double RootMs(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0 && s.name == name) {
        total += (s.end_us - s.begin_us) / 1000.0;
      }
    }
    return total;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds), the format
  // the program's own --trace-out files use.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "%s{\"name\":\"%s\",\"cat\":\"bench_e2e\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"session\":%" PRId64
                   "}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.begin_us,
                   s.end_us - s.begin_us, i, s.parent, s.session);
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int64_t session = -1)
      : log_(log), index_(log.Begin(std::move(name), session)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// ---------------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Time to run every unit once: per unit the median over its passes, summed.
double CycleWallS(const std::vector<std::vector<double>>& wall_s_by_unit) {
  double total = 0.0;
  for (const std::vector<double>& wall_s : wall_s_by_unit) {
    total += Median(wall_s);
  }
  return total;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over the sorted answer rows: the answer digest of one session.
uint64_t AnswerDigest(const std::vector<QueryAnswer>& answers) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(answers.size());
  for (const QueryAnswer& a : answers) {
    mix(a.rows.size());
    for (int64_t r : a.rows) mix(static_cast<uint64_t>(r));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Inputs.

// One dataset with the five Table-4 queries resolved against it and their
// ground-truth answers. Heap-held: resolved queries point into the catalog.
struct QuerySet {
  GeneratedDataset dataset;
  std::vector<std::string> labels;
  std::vector<ResolvedQuery> queries;
  std::vector<std::vector<QueryAnswer>> truth;
  std::vector<EdgeTruthFn> edge_truth;
};

struct SetupTimes {
  double total_ms = 0.0;
  double datagen_ms = 0.0;
  double cql_ms = 0.0;
};

std::unique_ptr<QuerySet> BuildQuerySet(bool award, double scale,
                                        uint64_t dataset_seed, SpanLog& log,
                                        SetupTimes* times) {
  const double t0 = NowUs();
  ScopedSpan setup_span(log, "setup");
  auto set = std::make_unique<QuerySet>();
  {
    ScopedSpan span(log, "datagen");
    if (award) {
      AwardDatasetOptions options;
      options.scale = scale;
      options.seed = dataset_seed;
      set->dataset = GenerateAwardDataset(options);
    } else {
      PaperDatasetOptions options;
      options.scale = scale;
      options.seed = dataset_seed;
      set->dataset = GeneratePaperDataset(options);
    }
  }
  const double t1 = NowUs();
  const std::vector<BenchmarkQuery> specs =
      award ? AwardQueries() : PaperQueries();
  {
    ScopedSpan span(log, "cql");
    for (const BenchmarkQuery& q : specs) {
      Result<Statement> stmt = ParseStatement(q.cql);
      CDB_CHECK_MSG(stmt.ok(), stmt.status().ToString().c_str());
      const SelectStatement* select =
          std::get_if<SelectStatement>(&stmt.value());
      CDB_CHECK(select != nullptr);
      Result<ResolvedQuery> resolved =
          AnalyzeSelect(*select, set->dataset.catalog);
      CDB_CHECK_MSG(resolved.ok(), resolved.status().ToString().c_str());
      set->labels.push_back(q.label);
      set->queries.push_back(std::move(resolved).value());
    }
  }
  const double t2 = NowUs();
  {
    ScopedSpan span(log, "truth");
    for (const ResolvedQuery& query : set->queries) {
      set->truth.push_back(TrueAnswers(set->dataset, query));
      set->edge_truth.push_back(MakeEdgeTruth(&set->dataset, &query));
    }
  }
  times->datagen_ms = (t1 - t0) / 1000.0;
  times->cql_ms = (t2 - t1) / 1000.0;
  times->total_ms = (NowUs() - t0) / 1000.0;
  return set;
}

// The paper's default simulated crowd (Section 6.1): q ~ N(0.8, 0.1),
// 5 answers per task from a pool of 50 workers.
PlatformOptions CleanCrowd(uint64_t seed) {
  PlatformOptions platform;
  platform.num_workers = 50;
  platform.worker_quality_mean = 0.8;
  platform.worker_quality_stddev = 0.1;
  platform.redundancy = 5;
  platform.seed = seed;
  return platform;
}

// The values of HostileProfile() in tests/fault_sim_test.cc: abandons,
// stragglers, duplicates, no-shows and 8-tick leases.
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

struct SessionSpec {
  std::string key;  // Stable name used in the recorded outputs.
  std::string tenant;
  int query = 0;    // Index into QuerySet::queries.
  ExecutorOptions options;
};

ExecutorOptions SerialOptions(CostMethod method, const PlatformOptions& crowd) {
  ExecutorOptions options;
  options.cost_method = method;
  options.platform = crowd;
  options.num_threads = 1;
  options.graph.num_threads = 1;
  return options;
}

// The deterministic outputs of one session.
struct SessionOutput {
  bool ok = false;
  uint64_t digest = 0;
  int64_t tasks = 0;          // Tasks the crowd was paid for (incl. reposts).
  int64_t rounds = 0;
  int64_t micro_dollars = 0;
  double f1 = 0.0;

  bool operator==(const SessionOutput& o) const {
    return ok == o.ok && digest == o.digest && tasks == o.tasks &&
           rounds == o.rounds && micro_dollars == o.micro_dollars && f1 == o.f1;
  }
};

SessionOutput OutputOf(const Result<ExecutionResult>& result,
                       const std::vector<QueryAnswer>& truth) {
  SessionOutput out;
  if (!result.ok()) return out;
  const ExecutionResult& r = result.value();
  out.ok = true;
  out.digest = AnswerDigest(r.answers);
  out.tasks = r.stats.platform.tasks_published;
  out.rounds = r.stats.rounds;
  out.micro_dollars = r.stats.platform.micro_dollars_spent;
  out.f1 = ComputeF1(r.answers, truth).f1;
  return out;
}

// Tasks handed to the publisher so far (golden, round and repost tasks).
int64_t PublishedSoFar(const ExecutionStats& stats) {
  int64_t tasks = 0;
  for (const PhaseCounters& p : stats.phases) tasks += p.tasks;
  return tasks;
}

// ---------------------------------------------------------------------------
// Per-run accumulators.

struct Samples {
  std::vector<double> session_ms;
  std::vector<double> first_publish_ms;
  std::vector<double> round_gap_ms;
  // service_restart only.
  std::vector<double> resume_s;
  std::vector<double> restore_ms;
  std::vector<double> wave_ms;
  std::vector<double> submit_us;
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes;
};

// Counts the benchmark reads itself while tracing (per traced pass, summed).
struct TracedCounts {
  int64_t graph_edges = 0;
  int64_t graph_vertices = 0;
  int64_t infer_observations = 0;
  int64_t batches = 0;
  int64_t batch_tasks = 0;
};

struct PassOutputs {
  std::vector<std::pair<std::string, SessionOutput>> sessions;
  int64_t attempted = 0;   // Sessions started / submission attempts.
  int64_t errors = 0;      // Sessions that ended in an error status.
  int64_t refused = 0;     // Submissions refused by admission control.
  // service_restart only (deterministic in wave time).
  int64_t redone_tasks = 0;
  int64_t restored_sessions = 0;
  int64_t checkpoint_sessions = 0;
  int64_t checkpoint_bundle_bytes = 0;
  int64_t rejected_queue = 0;
  int64_t rejected_budget = 0;
  int64_t waves = 0;
  int64_t steps = 0;
  int64_t live_peak = 0;
};

struct Context {
  const QuerySet* set = nullptr;
  SpanLog* log = nullptr;
  MetricsRegistry* registry = nullptr;  // Traced passes only.
  Samples* samples = nullptr;
  TracedCounts* counts = nullptr;
};

// ---------------------------------------------------------------------------
// Standalone sessions (paper_full, award_qc_hostile): one client, closed loop.

SessionOutput RunStandalone(const SessionSpec& spec, int64_t session_id,
                            Context& ctx, int64_t* errors) {
  const bool traced = ctx.log->enabled();
  const double created = NowUs();
  ScopedSpan session_span(*ctx.log, "session", session_id);
  ExecutorOptions options = spec.options;
  options.metrics = ctx.registry;
  const int q = spec.query;
  QuerySession session(&ctx.set->queries[static_cast<size_t>(q)], options,
                       ctx.set->edge_truth[static_cast<size_t>(q)]);
  const char* method =
      options.cost_method == CostMethod::kSampling ? "sampling" : "expectation";
  bool published = false;
  double last_publish_end = -1.0;
  Status error;
  while (true) {
    const SessionPhase phase = session.phase();
    if (traced && phase == SessionPhase::kInfer) {
      for (const auto& [task, n] : session.stats().unique_answers_per_task) {
        ctx.counts->infer_observations += n;
      }
    }
    std::string name = SessionPhaseName(phase);
    if (phase == SessionPhase::kBuildGraph) name += std::string(".") + method;
    const double begin = NowUs();
    if (phase == SessionPhase::kPublish) {
      if (!published) {
        ctx.samples->first_publish_ms.push_back((begin - created) / 1000.0);
      }
      if (last_publish_end >= 0.0) {
        ctx.samples->round_gap_ms.push_back((begin - last_publish_end) /
                                            1000.0);
      }
      published = true;
    }
    Result<bool> more = [&] {
      ScopedSpan step_span(*ctx.log, std::move(name), session_id);
      return session.Step();
    }();
    if (phase == SessionPhase::kPublish) last_publish_end = NowUs();
    if (traced && phase == SessionPhase::kBuildGraph) {
      ctx.counts->graph_edges += session.graph().num_edges();
      ctx.counts->graph_vertices += session.graph().num_vertices();
    }
    if (traced && phase == SessionPhase::kBatchRound && more.ok() &&
        session.phase() == SessionPhase::kPublish) {
      ++ctx.counts->batches;
      ctx.counts->batch_tasks +=
          static_cast<int64_t>(session.pending_tasks().size());
    }
    if (!more.ok()) {
      error = more.status();
      break;
    }
    if (!more.value()) break;
  }
  if (last_publish_end >= 0.0) {
    ctx.samples->round_gap_ms.push_back((NowUs() - last_publish_end) / 1000.0);
  }
  Result<ExecutionResult> result =
      error.ok() ? Result<ExecutionResult>(session.TakeResult())
                 : Result<ExecutionResult>(error);
  if (!result.ok()) {
    ++*errors;
    std::fprintf(stderr, "session %s failed: %s\n", spec.key.c_str(),
                 result.status().ToString().c_str());
  }
  SessionOutput out = OutputOf(result, ctx.set->truth[static_cast<size_t>(q)]);
  ctx.samples->session_ms.push_back((NowUs() - created) / 1000.0);
  return out;
}

// Session ids count up from `first_id`, so they are unique across passes.
PassOutputs RunStandalonePass(const std::vector<SessionSpec>& specs,
                              int64_t first_id, Context& ctx) {
  PassOutputs pass;
  ScopedSpan pass_span(*ctx.log, "pass");
  for (const SessionSpec& spec : specs) {
    pass.sessions.emplace_back(
        spec.key,
        RunStandalone(spec, first_id + pass.attempted, ctx, &pass.errors));
    ++pass.attempted;
  }
  return pass;
}

std::vector<SessionSpec> PaperFullSpecs(const QuerySet& set, uint64_t seed) {
  std::vector<SessionSpec> specs;
  const std::pair<const char*, CostMethod> methods[] = {
      {"CDB", CostMethod::kExpectation}, {"MinCut", CostMethod::kSampling}};
  for (const auto& [name, method] : methods) {
    for (size_t q = 0; q < set.queries.size(); ++q) {
      SessionSpec spec;
      spec.key = std::string(name) + "/" + set.labels[q];
      spec.query = static_cast<int>(q);
      spec.options = SerialOptions(method, CleanCrowd(Mix(seed, specs.size())));
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

constexpr int kAwardCrowdSeeds = 3;
// At scale 0.1 a crowd seed was ~12 s of work, so a run timed each session
// once and session_ms.p50 rested on the three 2J sessions: over ten seeds on
// a shared 4-core host its IQR reached 0.31 of the median. At 0.07 a crowd
// seed is ~3.7 s and a run times each of the 15 sessions three times.
// Publish still dominates (~69%), and reposts, late answers and deduction
// invalidations still occur.
constexpr double kAwardScale = 0.07;

// One unit (pass) per crowd seed: ~36 rounds each, so a cycle holds the
// ~107 round gaps a p90 needs.
std::vector<std::vector<SessionSpec>> AwardHostileUnits(const QuerySet& set,
                                                        uint64_t seed) {
  std::vector<std::vector<SessionSpec>> units(kAwardCrowdSeeds);
  size_t index = 0;
  for (int c = 0; c < kAwardCrowdSeeds; ++c) {
    std::vector<SessionSpec>& specs = units[static_cast<size_t>(c)];
    for (size_t q = 0; q < set.queries.size(); ++q, ++index) {
      // Skilled but unreliable workers: at scale 0.1, with the paper's
      // q ~ N(0.8, 0.1) under these faults, mean F1 moved by 20% (IQR over
      // median) between crowd seeds, mostly on queries with 2-12 true
      // answers; at N(0.9, 0.05) it moved by 7% (2% at 0.07) and late
      // answers still flip colors.
      PlatformOptions crowd = CleanCrowd(Mix(seed, 100 + index));
      crowd.worker_quality_mean = 0.9;
      crowd.worker_quality_stddev = 0.05;
      crowd.fault = HostileProfile();
      SessionSpec spec;
      spec.key = "CDB+/c" + std::to_string(c) + "/" + set.labels[q];
      spec.query = static_cast<int>(q);
      spec.options = SerialOptions(CostMethod::kExpectation, crowd);
      spec.options.quality_control = true;
      spec.options.propagation.enabled = true;
      specs.push_back(std::move(spec));
    }
  }
  return units;
}

// ---------------------------------------------------------------------------
// service_restart: many small sessions from 8 tenants through one CdbService,
// open-loop arrivals in wave time, periodic checkpoints, one crash + resume.

// A session lives ~30 waves, so 3 arrivals per wave keep ~90 live: the live
// cap binds now and then and the queue fills behind it, above all in the
// burst of resubmissions after the crash. Tenant 0 (greedy) owns 2 of every
// 9 arrivals (64) against a budget of 32.
//
// Waves run on one thread (ServiceOptions' default). On a shared 4-core
// host, 3 or 4 wave threads made wall_s and session_ms.p50 spread 2-5x
// wider across runs (IQR over median 0.17-0.32 against 0.06-0.13), close to
// or past the widest bound the benchmark may use.
struct ServiceShape {
  int tenants = 8;
  int arrivals = 288;
  int due_per_wave = 3;
  int max_live = 96;
  int max_pending = 16;
  int64_t tenant_budget = 32;  // Sessions per tenant (each costs 1).
  int checkpoint_every = 10;   // Waves between CheckpointAll() calls.
  int crash_wave = 66;         // Six waves after the checkpoint at wave 60.
};

std::vector<SessionSpec> ServiceSpecs(const QuerySet& set, uint64_t seed,
                                      const ServiceShape& shape) {
  std::vector<SessionSpec> specs;
  for (int i = 0; i < shape.arrivals; ++i) {
    const int slot = i % (shape.tenants + 1);
    const int tenant = slot <= 1 ? 0 : slot - 1;
    const int q = i % static_cast<int>(set.queries.size());
    SessionSpec spec;
    spec.tenant = "tenant-" + std::to_string(tenant);
    spec.key = "a" + std::to_string(i) + "/" + spec.tenant + "/" +
               set.labels[static_cast<size_t>(q)];
    spec.query = q;
    spec.options = SerialOptions(
        CostMethod::kExpectation,
        CleanCrowd(Mix(seed, 1000 + static_cast<uint64_t>(i))));
    specs.push_back(std::move(spec));
  }
  return specs;
}

// The uninterrupted reference of one service session: its outputs and the
// tasks it has handed to the publisher after each number of steps.
struct Reference {
  SessionOutput output;
  std::vector<int64_t> published_after;  // [k] = after k steps.

  int64_t steps() const {
    return static_cast<int64_t>(published_after.size()) - 1;
  }
};

Reference RunReference(const SessionSpec& spec, const QuerySet& set) {
  const size_t q = static_cast<size_t>(spec.query);
  QuerySession session(&set.queries[q], spec.options, set.edge_truth[q]);
  Reference ref;
  ref.published_after.push_back(0);
  Status error;
  while (true) {
    Result<bool> more = session.Step();
    ref.published_after.push_back(PublishedSoFar(session.stats()));
    if (!more.ok()) {
      error = more.status();
      break;
    }
    if (!more.value()) break;
  }
  Result<ExecutionResult> result =
      error.ok() ? Result<ExecutionResult>(session.TakeResult())
                 : Result<ExecutionResult>(error);
  if (result.ok()) {
    CDB_CHECK_EQ(PublishedSoFar(result.value().stats),
                 result.value().stats.platform.tasks_published);
  }
  ref.output = OutputOf(result, set.truth[q]);
  return ref;
}

enum class ArrivalState { kNotDue, kWaiting, kAccepted, kRefused, kDone };

struct ArrivalTrack {
  ArrivalState state = ArrivalState::kNotDue;
  double due_us = 0.0;
  int64_t service_id = 0;
  int64_t admit_wave = -1;     // Wave of admission to the current service.
  int64_t steps_at_admit = 0;  // Steps the session had taken before it.
  const std::string* blob = nullptr;  // Set while waiting to be restored.
};

class ServiceClient {
 public:
  ServiceClient(const std::vector<SessionSpec>& specs,
                const ServiceShape& shape, Context& ctx,
                const std::vector<Reference>& refs)
      : specs_(specs), shape_(shape), ctx_(ctx), refs_(refs),
        track_(specs.size()) {}

  PassOutputs Run() {
    ScopedSpan pass_span(*ctx_.log, "pass");
    service_ = NewService();
    size_t next_arrival = 0;
    bool crashed = false;
    while (true) {
      for (int d = 0;
           d < shape_.due_per_wave && next_arrival < specs_.size(); ++d) {
        ArrivalTrack& t = track_[next_arrival];
        t.state = ArrivalState::kWaiting;
        t.due_us = NowUs();
        waiting_.push_back(next_arrival++);
      }
      SubmitWaiting();
      Wave();
      if (!crashed && service_waves_ == shape_.crash_wave) {
        CrashAndResubmit();
        crashed = true;
      }
      if (next_arrival == specs_.size() && waiting_.empty() &&
          !service_->HasWork()) {
        break;
      }
    }
    FoldStats();
    CDB_CHECK_MSG(crashed, "service_restart drained before its crash wave");
    CDB_CHECK_MSG(resume_pending_ == 0, "restored sessions never became live");
    for (size_t i = 0; i < specs_.size(); ++i) {
      if (track_[i].state == ArrivalState::kDone) {
        pass_.sessions.emplace_back(specs_[i].key, outputs_[i]);
      } else {
        CDB_CHECK_MSG(track_[i].state == ArrivalState::kRefused,
                      "a service session was neither delivered nor refused");
      }
    }
    return std::move(pass_);
  }

 private:
  std::unique_ptr<CdbService> NewService() {
    ServiceOptions options;
    options.max_live_sessions = shape_.max_live;
    options.max_pending = shape_.max_pending;
    options.tenant_budget = shape_.tenant_budget;
    options.checkpoint_interval = 0;  // The client checkpoints (timed).
    options.metrics = ctx_.registry;
    service_waves_ = 0;
    admitted_seen_ = 0;
    checkpoint_wave_ = 0;
    steps_at_checkpoint_ = 0;
    accepted_order_.clear();
    outstanding_.clear();
    return std::make_unique<CdbService>(options);
  }

  // Every due submission is attempted once per wave, oldest first; a
  // queue-full refusal retries at the next wave, a budget refusal is final.
  void SubmitWaiting() {
    std::deque<size_t> still_waiting;
    for (size_t i : waiting_) {
      ArrivalTrack& t = track_[i];
      const SessionSpec& spec = specs_[i];
      ExecutorOptions options = spec.options;
      options.metrics = ctx_.registry;
      const size_t q = static_cast<size_t>(spec.query);
      const double begin = NowUs();
      const ResolvedQuery* query = &ctx_.set->queries[q];
      const EdgeTruthFn& truth = ctx_.set->edge_truth[q];
      Result<int64_t> id = [&] {
        if (t.blob == nullptr) {
          ScopedSpan span(*ctx_.log, "submit");
          return service_->Submit(spec.tenant, query, options, truth);
        }
        ScopedSpan span(*ctx_.log, "submit_restored");
        return service_->SubmitRestored(spec.tenant, query, options, truth,
                                        *t.blob);
      }();
      const double elapsed = NowUs() - begin;
      ctx_.samples->submit_us.push_back(elapsed);
      if (t.blob != nullptr) restore_us_ += elapsed;
      ++pass_.attempted;
      if (id.ok()) {
        t.state = ArrivalState::kAccepted;
        t.service_id = id.value();
        t.blob = nullptr;
        outstanding_.emplace(id.value(), i);
        accepted_order_.push_back(i);
        continue;
      }
      CDB_CHECK_MSG(id.status().code() == StatusCode::kResourceExhausted,
                    id.status().ToString().c_str());
      ++pass_.refused;
      if (service_->num_pending() >= shape_.max_pending) {
        still_waiting.push_back(i);  // Queue full: retry next wave.
      } else {
        t.state = ArrivalState::kRefused;  // Tenant budget spent.
        t.blob = nullptr;
      }
    }
    waiting_ = std::move(still_waiting);
  }

  void Wave() {
    const ServiceStats before = service_->stats();
    const double begin = NowUs();
    int64_t stepped = 0;
    {
      ScopedSpan span(*ctx_.log, "wave");
      stepped = service_->StepWave();
    }
    const double elapsed = NowUs() - begin;
    ctx_.samples->wave_ms.push_back(elapsed / 1000.0);
    ++service_waves_;
    pass_.live_peak = std::max(pass_.live_peak, stepped);
    const ServiceStats after = service_->stats();
    // FIFO admission: the next `admitted` accepted arrivals are live.
    for (; admitted_seen_ < after.admitted &&
           admitted_seen_ < static_cast<int64_t>(accepted_order_.size());
         ++admitted_seen_) {
      track_[accepted_order_[static_cast<size_t>(admitted_seen_)]].admit_wave =
          service_waves_;
    }
    if (resume_pending_ > 0) {
      restore_us_ += elapsed;
      if (after.admitted + after.failed >= resume_pending_) {
        resume_pending_ = 0;
        ctx_.samples->resume_s.push_back((NowUs() - crash_us_) / 1e6);
        ctx_.samples->restore_ms.push_back(restore_us_ / 1000.0);
      }
    }
    if (after.completed + after.failed > before.completed + before.failed) {
      ScopedSpan span(*ctx_.log, "take_result");
      Collect();
    }
    if (service_waves_ % shape_.checkpoint_every == 0 &&
        service_->num_live() > 0) {
      const double ckpt_begin = NowUs();
      {
        ScopedSpan span(*ctx_.log, "checkpoint");
        (void)service_->CheckpointAll();
      }
      ctx_.samples->checkpoint_ms.push_back((NowUs() - ckpt_begin) / 1000.0);
      int64_t bytes = 0;
      for (const auto& [id, blob] : service_->last_checkpoint()) {
        bytes += static_cast<int64_t>(blob.size());
      }
      ctx_.samples->checkpoint_bytes.push_back(static_cast<double>(bytes));
      checkpoint_wave_ = service_waves_;
      steps_at_checkpoint_ = service_->stats().steps;
    }
  }

  // Steps arrival `i` has taken by the end of `wave` of the current service.
  // The redone work after the crash rests on this model of the service:
  // admission is FIFO, and every wave steps each live session once, from
  // the wave that admits it until its reference's step count. Collect() and
  // CrashAndResubmit() check the model against the service.
  int64_t StepsAt(size_t i, int64_t wave) const {
    const ArrivalTrack& t = track_[i];
    if (t.admit_wave < 0 || wave < t.admit_wave) return t.steps_at_admit;
    return std::min(t.steps_at_admit + wave - t.admit_wave + 1,
                    refs_[i].steps());
  }

  // Takes every finished result; session latency runs from when the
  // submission was due to when its result is in hand.
  void Collect() {
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      Result<ExecutionResult> result = service_->TakeResult(it->first);
      if (!result.ok() && result.status().code() == StatusCode::kNotFound) {
        ++it;
        continue;
      }
      const size_t i = it->second;
      const ArrivalTrack& t = track_[i];
      CDB_CHECK_MSG(t.admit_wave >= 0 &&
                        StepsAt(i, service_waves_ - 1) < refs_[i].steps() &&
                        StepsAt(i, service_waves_) == refs_[i].steps(),
                    "a service session finished in another wave than the "
                    "step model says");
      if (!result.ok()) {
        ++pass_.errors;
        std::fprintf(stderr, "session %s failed: %s\n", specs_[i].key.c_str(),
                     result.status().ToString().c_str());
      }
      outputs_[i] = OutputOf(
          result, ctx_.set->truth[static_cast<size_t>(specs_[i].query)]);
      track_[i].state = ArrivalState::kDone;
      ctx_.samples->session_ms.push_back((NowUs() - track_[i].due_us) / 1000.0);
      it = outstanding_.erase(it);
    }
  }

  // Drops the service at a fixed wave after its last checkpoint, rebuilds a
  // fresh one from last_checkpoint() and resubmits what the bundle lacks.
  // Sessions delivered before the crash are not run again.
  void CrashAndResubmit() {
    bundle_ = service_->last_checkpoint();
    int64_t bundle_bytes = 0;
    for (const auto& [id, blob] : bundle_) {
      bundle_bytes += static_cast<int64_t>(blob.size());
    }
    pass_.checkpoint_bundle_bytes = bundle_bytes;
    pass_.checkpoint_sessions = static_cast<int64_t>(bundle_.size());
    // The service's own step counter over the lost window must match the
    // step model.
    int64_t modelled_steps = 0;
    for (size_t i : accepted_order_) {
      modelled_steps +=
          StepsAt(i, service_waves_) - StepsAt(i, checkpoint_wave_);
    }
    CDB_CHECK_EQ(service_->stats().steps - steps_at_checkpoint_,
                 modelled_steps);
    std::deque<size_t> restored;
    std::deque<size_t> fresh;
    for (size_t i : accepted_order_) {
      ArrivalTrack& t = track_[i];
      if (t.state != ArrivalState::kAccepted) continue;
      auto blob = bundle_.find(t.service_id);
      const int64_t kept =
          blob == bundle_.end() ? 0 : StepsAt(i, checkpoint_wave_);
      // Work done after the session's checkpoint is lost and redone.
      const std::vector<int64_t>& after = refs_[i].published_after;
      const int64_t at_crash = StepsAt(i, service_waves_);
      pass_.redone_tasks += after[static_cast<size_t>(at_crash)] -
                            after[static_cast<size_t>(kept)];
      t.state = ArrivalState::kWaiting;
      t.admit_wave = -1;
      t.steps_at_admit = kept;
      if (blob != bundle_.end()) {
        t.blob = &blob->second;
        restored.push_back(i);
      } else {
        fresh.push_back(i);
      }
    }
    pass_.restored_sessions = static_cast<int64_t>(restored.size());
    FoldStats();
    {
      ScopedSpan span(*ctx_.log, "crash");
      service_.reset();
    }
    crash_us_ = NowUs();
    restore_us_ = 0.0;
    service_ = NewService();
    resume_pending_ = static_cast<int64_t>(restored.size());
    // Restored sessions first, then lost ones from scratch, then arrivals
    // that were still waiting.
    for (size_t i : waiting_) fresh.push_back(i);
    waiting_ = std::move(restored);
    for (size_t i : fresh) waiting_.push_back(i);
    if (resume_pending_ == 0) {
      ctx_.samples->resume_s.push_back((NowUs() - crash_us_) / 1e6);
      ctx_.samples->restore_ms.push_back(0.0);
    }
  }

  // Adds the current service's counters to the pass totals.
  void FoldStats() {
    if (service_ == nullptr) return;
    const ServiceStats stats = service_->stats();
    pass_.rejected_queue += stats.rejected_queue;
    pass_.rejected_budget += stats.rejected_budget;
    pass_.waves += stats.waves;
    pass_.steps += stats.steps;
  }

  const std::vector<SessionSpec>& specs_;
  const ServiceShape shape_;
  Context& ctx_;
  const std::vector<Reference>& refs_;
  std::vector<ArrivalTrack> track_;
  std::map<size_t, SessionOutput> outputs_;
  std::unique_ptr<CdbService> service_;
  std::deque<size_t> waiting_;
  std::vector<size_t> accepted_order_;     // Acceptance order, this service.
  std::map<int64_t, size_t> outstanding_;  // Service id -> arrival.
  std::map<int64_t, std::string> bundle_;  // Checkpoint taken over at crash.
  PassOutputs pass_;
  int64_t service_waves_ = 0;
  int64_t admitted_seen_ = 0;
  int64_t checkpoint_wave_ = 0;
  int64_t steps_at_checkpoint_ = 0;  // Service steps at checkpoint_wave_.
  int64_t resume_pending_ = 0;
  double crash_us_ = 0.0;
  double restore_us_ = 0.0;
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

int64_t PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  const bool paper_full = args.workload == "paper_full";
  const bool award = args.workload == "award_qc_hostile";
  const bool service = args.workload == "service_restart";
  if (!paper_full && !award && !service) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up: the dataset, its five queries and their ground truth. The
  // dataset is the generators' own (fixed seed); --seed draws the crowd.
  // A dataset that varied with --seed would move F1 by up to 2x between
  // seeds (the ground truth epsilon-pruning loses depends on the strings),
  // hiding any change a run is meant to show.
  SpanLog log;
  log.set_enabled(args.trace);
  const double scale = paper_full ? 1.0 : award ? kAwardScale : 0.1;
  const uint64_t dataset_seed =
      award ? AwardDatasetOptions{}.seed : PaperDatasetOptions{}.seed;
  std::vector<double> setup_s;
  std::vector<double> datagen_ms;
  std::vector<double> cql_ms;
  std::unique_ptr<QuerySet> set;
  double setup_total_s = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetupReps ||
         (setup_total_s < kSetupSeconds &&
          static_cast<int>(setup_s.size()) < kMaxSetupReps)) {
    set.reset();
    SetupTimes times;
    set = BuildQuerySet(award, scale, dataset_seed, log, &times);
    setup_s.push_back(times.total_ms / 1000.0);
    setup_total_s += setup_s.back();
    datagen_ms.push_back(times.datagen_ms);
    cql_ms.push_back(times.cql_ms);
  }

  const ServiceShape shape;
  const std::vector<std::vector<SessionSpec>> units =
      paper_full ? std::vector<std::vector<SessionSpec>>{PaperFullSpecs(
                       *set, args.seed)}
      : award    ? AwardHostileUnits(*set, args.seed)
                 : std::vector<std::vector<SessionSpec>>{
                       ServiceSpecs(*set, args.seed, shape)};
  const size_t num_units = units.size();

  // service_restart checks every session against its uninterrupted
  // standalone reference (untimed).
  std::vector<Reference> refs;
  if (service) {
    for (const SessionSpec& spec : units[0]) {
      refs.push_back(RunReference(spec, *set));
    }
  }

  // Measured passes, unit after unit. With --trace 1 each unit runs
  // untraced and then traced (spans + MetricsRegistry): workload-level
  // figures come from the untraced passes, layer figures from the traced
  // ones, and the wall difference is the tracing overhead.
  Samples untraced;
  Samples traced;
  TracedCounts counts;
  MetricsRegistry registry;
  std::vector<std::vector<double>> untraced_wall_s(num_units);
  std::vector<std::vector<double>> traced_wall_s(num_units);
  std::vector<std::optional<PassOutputs>> first(num_units);
  int traced_passes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int passes = 0;
  std::string mismatch;
  const int cycle = static_cast<int>(num_units) * (args.trace ? 2 : 1);
  const int min_passes = args.trace ? cycle : kMinCycles * cycle;
  const double start = NowUs();
  while (true) {
    const bool trace_this = args.trace && passes % 2 == 1;
    const size_t unit =
        static_cast<size_t>(args.trace ? passes / 2 : passes) % num_units;
    log.set_enabled(trace_this);
    Samples& samples = trace_this ? traced : untraced;
    Context ctx{set.get(), &log, trace_this ? &registry : nullptr, &samples,
                &counts};
    const double begin = NowUs();
    PassOutputs pass = service ? ServiceClient(units[0], shape, ctx, refs).Run()
                               : RunStandalonePass(units[unit], attempted, ctx);
    const double wall_s = (NowUs() - begin) / 1e6;
    (trace_this ? traced_wall_s : untraced_wall_s)[unit].push_back(wall_s);
    std::fprintf(stderr, "bench_e2e: pass %d (unit %zu%s) %.3f s\n",
                 passes + 1, unit, trace_this ? ", traced" : "", wall_s);
    if (trace_this) ++traced_passes;
    ++passes;
    attempted += pass.attempted;
    failed += pass.errors;
    std::optional<PassOutputs>& ref = first[unit];
    if (!ref) {
      ref = std::move(pass);
    } else if (pass.sessions != ref->sessions ||
               pass.redone_tasks != ref->redone_tasks ||
               pass.checkpoint_bundle_bytes != ref->checkpoint_bundle_bytes ||
               pass.refused != ref->refused) {
      mismatch = "pass " + std::to_string(passes) +
                 " differs from the first pass of its unit";
    }
    if (passes >= min_passes && passes % cycle == 0 &&
        NowUs() - start >= args.seconds * 1e6) {
      break;
    }
  }
  if (service) {
    for (const auto& [key, out] : first[0]->sessions) {
      const size_t i = static_cast<size_t>(std::atoll(key.c_str() + 1));
      if (!(out == refs[i].output)) {
        mismatch = "service session " + key +
                   " differs from its uninterrupted reference";
      }
    }
  }

  // Deterministic totals of one cycle: the first pass of every unit. Only
  // service_restart, which is one unit, has the service fields.
  PassOutputs p = std::move(*first[0]);
  for (size_t u = 1; u < num_units; ++u) {
    const PassOutputs& more = *first[u];
    p.sessions.insert(p.sessions.end(), more.sessions.begin(),
                      more.sessions.end());
    p.attempted += more.attempted;
    p.errors += more.errors;
    p.refused += more.refused;
  }
  int64_t tasks = p.redone_tasks;
  int64_t rounds = 0;
  int64_t micro_dollars = 0;
  double f1_sum = 0.0;
  for (const auto& [key, out] : p.sessions) {
    tasks += out.tasks;
    rounds += out.rounds;
    micro_dollars += out.micro_dollars;
    f1_sum += out.f1;
  }

  // tasks on service_restart includes the redone work the client derives
  // from its step model; in traced passes the program's own per-phase task
  // counters must add up to the same figure.
  if (service && traced_passes > 0) {
    int64_t published = 0;
    for (int phase = 0; phase < kNumSessionPhases; ++phase) {
      published +=
          registry
              .counter(std::string("session.phase.") +
                       SessionPhaseName(static_cast<SessionPhase>(phase)) +
                       ".tasks")
              .Value();
    }
    if (published != tasks * traced_passes) {
      mismatch = "session.phase.*.tasks counted " + std::to_string(published) +
                 " tasks in " + std::to_string(traced_passes) +
                 " traced passes, against " + std::to_string(tasks) +
                 " per pass";
    }
  }
  if (!mismatch.empty()) {
    std::fprintf(stderr, "bench_e2e: output check failed: %s\n",
                 mismatch.c_str());
    return 1;
  }

  const double f1 = Ratio(f1_sum, static_cast<double>(p.sessions.size()));
  const double failed_share = Ratio(static_cast<double>(p.errors + p.refused),
                                    static_cast<double>(p.attempted));
  const double checkpoint_kb_per_session =
      Ratio(static_cast<double>(p.checkpoint_bundle_bytes) / 1000.0,
            static_cast<double>(p.checkpoint_sessions));

  std::vector<Metric> metrics;
  auto add = [&metrics](std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  if (!args.trace) {
    add("setup_s", Median(setup_s), "s");
    add("wall_s", CycleWallS(untraced_wall_s), "s");
    add("session_ms.p50", Median(untraced.session_ms), "ms");
    add("tasks", static_cast<double>(tasks), "count");
    add("rounds", static_cast<double>(rounds), "count");
    add("dollars", static_cast<double>(micro_dollars) / 1e6, "USD");
    add("f1", f1, "ratio");
    add("ok_share", 1.0 - failed_share, "ratio");
    add("peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB");
  } else {
    // Layer figures are per cycle (the whole workload once).
    const double n =
        static_cast<double>(traced_passes) / static_cast<double>(num_units);
    const std::map<std::string, double> self = log.SelfMs();
    auto self_ms = [&self, n](const std::string& name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second / n;
    };
    auto counter = [&registry, n](const std::string& name) {
      return static_cast<double>(registry.counter(name).Value()) / n;
    };
    auto steps = [&counter](const char* phase) {
      return counter(std::string("session.phase.") + phase + ".steps");
    };
    // Workload-level figures that exist on only some workloads, from the
    // untraced passes of this run.
    add("first_publish_ms.p50", Median(untraced.first_publish_ms), "ms");
    add("round_gap_ms.p50", Median(untraced.round_gap_ms), "ms");
    add("round_gap_ms.p90", Percentile(untraced.round_gap_ms, 90), "ms");
    add("session_ms.p95", Percentile(untraced.session_ms, 95), "ms");
    add("resume_s", Median(untraced.resume_s), "s");
    add("checkpoint_kb_per_session", checkpoint_kb_per_session, "KB");
    add("failed_share", failed_share, "ratio");
    // Layers.
    add("datagen.ms", Median(datagen_ms), "ms");
    add("cql.ms", Median(cql_ms), "ms");
    add("build.cdb.ms", self_ms("build_graph.expectation"), "ms");
    add("build.mincut.ms", self_ms("build_graph.sampling"), "ms");
    add("build.calls", steps("build_graph"), "count");
    const double candidates = counter("simjoin.candidates");
    const double rejects = counter("simjoin.signature_rejects");
    const double verified = counter("simjoin.verified");
    const double pairs = counter("simjoin.pairs");
    add("similarity.candidates", candidates, "count");
    add("similarity.signature_rejects", rejects, "count");
    add("similarity.verified", verified, "count");
    add("similarity.pairs", pairs, "count");
    add("similarity.reject_share", Ratio(rejects, candidates), "ratio");
    add("similarity.pair_yield", Ratio(pairs, verified), "ratio");
    add("graph.edges", static_cast<double>(counts.graph_edges) / n, "count");
    add("graph.vertices", static_cast<double>(counts.graph_vertices) / n,
        "count");
    add("select.ms", self_ms("select_tasks"), "ms");
    add("select.calls", steps("select_tasks"), "count");
    add("batch.ms", self_ms("batch_round"), "ms");
    add("batch.tasks_per_round",
        Ratio(static_cast<double>(counts.batch_tasks),
              static_cast<double>(counts.batches)),
        "count");
    add("publish.ms", self_ms("publish"), "ms");
    add("collect.ms", self_ms("collect"), "ms");
    const double leases = counter("crowd.leases_granted");
    const double answers = counter("crowd.answers_collected");
    const double duplicates = counter("crowd.duplicates");
    add("crowd.tasks_published", counter("crowd.tasks_published"), "count");
    add("crowd.hits", counter("crowd.hits_published"), "count");
    add("crowd.answers", answers, "count");
    add("crowd.leases", leases, "count");
    add("crowd.abandons", counter("crowd.abandons"), "count");
    add("crowd.expiries", counter("crowd.expiries"), "count");
    add("crowd.reposts", counter("crowd.reposts"), "count");
    add("crowd.dead_lettered", counter("crowd.dead_lettered"), "count");
    add("crowd.late_answers", counter("crowd.late_answers"), "count");
    add("crowd.duplicates", duplicates, "count");
    add("crowd.answer_yield", Ratio(answers - duplicates, leases), "ratio");
    add("infer.ms", self_ms("infer"), "ms");
    add("infer.calls", steps("infer"), "count");
    add("infer.observations",
        static_cast<double>(counts.infer_observations) / n, "count");
    add("quality.em_iterations", counter("quality.em.iterations"), "count");
    add("color.ms", self_ms("color"), "ms");
    add("graph.deduced_edges", counter("session.deduced_edges"), "count");
    add("graph.deduction_invalidations",
        counter("session.deduction_invalidations"), "count");
    add("graph.recolored_edges", counter("session.recolored_edges"), "count");
    add("graph.fallback_colored", counter("session.fallback_colored"), "count");
    add("prune.ms", self_ms("prune"), "ms");
    add("checkpoint.ms.p50", Median(traced.checkpoint_ms), "ms");
    add("checkpoint.bytes", Median(traced.checkpoint_bytes), "bytes");
    add("restore.ms", Median(traced.restore_ms), "ms");
    add("restore.sessions", static_cast<double>(p.restored_sessions), "count");
    add("restore.redone_tasks", static_cast<double>(p.redone_tasks), "count");
    add("wave.ms.p50", Median(traced.wave_ms), "ms");
    add("wave.ms.p99", Percentile(traced.wave_ms, 99), "ms");
    add("submit.us.p50", Median(traced.submit_us), "us");
    add("service.waves", static_cast<double>(p.waves), "count");
    add("service.steps", static_cast<double>(p.steps), "count");
    add("service.live_peak", static_cast<double>(p.live_peak), "count");
    add("service.rejected_queue", static_cast<double>(p.rejected_queue),
        "count");
    add("service.rejected_budget", static_cast<double>(p.rejected_budget),
        "count");
    // Self time of the benchmark's own container spans (pass, session): the
    // share of traced time no layer span accounts for.
    const double traced_ms = log.RootMs("pass");
    add("trace.unattributed_share",
        Ratio((self.count("pass") ? self.at("pass") : 0.0) +
                  (self.count("session") ? self.at("session") : 0.0),
              traced_ms),
        "ratio");
    add("trace.overhead_share",
        Ratio(CycleWallS(traced_wall_s), CycleWallS(untraced_wall_s)) - 1.0,
        "ratio");
    if (!args.trace_out.empty() && !log.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }

  // One JSON line: metrics, deterministic outputs, failure accounting.
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"passes\":%d,",
              args.workload.c_str(), args.seed, passes);
  std::printf("\"attempted\":%" PRId64 ",\"failed\":%" PRId64 ",\"metrics\":{",
              attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("},\"outputs\":{\"tasks\":%" PRId64 ",\"rounds\":%" PRId64
              ",\"micro_dollars\":%" PRId64 ",\"f1\":%.17g",
              tasks, rounds, micro_dollars, f1);
  if (service) {
    std::printf(",\"checkpoint_kb_per_session\":%.17g,"
                "\"redone_tasks\":%" PRId64,
                checkpoint_kb_per_session, p.redone_tasks);
  }
  std::printf(",\"sessions\":[");
  for (size_t i = 0; i < p.sessions.size(); ++i) {
    const SessionOutput& out = p.sessions[i].second;
    std::printf("%s[\"%s\",\"%016" PRIx64 "\",%" PRId64 ",%" PRId64 "]",
                i == 0 ? "" : ",", p.sessions[i].first.c_str(),
                out.ok ? out.digest : 0, out.tasks, out.rounds);
  }
  std::printf("]}}\n");
  return 0;
}

}  // namespace
}  // namespace bench_e2e
}  // namespace cdb

int main(int argc, char** argv) { return cdb::bench_e2e::Run(argc, argv); }
