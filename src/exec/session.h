// The phase-structured query session: Algorithm 1 (Appendix B) as an explicit
// state machine instead of a run-to-completion loop.
//
// A QuerySession advances one phase per Step():
//
//   BuildGraph -> SelectTasks -> BatchRound -> Publish -> Collect
//        ^                          |                        |
//        |                          v (nothing left)         v
//      Prune <- Color <- Infer <----+------------------------+
//        |
//        v (budget/rounds exhausted, or SelectTasks finds nothing)
//      Done
//
// Because every platform interaction happens inside a phase and phases carry
// their own state, a session can be paused between any two Step() calls,
// resumed later, and interleaved with other sessions — the property
// MultiQueryScheduler (scheduler.h) builds on. The phase bodies are the old
// CdbExecutor::Run loop cut at its natural seams, preserving the exact
// sequence of publishes, clock advances, and late-answer drains, so a
// standalone session is byte-identical to the pre-session executor: same
// tasks, same rounds, same PlatformStatsDump, at every thread count.
//
// All crowd traffic leaves through a TaskPublisher. PlatformPublisher is the
// production implementation (one CrowdPlatform or a MultiMarket deployment)
// and, together with the scheduler's shared-platform channel, the only code
// allowed to call CrowdPlatform::ExecuteRound (the `single-publish-path`
// lint rule enforces this).
#ifndef CDB_EXEC_SESSION_H_
#define CDB_EXEC_SESSION_H_

#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "cost/ledger.h"
#include "cost/structure_cache.h"
#include "cql/analyzer.h"
#include "crowd/platform.h"
#include "graph/candidates.h"
#include "graph/propagation.h"
#include "graph/pruning.h"
#include "graph/query_graph.h"
#include "latency/scheduler.h"
#include "quality/task_assignment.h"
#include "quality/truth_inference.h"

namespace cdb {

// Simulation oracle: the true answer of an edge's yes/no task.
using EdgeTruthFn = std::function<bool(const QueryGraph&, EdgeId)>;

enum class CostMethod {
  kExpectation,  // Eq. 1 scores (the CDB default).
  kSampling,     // Sample-based min-cut greedy (the MinCut method).
};

// Requester-side robustness policy against an unreliable crowd (see
// PlatformOptions::fault): when a round comes back short — tasks
// dead-lettered by the platform or below the effective redundancy — the
// Collect phase reposts the shortfall with capped exponential backoff (the
// backoff advances the platform's virtual clock, modeling the requester
// waiting before republishing).
struct RetryOptions {
  bool enabled = true;
  int max_reposts = 3;             // Repost attempts per round.
  int64_t backoff_base_ticks = 2;  // Backoff before attempt k: base << (k-1),
  int64_t backoff_max_ticks = 64;  // capped here.
};

// Answer propagation (ROADMAP item 3; graph/propagation.h): fold each
// round's crowd-evidenced colors into per-predicate match clusters and
// deduce still-unknown edges by transitivity/anti-transitivity before the
// next selection runs, so deducible edges are never published. With it on,
// each round's base cost-control order also defers duplicates: a task whose
// (predicate, endpoint-cluster pair) already has an earlier task in the
// order moves, order kept, behind the first task of every pair — one answer
// for the first task resolves its pair's other edges by deduction, so a
// duplicate's expected yield is ~0. Off by default: the propagation-off
// executor is byte-identical to the pre-propagation one.
struct PropagationOptions {
  bool enabled = false;
};

// How an edge's current color came to be (answer-propagation bookkeeping).
// Only kAsked colors feed the deduction domains: fallback colors are
// similarity-prior guesses, and treating a guess as a fact could merge two
// clusters a crowd answer separated.
enum class EdgeProvenance : uint8_t {
  kNone = 0,      // Uncolored, or a born-colored traditional edge.
  kAsked = 1,     // Crowd evidence (truth inference over real answers).
  kDeduced = 2,   // Transitive/anti-transitive deduction; no crowd evidence.
  kFallback = 3,  // Similarity-prior fallback; no crowd evidence either.
};

struct ExecutorOptions {
  CostMethod cost_method = CostMethod::kExpectation;
  bool quality_control = false;  // CDB+: EM inference + entropy assignment.
  LatencyMode latency_mode = LatencyMode::kVertexGreedy;
  double greedy_round_fraction = 0.34;  // See SelectParallelRound.
  GraphOptions graph;
  PlatformOptions platform;
  // Cross-market deployment (Section 2.2): when non-empty, tasks are
  // partitioned across these simulated markets instead of `platform`.
  std::vector<PlatformOptions> markets;
  // Golden tasks (Appendix E): with quality_control on, publish this many
  // known-truth warm-up tasks first and initialize worker qualities from the
  // answers (instead of the flat 0.7 prior).
  int golden_tasks = 0;
  int sampling_samples = 100;
  // Threads for the optimizer's parallel stages (sampling min-cut, EM truth
  // inference; graph.num_threads covers the build-time similarity joins):
  // <= 0 = all hardware threads, 1 = the exact serial path. Results are
  // bit-identical at every setting.
  int num_threads = 0;
  std::optional<int64_t> budget;     // Budget-aware mode (Section 5.1.3).
  std::optional<int> round_limit;    // Figure-22 latency constraint.
  RetryOptions retry;                // Timeout/repost policy under faults.
  PropagationOptions propagation;    // Transitive deduction (off = legacy).
  // Observability sinks (borrowed, may be null = disabled). Propagated into
  // the owned platform/markets; the session itself publishes its
  // ExecutionStats as `session.*` counters when Step(), DeliverAnswers() or
  // RecordDedupSavings() returns, and emits one tick-keyed span per Step().
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

// The session phases, in Step() order. kDone is terminal.
enum class SessionPhase : uint8_t {
  kBuildGraph = 0,  // Graph + pruner + sampling order + golden warm-up.
  kSelectTasks,     // Late-answer reconciliation + cost-control ordering.
  kBatchRound,      // Latency-control round selection + budget debit.
  kPublish,         // Hand the round's tasks to the TaskPublisher.
  kCollect,         // Requester-side shortfall reposts (RetryOptions).
  kInfer,           // Truth inference over all observations.
  kColor,           // Color this round's edges (fallback: similarity prior).
  kPrune,           // Pruner recompute + termination checks.
  kDone,
};

inline constexpr int kNumSessionPhases = 9;

const char* SessionPhaseName(SessionPhase phase);

// Per-phase accounting: how often the phase ran, and the tasks handed to the
// publisher / answers received (pre-dedup, late ones included) while it was
// the active phase.
struct PhaseCounters {
  int64_t steps = 0;
  int64_t tasks = 0;
  int64_t answers = 0;
};

struct ExecutionStats {
  int64_t tasks_asked = 0;
  int64_t rounds = 0;
  int64_t worker_answers = 0;
  int64_t hits_published = 0;
  double dollars_spent = 0.0;
  double selection_ms = 0.0;  // Time in task selection + round scheduling.
  std::vector<int64_t> round_sizes;
  // Fault-robustness accounting (all zero with a clean crowd).
  int64_t reposted_tasks = 0;    // Requester-side reposts published.
  int64_t late_answers = 0;      // Late answers reconciled into inference.
  int64_t recolored_edges = 0;   // Colors flipped by late-answer evidence.
  int64_t fallback_colored = 0;  // Edges colored by majority-so-far/prior
                                 // because inference had no answers for them.
  // Tasks that stayed below effective redundancy after the retry budget ran
  // out (sorted, unique). The DST harness exempts these from the
  // answers-per-task invariant.
  std::vector<int64_t> starved_task_ids;
  // Unique (task, worker) observations per published task id; lets tests
  // relate result quality to the evidence inference actually saw.
  std::map<int64_t, int64_t> unique_answers_per_task;
  // Per-phase step/task/answer counters, indexed by SessionPhase.
  std::array<PhaseCounters, kNumSessionPhases> phases{};
  // Tasks this session wanted that MultiQueryScheduler served from another
  // session's identical ask instead of publishing again (0 standalone).
  int64_t dedup_tasks_saved = 0;
  // Answer propagation (0 with propagation off): edges colored by
  // transitive/anti-transitive deduction instead of a crowd ask, and deduced
  // colors invalidated because late evidence flipped a premise (cumulative;
  // an edge re-deduced after an invalidation counts in both).
  int64_t deduced_edges = 0;
  int64_t deduction_invalidations = 0;
  // Final platform-side accounting (combined across markets); the DST
  // harness checks its conservation laws and byte-dumps it for determinism
  // comparisons.
  PlatformStats platform;
};

// The ExecutionStats fields a session publishes as `session.<name>`
// counters. The rest are per-session results: the platform totals are
// `crowd.*` already, and the phase counters publish under kPhaseStatFields.
inline constexpr StatField<ExecutionStats> kSessionStatFields[] = {
    {"rounds", &ExecutionStats::rounds},
    {"retry.reposted_tasks", &ExecutionStats::reposted_tasks},
    {"late_answers", &ExecutionStats::late_answers},
    {"recolored_edges", &ExecutionStats::recolored_edges},
    {"fallback_colored", &ExecutionStats::fallback_colored},
    {"dedup_tasks_saved", &ExecutionStats::dedup_tasks_saved},
    {"deduced_edges", &ExecutionStats::deduced_edges},
    {"deduction_invalidations", &ExecutionStats::deduction_invalidations},
};

// Every PhaseCounters field, published as `session.phase.<phase>.<name>`.
inline constexpr StatField<PhaseCounters> kPhaseStatFields[] = {
    {"steps", &PhaseCounters::steps},
    {"tasks", &PhaseCounters::tasks},
    {"answers", &PhaseCounters::answers},
};
static_assert(sizeof(PhaseCounters) ==
                  std::size(kPhaseStatFields) * sizeof(int64_t),
              "every PhaseCounters field needs a kPhaseStatFields row");

// One result tuple: the row index per base relation.
struct QueryAnswer {
  std::vector<int64_t> rows;

  friend bool operator==(const QueryAnswer& a, const QueryAnswer& b) {
    return a.rows == b.rows;
  }
  friend bool operator<(const QueryAnswer& a, const QueryAnswer& b) {
    return a.rows < b.rows;
  }
};

struct ExecutionResult {
  std::vector<QueryAnswer> answers;
  ExecutionStats stats;
};

// Where a session's crowd traffic goes. Publish() blocks until the round
// resolves and returns the on-time answers; the remaining calls mirror the
// CrowdPlatform fault-layer surface.
class TaskPublisher {
 public:
  virtual ~TaskPublisher() = default;

  virtual Result<std::vector<Answer>> Publish(
      const std::vector<Task>& tasks, const AssignmentPolicy* policy,
      const AnswerObserver* observer) = 0;
  virtual std::vector<Answer> TakeLateAnswers() = 0;
  virtual std::vector<TaskId> TakeDeadLetters() = 0;
  virtual void AdvanceTicks(int64_t ticks) = 0;
  // The redundancy a task can actually reach: the configured redundancy
  // capped by the worker-pool size (min across markets for a deployment).
  virtual int effective_redundancy() const = 0;
  virtual PlatformStats stats() const = 0;
};

// The production publisher: a single simulated platform or a cross-market
// deployment (Section 2.2) behind the uniform TaskPublisher surface.
class PlatformPublisher : public TaskPublisher {
 public:
  // Uses `markets` when non-empty, else `platform`.
  PlatformPublisher(const PlatformOptions& platform,
                    const std::vector<PlatformOptions>& markets,
                    TruthProvider truth);
  PlatformPublisher(const PlatformOptions& platform, TruthProvider truth)
      : PlatformPublisher(platform, {}, std::move(truth)) {}

  Result<std::vector<Answer>> Publish(const std::vector<Task>& tasks,
                                      const AssignmentPolicy* policy,
                                      const AnswerObserver* observer) override;
  std::vector<Answer> TakeLateAnswers() override;
  std::vector<TaskId> TakeDeadLetters() override;
  void AdvanceTicks(int64_t ticks) override;
  int effective_redundancy() const override;
  PlatformStats stats() const override;

  // Snapshot/restore of the wrapped deployment's cross-round state (see
  // CrowdPlatform::SnapshotState).
  void SnapshotState(ByteWriter& writer) const;
  Status RestoreState(ByteReader& reader);

  // The wrapped single platform; null for a multi-market deployment.
  CrowdPlatform* single_platform() { return single_.get(); }

 private:
  std::unique_ptr<CrowdPlatform> single_;
  std::unique_ptr<MultiMarket> multi_;
};

// One query's crowdsourcing run as a resumable state machine. See the file
// comment for the phase diagram.
//
// Thread affinity: driver-serial — a session is stepped by exactly one
// driver thread (its own Run loop, or the MultiQueryScheduler's round loop)
// and holds no locks. Parallelism lives below it (ParallelFor stages inside
// graph build/sampling) and beside it (the shared BudgetLedger, whose
// single-acquisition TryDebit/TrySpend calls are the session's only
// concurrency-safe touch points).
class QuerySession {
 public:
  // Standalone: the session builds its own PlatformPublisher from
  // options.platform / options.markets and drives rounds itself.
  // `query` (and the tables it borrows) must outlive the session.
  QuerySession(const ResolvedQuery* query, const ExecutorOptions& options,
               EdgeTruthFn truth);

  // Scheduler mode: crowd traffic goes through `publisher` (borrowed, must
  // outlive the session). The session parks at kPublish with pending_tasks()
  // exposed until the scheduler calls DeliverAnswers(); golden warm-up and
  // Collect-phase reposts still go through `publisher` directly.
  QuerySession(const ResolvedQuery* query, const ExecutorOptions& options,
               EdgeTruthFn truth, TaskPublisher* publisher);

  ~QuerySession();
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  // Advances exactly one phase. Returns true while the session has more work
  // and false once it is done. Must not be called while
  // waiting_for_answers(); RunToCompletion() and the scheduler handle that.
  Result<bool> Step();

  // Steps the session to completion (standalone sessions only) and returns
  // the result.
  Result<ExecutionResult> RunToCompletion();

  SessionPhase phase() const { return phase_; }
  bool done() const { return phase_ == SessionPhase::kDone; }

  // Scheduler mode: true when the session sits at kPublish with a round
  // ready; the scheduler reads pending_tasks(), publishes them (merged and
  // deduplicated with other sessions), and resumes via DeliverAnswers().
  bool waiting_for_answers() const;
  const std::vector<Task>& pending_tasks() const { return round_tasks_; }
  void DeliverAnswers(const std::vector<Answer>& answers);

  // Ground truth for one of this session's tasks (golden or edge); the
  // scheduler's shared platform routes truth lookups back here.
  TaskTruth TaskTruthFor(const Task& task) const;

  // Scheduler accounting hook: this many of the session's asks were served
  // by another session's identical task.
  void RecordDedupSavings(int64_t tasks_saved);

  // True when `task` is one of this session's edge tasks and its edge
  // currently holds a deduced (not crowd-evidenced) color. The scheduler's
  // answer fan-out skips such sessions: a deduced color makes the shared
  // answer redundant, and serving it anyway would double-charge the dedup
  // ledger (scheduler.dedup_tasks_saved counts the skip instead).
  bool HoldsDeducedColorFor(TaskId task) const;

  // Provenance of edge `e`'s current color (tests and invariant sweeps).
  EdgeProvenance edge_provenance(EdgeId e) const {
    return static_cast<EdgeProvenance>(edge_provenance_[static_cast<size_t>(e)]);
  }

  // The final result; valid once done(). Leaves the session drained.
  ExecutionResult TakeResult();

  const QueryGraph& graph() const { return graph_; }
  const ExecutionStats& stats() const { return result_.stats; }

  // --- Durable snapshot/resume (the service-layer checkpoint format) ---
  //
  // Snapshot() serializes every byte of cross-step session state — phase,
  // graph edge colors, quality-control observations and posteriors, budget
  // spend, round bookkeeping, accumulated stats, and (standalone sessions)
  // the owned platform's rng/clock/lease state — into a versioned,
  // checksummed blob. The dump is deterministic: equal state produces equal
  // bytes, at any thread count.
  //
  // Restore() rehydrates a freshly-constructed session (same query, options,
  // and truth oracle as the snapshotted one) from such a blob. The query
  // graph is not serialized; it is rebuilt deterministically from the query
  // and the snapshot's colors are re-applied, so a blob stays small while
  // restore-then-run remains byte-identical to run-straight-through — the
  // crash-point sweep in tests/service_test.cc proves this at every phase
  // boundary, clean and faulty, at 1 and 8 threads.
  //
  // Errors are typed, never crashes: a truncated or bit-flipped blob yields
  // kDataLoss, an unknown snapshot version kFailedPrecondition, and a blob
  // from a mismatched platform configuration kFailedPrecondition.
  //
  // Scheduler-mode caveat: a session publishing through an external
  // TaskPublisher snapshots its own state only — the shared platform belongs
  // to the scheduler. Snapshot() must not be called while
  // waiting_for_answers() (the merge barrier owes the session a round).
  [[nodiscard]] std::string Snapshot() const;
  Status Restore(std::string_view blob);

  // The snapshot format version Snapshot() writes (bumped on any layout
  // change; Restore() rejects other versions with a typed error).
  // Version 2 added per-edge color provenance and the propagation counters.
  static constexpr uint32_t kSnapshotVersion = 2;

 private:
  // Runs the body of `phase` (Step() wraps this with per-phase accounting).
  Result<bool> DispatchPhase(SessionPhase phase);
  Result<bool> StepBuildGraph();
  Result<bool> StepSelectTasks();
  Result<bool> StepBatchRound();
  Result<bool> StepPublish();
  Result<bool> StepCollect();
  Result<bool> StepInfer();
  Result<bool> StepColor();
  Result<bool> StepPrune();
  // Terminal transition: final late-answer reconciliation + result assembly.
  Result<bool> Finish();

  // Unique-(task, worker) guard: the fault layer can deliver duplicate and
  // late copies of an answer, and requester reposts can reach workers that
  // already answered; inference must see each observation once. Returns the
  // number of observations actually added.
  int64_t Absorb(const std::vector<Answer>& batch);
  InferenceResult InferAll();
  void ReconcileLate();
  // Answer propagation (all no-ops unless options_.propagation.enabled):
  // colors every unknown crowd edge the deduction domains imply (one
  // ascending sweep is the full closure — Deduce() never mutates the
  // domains, and a deduced color adds nothing they do not already imply).
  void PropagateDeductions();
  // Invalidate-and-rederive after crowd evidence changed: uncolors every
  // deduced edge, resets the domains, re-observes the crowd-evidenced
  // colors, and re-runs the sweep.
  void RebuildDeductions();
  // Stable-sorts ordered_ by descending expected deduction yield.
  void ReorderByDeductionYield();
  std::vector<Task> MakeTasks(const std::vector<EdgeId>& edges) const;
  std::string EdgeValueString(VertexId v, int pred) const;
  PhaseCounters& Counters() {
    return result_.stats.phases[static_cast<size_t>(phase_)];
  }
  // Deliveries received (fan-out copies and late answers included, before
  // dedup): the sum of the phase `answers` counters.
  int64_t AnswersReceived() const;
  // Publishes result_.stats into the registry (see StatsMirror); every
  // public call that writes the stats ends with it.
  void PublishStats();

  // Registry handles of the counters with no ExecutionStats field, written
  // where they happen (all null when options_.metrics is unset).
  struct SessionMetrics {
    Counter* retry_waves = nullptr;
    Counter* backoff_ticks = nullptr;
    Counter* starved_tasks = nullptr;
    Histogram* round_size = nullptr;
  };

  // Every QuerySession member must either be handled by Snapshot()/Restore()
  // (named in exec/session_snapshot.cc) or carry a
  // `// cdb-snapshot: transient(<reason>)` marker — the snapshot-discipline
  // lint rule fails the build otherwise, so state silently dropped from
  // checkpoints cannot happen by accident.
  // cdb-snapshot: transient(borrowed query; the restoring caller supplies it)
  const ResolvedQuery* query_;
  // cdb-snapshot: transient(construction input; restore requires equal options)
  ExecutorOptions options_;
  // cdb-snapshot: transient(registry handles; re-registered at construction)
  SessionMetrics metrics_;
  // Registry views of result_.stats: kSessionStatFields and one
  // kPhaseStatFields mirror per phase. Restore() rebases them.
  StatsMirror<ExecutionStats> stats_mirror_;
  std::array<StatsMirror<PhaseCounters>, kNumSessionPhases> phase_mirrors_;
  // cdb-snapshot: transient(oracle callback; the restoring caller supplies it)
  EdgeTruthFn truth_;
  QueryGraph graph_;
  std::optional<Pruner> pruner_;
  // Per-edge EdgeProvenance values, sized with the graph; serialized so a
  // restored session knows which colors are deductions.
  std::vector<uint8_t> edge_provenance_;
  // cdb-snapshot: transient(pure index over the graph's colors and
  // edge_provenance_; Restore() re-observes the crowd-evidenced colors in
  // ascending edge order, which rebuilds the same partition and fact set —
  // both are order-independent in the observed edge set)
  std::optional<DeductionState> deduction_;
  // cdb-snapshot: transient(color-independent optimizer structures; rebuilt
  // deterministically from the restored graph, never serialized)
  std::optional<StructureCache> structure_cache_;

  std::unique_ptr<PlatformPublisher> owned_publisher_;
  // cdb-snapshot: transient(alias set at construction; points at
  // owned_publisher_ or the scheduler's external channel, never replaced)
  TaskPublisher* publisher_ = nullptr;
  bool external_publish_ = false;

  // Quality-control state (CDB+): accumulated observations, EM worker
  // qualities carried across rounds, and live posteriors for the assigner.
  std::vector<ChoiceObservation> all_observations_;
  std::map<int, double> worker_quality_;
  std::map<TaskId, std::vector<double>> posteriors_;
  // The Eq.-3 assigner; every posterior write of a round goes through its
  // Observe(). cdb-snapshot: transient(per-round score memo over
  // posteriors_/worker_quality_; Restore() re-opens the round and the rows
  // refill on first use)
  EntropyAssigner assigner_;
  // cdb-snapshot: transient(forwards to assigner_; bound in the constructor)
  AssignmentPolicy policy_;
  // cdb-snapshot: transient(forwards to assigner_.Observe(); bound in the
  // constructor)
  AnswerObserver observer_;

  std::set<std::pair<TaskId, int>> seen_observations_;
  std::vector<EdgeId> sampling_order_;
  BudgetLedger budget_;

  SessionPhase phase_ = SessionPhase::kBuildGraph;
  std::vector<EdgeId> ordered_;      // SelectTasks -> BatchRound.
  std::vector<EdgeId> round_edges_;  // BatchRound -> Color.
  std::vector<Task> round_tasks_;    // BatchRound -> Publish/Collect.
  InferenceResult inference_;        // Infer -> Color.
  ExecutionResult result_;
};

// Converts graph assignments to base-relation row answers (sorted, unique).
std::vector<QueryAnswer> AssignmentsToAnswers(const QueryGraph& graph,
                                              const std::vector<Assignment>& as);

}  // namespace cdb

#endif  // CDB_EXEC_SESSION_H_
