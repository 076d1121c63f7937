#include "exec/session.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "cost/budget.h"
#include "cost/expectation.h"
#include "cost/sampling.h"

namespace cdb {
namespace {

// Null counter (metrics disabled) = no-op.
inline void Bump(Counter* counter, int64_t delta = 1) {
  if (counter != nullptr && delta != 0) counter->Increment(delta);
}

// Marker payload for golden warm-up tasks: strictly negative; the known
// truth is parity of the id.
int GoldenTruthChoice(int64_t payload) {
  return static_cast<int>((-payload) % 2);
}

}  // namespace

const char* SessionPhaseName(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kBuildGraph: return "build_graph";
    case SessionPhase::kSelectTasks: return "select_tasks";
    case SessionPhase::kBatchRound: return "batch_round";
    case SessionPhase::kPublish: return "publish";
    case SessionPhase::kCollect: return "collect";
    case SessionPhase::kInfer: return "infer";
    case SessionPhase::kColor: return "color";
    case SessionPhase::kPrune: return "prune";
    case SessionPhase::kDone: return "done";
  }
  return "unknown";
}

QuerySession::QuerySession(const ResolvedQuery* query,
                           const ExecutorOptions& options, EdgeTruthFn truth)
    : QuerySession(query, options, std::move(truth), nullptr) {}

QuerySession::QuerySession(const ResolvedQuery* query,
                           const ExecutorOptions& options, EdgeTruthFn truth,
                           TaskPublisher* publisher)
    : query_(query),
      options_(options),
      stats_mirror_(options.metrics, "session.", kSessionStatFields),
      truth_(std::move(truth)),
      assigner_(&posteriors_, &worker_quality_, /*num_choices=*/2),
      budget_(options.budget) {
  // Observability propagates downward: the owned platform/markets mirror
  // into the same registry and tracer the session was handed.
  options_.platform.metrics = options_.metrics;
  options_.platform.tracer = options_.tracer;
  for (PlatformOptions& market : options_.markets) {
    market.metrics = options_.metrics;
    market.tracer = options_.tracer;
  }
  for (int p = 0; p < kNumSessionPhases; ++p) {
    phase_mirrors_[static_cast<size_t>(p)] = StatsMirror<PhaseCounters>(
        options_.metrics,
        std::string("session.phase.") +
            SessionPhaseName(static_cast<SessionPhase>(p)) + ".",
        kPhaseStatFields);
  }
  if (options_.metrics != nullptr) {
    MetricsRegistry& reg = *options_.metrics;
    metrics_.retry_waves = &reg.counter("session.retry.waves");
    metrics_.backoff_ticks = &reg.counter("session.retry.backoff_ticks");
    metrics_.starved_tasks = &reg.counter("session.retry.starved_tasks");
    metrics_.round_size = &reg.histogram("session.round_size");
  }
  policy_ = [this](const SimulatedWorker& worker,
                   const std::vector<TaskId>& available, int count) {
    return assigner_(worker, available, count);
  };
  observer_ = [this](const Answer& answer) { assigner_.Observe(answer); };
  if (publisher == nullptr) {
    // TaskId == EdgeId by construction; negative payloads mark golden
    // warm-up tasks.
    owned_publisher_ = std::make_unique<PlatformPublisher>(
        options_.markets.empty()
            ? std::vector<PlatformOptions>{options_.platform}
            : options_.markets,
        [this](const Task& task) { return TaskTruthFor(task); });
    publisher = owned_publisher_.get();
  }
  publisher_ = publisher;
}

QuerySession::~QuerySession() = default;

TaskTruth QuerySession::TaskTruthFor(const Task& task) const {
  TaskTruth truth;
  if (task.payload < 0) {
    truth.correct_choice = GoldenTruthChoice(task.payload);
  } else {
    truth.correct_choice =
        truth_(graph_, static_cast<EdgeId>(task.payload)) ? 0 : 1;
  }
  return truth;
}

Result<bool> QuerySession::Step() {
  if (phase_ == SessionPhase::kDone) return false;
  const SessionPhase entry = phase_;
  const int64_t tick_begin =
      options_.tracer != nullptr ? publisher_->stats().ticks : 0;
  WallTimer wall;
  // Everything the phase body accounts (including reposts and late-answer
  // reconciliation inside it) lands on the entry phase.
  ++Counters().steps;
  Result<bool> more = DispatchPhase(entry);
  PublishStats();
  if (options_.tracer != nullptr) {
    options_.tracer->AddSpan(
        std::string("session.") + SessionPhaseName(entry), "session",
        tick_begin, publisher_->stats().ticks, wall.ElapsedMicros());
  }
  return more;
}

Result<bool> QuerySession::DispatchPhase(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kBuildGraph: return StepBuildGraph();
    case SessionPhase::kSelectTasks: return StepSelectTasks();
    case SessionPhase::kBatchRound: return StepBatchRound();
    case SessionPhase::kPublish: return StepPublish();
    case SessionPhase::kCollect: return StepCollect();
    case SessionPhase::kInfer: return StepInfer();
    case SessionPhase::kColor: return StepColor();
    case SessionPhase::kPrune: return StepPrune();
    case SessionPhase::kDone: return false;
  }
  return Status::Internal("unreachable session phase");
}

Result<ExecutionResult> QuerySession::RunToCompletion() {
  CDB_CHECK_MSG(owned_publisher_ != nullptr,
                "RunToCompletion drives standalone sessions only; "
                "scheduler-mode sessions are stepped by MultiQueryScheduler");
  while (true) {
    CDB_ASSIGN_OR_RETURN(bool more, Step());
    if (!more) break;
  }
  return TakeResult();
}

ExecutionResult QuerySession::TakeResult() {
  CDB_CHECK(done());
  return std::move(result_);
}

void QuerySession::RecordDedupSavings(int64_t tasks_saved) {
  result_.stats.dedup_tasks_saved += tasks_saved;
  PublishStats();
}

int64_t QuerySession::AnswersReceived() const {
  int64_t total = 0;
  for (const PhaseCounters& counters : result_.stats.phases) {
    total += counters.answers;
  }
  return total;
}

void QuerySession::PublishStats() {
  stats_mirror_.Publish(result_.stats);
  for (size_t p = 0; p < phase_mirrors_.size(); ++p) {
    phase_mirrors_[p].Publish(result_.stats.phases[p]);
  }
}

Result<bool> QuerySession::StepBuildGraph() {
  // Route the session's metrics registry into the sim-join funnel counters
  // (simjoin.*) unless the caller already wired a sink of its own.
  GraphOptions graph_options = options_.graph;
  if (graph_options.sim_metrics == nullptr) {
    graph_options.sim_metrics = options_.metrics;
  }
  CDB_ASSIGN_OR_RETURN(graph_, QueryGraph::Build(*query_, graph_options));
  pruner_.emplace(&graph_);
  edge_provenance_.assign(static_cast<size_t>(graph_.num_edges()),
                          static_cast<uint8_t>(EdgeProvenance::kNone));
  if (options_.propagation.enabled) deduction_.emplace(&graph_);

  // Golden warm-up (Appendix E): estimate worker qualities from known-truth
  // tasks before any query task is assigned.
  if (options_.quality_control && options_.golden_tasks > 0) {
    std::vector<Task> golden;
    std::map<TaskId, int> golden_truths;
    for (int k = 0; k < options_.golden_tasks; ++k) {
      Task task = MakeYesNoTask(-(k + 1), -(k + 1), "golden warm-up");
      golden_truths[task.id] = GoldenTruthChoice(task.payload);
      golden.push_back(std::move(task));
    }
    std::vector<ChoiceObservation> golden_observations;
    CDB_ASSIGN_OR_RETURN(std::vector<Answer> golden_answers,
                         publisher_->Publish(golden, nullptr, nullptr));
    Counters().tasks += static_cast<int64_t>(golden.size());
    Counters().answers += static_cast<int64_t>(golden_answers.size());
    for (const Answer& answer : golden_answers) {
      golden_observations.push_back(
          ChoiceObservation{answer.task, answer.worker, answer.choice});
    }
    worker_quality_ = QualityFromGoldenTasks(golden_observations, golden_truths);
  }

  // Sampling order is computed once (the paper fixes the sample-derived order
  // and consumes it with pruning).
  if (!options_.budget && options_.cost_method == CostMethod::kSampling) {
    WallTimer timer;
    SamplingOptions sampling{options_.sampling_samples,
                             options_.platform.seed ^ 0x5eedULL,
                             options_.num_threads};
    // The color-independent selection skeleton is built once per graph and
    // shared read-only across the sampler's workers (and rebuilt after a
    // snapshot restore — it is transient state).
    structure_cache_.emplace(StructureCache::Build(graph_));
    sampling_order_ = SampleMinCutOrder(graph_, sampling, &*structure_cache_);
    result_.stats.selection_ms += timer.ElapsedMs();
  }

  phase_ = SessionPhase::kSelectTasks;
  return true;
}

Result<bool> QuerySession::StepSelectTasks() {
  ReconcileLate();

  // Cost control: order the tasks still worth asking.
  WallTimer timer;
  ordered_.clear();
  if (options_.budget) {
    ordered_ = BudgetNextBatch(graph_);
  } else if (options_.cost_method == CostMethod::kExpectation) {
    for (const ScoredEdge& se : ExpectationOrder(graph_, *pruner_)) {
      ordered_.push_back(se.edge);
    }
  } else {
    for (EdgeId e : sampling_order_) {
      if (graph_.edge(e).color == EdgeColor::kUnknown && pruner_->EdgeValid(e)) {
        ordered_.push_back(e);
      }
    }
  }
  // Deduction-aware ordering hook: the base cost-control order breaks ties;
  // asks that stand to resolve the most other edges move to the front.
  if (options_.propagation.enabled) ReorderByDeductionYield();
  result_.stats.selection_ms += timer.ElapsedMs();

  if (ordered_.empty()) return Finish();
  phase_ = SessionPhase::kBatchRound;
  return true;
}

Result<bool> QuerySession::StepBatchRound() {
  // Latency control: pick this round's non-conflicting batch; in budget mode
  // the whole candidate batch is taken but the ledger caps the spend up
  // front, so requester-side reposts draw from the same budget (every
  // published task is a spend).
  WallTimer timer;
  round_edges_.clear();
  if (options_.budget) {
    round_edges_ = ordered_;
    int64_t granted = budget_.TryDebit(static_cast<int64_t>(round_edges_.size()));
    round_edges_.resize(static_cast<size_t>(granted));
  } else if (options_.round_limit &&
             result_.stats.rounds >=
                 static_cast<int64_t>(*options_.round_limit) - 1) {
    // Last permitted round: flush everything that is left.
    round_edges_ = ordered_;
  } else {
    round_edges_ =
        SelectParallelRound(graph_, *pruner_, ordered_, options_.latency_mode);
  }
  result_.stats.selection_ms += timer.ElapsedMs();
  if (round_edges_.empty()) return Finish();

  round_tasks_ = MakeTasks(round_edges_);
  if (options_.quality_control) {
    for (const Task& task : round_tasks_) {
      double w = graph_.edge(static_cast<EdgeId>(task.payload)).weight;
      posteriors_[task.id] = {w, 1.0 - w};  // Similarity as the prior.
    }
    assigner_.BeginRound(round_tasks_);
  }
  phase_ = SessionPhase::kPublish;
  return true;
}

Result<bool> QuerySession::StepPublish() {
  CDB_RETURN_IF_ERROR(PublishAndAbsorb(round_tasks_));
  phase_ = SessionPhase::kCollect;
  return true;
}

Result<bool> QuerySession::StepCollect() {
  // Requester-side timeout/repost: top up tasks the platform returned short
  // (abandoned, expired, dead-lettered) with capped exponential backoff.
  // Each repost publishes only the shortfall. In scheduler mode the channel
  // publishes reposts at once: a shortfall is private to the session that
  // observed it.
  ExecutionStats& stats = result_.stats;
  if (options_.retry.enabled) {
    const int effective_redundancy = publisher_->effective_redundancy();
    for (int attempt = 1; attempt <= kMaxReposts; ++attempt) {
      publisher_->DropDeadLetters();  // Shortfall recomputed below.
      std::vector<Task> reposts;
      for (const Task& task : round_tasks_) {
        auto it = stats.unique_answers_per_task.find(task.id);
        int64_t have = it == stats.unique_answers_per_task.end() ? 0
                                                                 : it->second;
        if (have >= effective_redundancy) continue;
        Task repost = task;
        repost.redundancy_override =
            static_cast<int>(effective_redundancy - have);
        reposts.push_back(std::move(repost));
      }
      if (reposts.empty()) break;
      if (options_.budget) {
        int64_t granted = budget_.TryDebit(static_cast<int64_t>(reposts.size()));
        if (granted == 0) break;  // Flush partial: no budget to retry.
        reposts.resize(static_cast<size_t>(granted));
      }
      int64_t backoff = kBackoffBaseTicks << (attempt - 1);
      backoff = std::min(backoff, kBackoffMaxTicks);
      publisher_->AdvanceTicks(backoff);
      Bump(metrics_.retry_waves);
      Bump(metrics_.backoff_ticks, backoff);
      CDB_RETURN_IF_ERROR(PublishAndAbsorb(reposts));
      stats.reposted_tasks += static_cast<int64_t>(reposts.size());
    }
    for (const Task& task : round_tasks_) {
      auto it = stats.unique_answers_per_task.find(task.id);
      int64_t have = it == stats.unique_answers_per_task.end() ? 0
                                                               : it->second;
      if (have < effective_redundancy) {
        stats.starved_task_ids.push_back(task.id);
        Bump(metrics_.starved_tasks);
      }
    }
  }
  phase_ = SessionPhase::kInfer;
  return true;
}

Result<bool> QuerySession::StepInfer() {
  if (options_.quality_control) {
    inference_ = InferEm();
  } else {
    // Only the tasks answered since the last Infer change their row.
    observations_.UpdateMajority(2, &inference_);
  }
  phase_ = SessionPhase::kColor;
  return true;
}

Result<bool> QuerySession::StepColor() {
  const bool propagate = options_.propagation.enabled;
  // Crowd-evidenced edges first: their colors are the facts the deduction
  // domains fold in before anything is deduced from them.
  std::vector<EdgeId> answerless;
  for (EdgeId e : round_edges_) {
    int truth_choice = inference_.Truth(e);
    if (propagate && truth_choice < 0) {
      answerless.push_back(e);
      continue;
    }
    EdgeColor color;
    EdgeProvenance provenance;
    if (truth_choice >= 0) {
      color = truth_choice == 0 ? EdgeColor::kBlue : EdgeColor::kRed;
      provenance = EdgeProvenance::kAsked;
    } else {
      // Graceful degradation: no answers ever arrived for this edge (task
      // starved or budget exhausted mid-round). Color by the
      // majority-so-far — with zero observations that is the similarity
      // prior — instead of aborting the query.
      ++result_.stats.fallback_colored;
      color = graph_.edge(e).weight >= 0.5 ? EdgeColor::kBlue
                                           : EdgeColor::kRed;
      provenance = EdgeProvenance::kFallback;
    }
    graph_.SetColor(e, color);
    edge_provenance_[static_cast<size_t>(e)] = static_cast<uint8_t>(provenance);
    if (propagate) deduction_->Observe(e, color);
  }
  // Answerless round edges (starved, budget-denied, dedup-dropped): this
  // round's answers may already imply their color, which beats the
  // similarity-prior fallback. A deduced color keeps kDeduced provenance —
  // the edge was published, so a late answer for it can still arrive and
  // promote it to crowd evidence (ReconcileLate).
  for (EdgeId e : answerless) {
    EdgeColor color = deduction_->Deduce(e);
    EdgeProvenance provenance;
    if (color != EdgeColor::kUnknown) {
      provenance = EdgeProvenance::kDeduced;
      ++result_.stats.deduced_edges;
    } else {
      ++result_.stats.fallback_colored;
      color = graph_.edge(e).weight >= 0.5 ? EdgeColor::kBlue : EdgeColor::kRed;
      provenance = EdgeProvenance::kFallback;
    }
    graph_.SetColor(e, color);
    edge_provenance_[static_cast<size_t>(e)] = static_cast<uint8_t>(provenance);
  }
  if (propagate) PropagateDeductions();
  result_.stats.tasks_asked += static_cast<int64_t>(round_edges_.size());
  result_.stats.round_sizes.push_back(static_cast<int64_t>(round_edges_.size()));
  ++result_.stats.rounds;
  if (metrics_.round_size != nullptr) {
    metrics_.round_size->Observe(static_cast<int64_t>(round_edges_.size()));
  }
  phase_ = SessionPhase::kPrune;
  return true;
}

Result<bool> QuerySession::StepPrune() {
  pruner_->Recompute();
  if (budget_.Exhausted()) return Finish();
  if (options_.round_limit &&
      result_.stats.rounds >= static_cast<int64_t>(*options_.round_limit)) {
    return Finish();
  }
  phase_ = SessionPhase::kSelectTasks;
  return true;
}

Result<bool> QuerySession::Finish() {
  // Fold in any straggler answers still in flight after the last round.
  ReconcileLate();
  // A terminal invalidate-and-rederive can leave edges uncolored (their
  // deduction's premise flipped) with no further round to re-ask them. In
  // unbounded runs the propagation-off executor terminates with every valid
  // edge colored; keep that invariant by closing the stragglers with the
  // similarity-prior fallback. Bounded runs (budget / round limit) may
  // legitimately end partially colored either way.
  if (options_.propagation.enabled && !options_.budget &&
      !options_.round_limit) {
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      if (!graph_.edge_is_crowd(e) ||
          graph_.edge_color(e) != EdgeColor::kUnknown ||
          !pruner_->EdgeValid(e)) {
        continue;
      }
      ++result_.stats.fallback_colored;
      graph_.SetColor(e, graph_.edge(e).weight >= 0.5 ? EdgeColor::kBlue
                                                      : EdgeColor::kRed);
      edge_provenance_[static_cast<size_t>(e)] =
          static_cast<uint8_t>(EdgeProvenance::kFallback);
    }
  }
  ExecutionStats& stats = result_.stats;
  std::sort(stats.starved_task_ids.begin(), stats.starved_task_ids.end());
  stats.starved_task_ids.erase(
      std::unique(stats.starved_task_ids.begin(), stats.starved_task_ids.end()),
      stats.starved_task_ids.end());

  stats.platform = publisher_->stats();
  // In scheduler mode the publisher's stats cover every co-scheduled
  // session; this session's own deliveries are its phase answer counts.
  stats.worker_answers = owned_publisher_ != nullptr
                             ? stats.platform.answers_collected
                             : AnswersReceived();
  stats.hits_published = stats.platform.hits_published;
  stats.dollars_spent = stats.platform.dollars_spent();
  result_.answers = AssignmentsToAnswers(graph_, FindAnswers(graph_));
  phase_ = SessionPhase::kDone;
  return false;
}

Status QuerySession::PublishAndAbsorb(const std::vector<Task>& tasks) {
  const bool assign = options_.quality_control;
  CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                       publisher_->Publish(tasks, assign ? &policy_ : nullptr,
                                           assign ? &observer_ : nullptr));
  Counters().tasks += static_cast<int64_t>(tasks.size());
  Counters().answers += static_cast<int64_t>(answers.size());
  Absorb(answers);
  return Status::Ok();
}

int64_t QuerySession::Absorb(const std::vector<Answer>& batch) {
  int64_t added = 0;
  for (const Answer& answer : batch) {
    if (observations_.Contains(answer.task, answer.worker)) continue;
    observations_.Append(
        ChoiceObservation{answer.task, answer.worker, answer.choice});
    ++result_.stats.unique_answers_per_task[answer.task];
    ++added;
  }
  return added;
}

InferenceResult QuerySession::InferEm() {
  EmOptions em;
  em.num_choices = 2;
  em.quality_priors = worker_quality_;
  em.num_threads = options_.num_threads;
  em.metrics = options_.metrics;
  InferenceResult inference = InferSingleChoiceEm(observations_, em);
  worker_quality_ = inference.worker_quality;
  return inference;
}

void QuerySession::ReconcileLate() {
  // Late-answer reconciliation: answers that arrived after their lease
  // expired (or their task was resolved) still carry signal. Fold them into
  // the observation set, re-infer, and flip any already-colored edge whose
  // majority/EM truth changed.
  std::vector<Answer> late = publisher_->TakeLateAnswers();
  if (late.empty()) return;
  result_.stats.late_answers += static_cast<int64_t>(late.size());
  Counters().answers += static_cast<int64_t>(late.size());
  if (Absorb(late) == 0) return;
  // Majority truths read the log's rows; inference_ stays as of the last
  // Infer until the next one.
  InferenceResult em;
  if (options_.quality_control) em = InferEm();
  bool flipped = false;
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const GraphEdge& edge = graph_.edge(e);
    // Reconciliation flips evidence on edges the crowd already colored —
    // nothing else. A kUnknown edge here was pruned away before it was ever
    // asked (or starved with no fallback); a late answer for it must not
    // resurrect it, or the pruner's frontier and the per-phase counters
    // desync. Non-crowd edges are colored from birth and carry no crowd
    // evidence to reconcile.
    if (!edge.is_crowd || edge.color == EdgeColor::kUnknown) continue;
    const int truth_choice = options_.quality_control
                                 ? em.Truth(e)
                                 : observations_.MajorityTruth(e, 2);
    if (truth_choice < 0) continue;
    EdgeColor want = truth_choice == 0 ? EdgeColor::kBlue : EdgeColor::kRed;
    // Crowd evidence arrived for a color that had none: the deduced (or
    // prior-guessed) color is now backed — or contradicted — by real
    // answers. Either way the edge becomes crowd-evidenced.
    if (edge_provenance_[static_cast<size_t>(e)] !=
        static_cast<uint8_t>(EdgeProvenance::kAsked)) {
      edge_provenance_[static_cast<size_t>(e)] =
          static_cast<uint8_t>(EdgeProvenance::kAsked);
      if (edge.color == want) continue;
    }
    if (graph_.edge(e).color != want) {
      graph_.RecolorEdge(e, want);
      ++result_.stats.recolored_edges;
      flipped = true;
    }
  }
  if (flipped) {
    // Every deduced color is a theorem over the crowd-evidenced ones; a flip
    // withdraws a premise, so the whole closure is invalidated and
    // re-derived rather than patched edge by edge.
    if (options_.propagation.enabled) RebuildDeductions();
    pruner_->Recompute();
  }
}

bool QuerySession::HoldsDeducedColorFor(TaskId task) const {
  if (task < 0 || static_cast<size_t>(task) >= edge_provenance_.size()) {
    return false;
  }
  return edge_provenance_[static_cast<size_t>(task)] ==
         static_cast<uint8_t>(EdgeProvenance::kDeduced);
}

void QuerySession::PropagateDeductions() {
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    if (!graph_.edge_is_crowd(e) ||
        graph_.edge_color(e) != EdgeColor::kUnknown) {
      continue;
    }
    EdgeColor color = deduction_->Deduce(e);
    if (color == EdgeColor::kUnknown) continue;
    graph_.SetColor(e, color);
    edge_provenance_[static_cast<size_t>(e)] =
        static_cast<uint8_t>(EdgeProvenance::kDeduced);
    ++result_.stats.deduced_edges;
  }
}

void QuerySession::RebuildDeductions() {
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    if (edge_provenance_[static_cast<size_t>(e)] !=
        static_cast<uint8_t>(EdgeProvenance::kDeduced)) {
      continue;
    }
    graph_.UncolorEdge(e);
    edge_provenance_[static_cast<size_t>(e)] =
        static_cast<uint8_t>(EdgeProvenance::kNone);
    ++result_.stats.deduction_invalidations;
  }
  deduction_->Reset();
  // Ascending re-observation rebuilds the same partition and fact set as any
  // other order would (both are order-independent in the observed set).
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    if (edge_provenance_[static_cast<size_t>(e)] ==
        static_cast<uint8_t>(EdgeProvenance::kAsked)) {
      deduction_->Observe(e, graph_.edge_color(e));
    }
  }
  PropagateDeductions();
}

void QuerySession::ReorderByDeductionYield() {
  if (ordered_.size() < 2) return;
  // yield(e) = the number of still-askable edges between e's endpoint
  // clusters, e included: any answer for e resolves them all (a blue answer
  // merges the clusters and transitivity colors the rest blue; a red answer
  // records the non-match fact and anti-transitivity colors them red).
  // A duplicate — a second edge of a cluster pair that already has an
  // earlier ask in the order — has an expected yield of ~0: its pair's
  // representative resolves it by transitivity before its turn comes. So the
  // re-rank demotes duplicates behind every representative and otherwise
  // preserves the cost-control order (which already minimizes expected asks
  // per edge); the representative of each pair carries the pair's whole
  // yield. By the time the batcher reaches the deferred duplicates, their
  // pair's answer has usually arrived and deduction colors them for free.
  std::set<std::tuple<int, int32_t, int32_t>> represented;
  std::vector<EdgeId> reordered;
  reordered.reserve(ordered_.size());
  std::vector<EdgeId> deferred;
  for (EdgeId e : ordered_) {
    auto [ra, rb] = deduction_->ClusterPair(e);
    if (represented.insert({graph_.edge_pred(e), ra, rb}).second) {
      reordered.push_back(e);
    } else {
      deferred.push_back(e);
    }
  }
  reordered.insert(reordered.end(), deferred.begin(), deferred.end());
  ordered_.swap(reordered);
}

std::string QuerySession::EdgeValueString(VertexId v, int pred) const {
  const Vertex& vertex = graph_.vertex(v);
  if (vertex.rel < graph_.num_base_relations()) {
    const Table* table = query_->tables[vertex.rel];
    const PredicateInfo& info = graph_.predicate(pred);
    size_t col;
    if (pred < static_cast<int>(query_->joins.size())) {
      const ResolvedJoin& join = query_->joins[pred];
      col = info.left_rel == vertex.rel ? join.left_col : join.right_col;
    } else {
      col = query_->selections[pred - query_->joins.size()].col;
    }
    const Value& cell =
        table->row(static_cast<size_t>(vertex.row))[col];
    return cell.is_missing() ? std::string() : cell.ToString();
  }
  // Selection pseudo-vertex: the constant.
  size_t sel = static_cast<size_t>(vertex.rel - graph_.num_base_relations());
  return query_->selections[sel].value;
}

std::vector<Task> QuerySession::MakeTasks(const std::vector<EdgeId>& edges) const {
  std::vector<Task> tasks;
  tasks.reserve(edges.size());
  for (EdgeId e : edges) {
    const GraphEdge& edge = graph_.edge(e);
    tasks.push_back(MakeEdgeTask(/*id=*/e, /*edge=*/e,
                                 EdgeValueString(edge.u, edge.pred),
                                 EdgeValueString(edge.v, edge.pred)));
  }
  return tasks;
}

std::vector<QueryAnswer> AssignmentsToAnswers(const QueryGraph& graph,
                                              const std::vector<Assignment>& as) {
  std::vector<QueryAnswer> answers;
  answers.reserve(as.size());
  for (const Assignment& assignment : as) {
    QueryAnswer answer;
    answer.rows.reserve(graph.num_base_relations());
    for (int rel = 0; rel < graph.num_base_relations(); ++rel) {
      answer.rows.push_back(graph.vertex(assignment[rel]).row);
    }
    answers.push_back(std::move(answer));
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

}  // namespace cdb
