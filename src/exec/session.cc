#include "exec/session.h"

#include <algorithm>
#include <limits>
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

// Registry mirror helper: null counter (metrics disabled) = no-op.
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

PlatformPublisher::PlatformPublisher(const PlatformOptions& platform,
                                     const std::vector<PlatformOptions>& markets,
                                     TruthProvider truth) {
  if (markets.empty()) {
    single_ = std::make_unique<CrowdPlatform>(platform, std::move(truth));
  } else {
    multi_ = std::make_unique<MultiMarket>(markets, std::move(truth));
  }
}

Result<std::vector<Answer>> PlatformPublisher::Publish(
    const std::vector<Task>& tasks, const AssignmentPolicy* policy,
    const AnswerObserver* observer) {
  return single_ ? single_->ExecuteRound(tasks, policy, observer)
                 : multi_->ExecuteRound(tasks, policy, observer);
}

std::vector<Answer> PlatformPublisher::TakeLateAnswers() {
  return single_ ? single_->TakeLateAnswers() : multi_->TakeLateAnswers();
}

std::vector<TaskId> PlatformPublisher::TakeDeadLetters() {
  return single_ ? single_->TakeDeadLetters() : multi_->TakeDeadLetters();
}

void PlatformPublisher::AdvanceTicks(int64_t ticks) {
  if (single_) {
    single_->AdvanceTicks(ticks);
  } else {
    multi_->AdvanceTicks(ticks);
  }
}

int PlatformPublisher::effective_redundancy() const {
  if (single_) {
    return std::min(single_->options().redundancy,
                    static_cast<int>(single_->workers().size()));
  }
  int lowest = std::numeric_limits<int>::max();
  for (const CrowdPlatform& platform : multi_->platforms()) {
    lowest = std::min(lowest,
                      std::min(platform.options().redundancy,
                               static_cast<int>(platform.workers().size())));
  }
  return lowest;
}

PlatformStats PlatformPublisher::stats() const {
  return single_ ? single_->stats() : multi_->CombinedStats();
}

QuerySession::QuerySession(const ResolvedQuery* query,
                           const ExecutorOptions& options, EdgeTruthFn truth)
    : QuerySession(query, options, std::move(truth), nullptr) {}

QuerySession::QuerySession(const ResolvedQuery* query,
                           const ExecutorOptions& options, EdgeTruthFn truth,
                           TaskPublisher* publisher)
    : query_(query),
      options_(options),
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
  if (options_.metrics != nullptr) {
    MetricsRegistry& reg = *options_.metrics;
    for (int p = 0; p < kNumSessionPhases; ++p) {
      std::string prefix = std::string("session.phase.") +
                           SessionPhaseName(static_cast<SessionPhase>(p));
      metrics_.phase_steps[static_cast<size_t>(p)] =
          &reg.counter(prefix + ".steps");
      metrics_.phase_tasks[static_cast<size_t>(p)] =
          &reg.counter(prefix + ".tasks");
      metrics_.phase_answers[static_cast<size_t>(p)] =
          &reg.counter(prefix + ".answers");
    }
    metrics_.rounds = &reg.counter("session.rounds");
    metrics_.reposted_tasks = &reg.counter("session.retry.reposted_tasks");
    metrics_.retry_waves = &reg.counter("session.retry.waves");
    metrics_.backoff_ticks = &reg.counter("session.retry.backoff_ticks");
    metrics_.starved_tasks = &reg.counter("session.retry.starved_tasks");
    metrics_.late_answers = &reg.counter("session.late_answers");
    metrics_.recolored_edges = &reg.counter("session.recolored_edges");
    metrics_.fallback_colored = &reg.counter("session.fallback_colored");
    metrics_.dedup_tasks_saved = &reg.counter("session.dedup_tasks_saved");
    metrics_.deduced_edges = &reg.counter("session.deduced_edges");
    metrics_.deduction_invalidations =
        &reg.counter("session.deduction_invalidations");
    metrics_.round_size = &reg.histogram("session.round_size");
  }
  policy_ = [this](const SimulatedWorker& worker,
                   const std::vector<TaskId>& available, int count) {
    return assigner_(worker, available, count);
  };
  observer_ = [this](const Answer& answer) { assigner_.Observe(answer); };
  if (publisher != nullptr) {
    publisher_ = publisher;
    external_publish_ = true;
  } else {
    // TaskId == EdgeId by construction; negative payloads mark golden
    // warm-up tasks.
    owned_publisher_ = std::make_unique<PlatformPublisher>(
        options_.platform, options_.markets,
        [this](const Task& task) { return TaskTruthFor(task); });
    publisher_ = owned_publisher_.get();
  }
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

bool QuerySession::waiting_for_answers() const {
  return external_publish_ && phase_ == SessionPhase::kPublish;
}

Result<bool> QuerySession::Step() {
  CDB_CHECK_MSG(!waiting_for_answers(),
                "Step() while the scheduler owes this session a round of "
                "answers; call DeliverAnswers() instead");
  if (phase_ == SessionPhase::kDone) return false;
  const SessionPhase entry = phase_;
  const size_t ei = static_cast<size_t>(entry);
  const PhaseCounters before = result_.stats.phases[ei];
  const int64_t tick_begin =
      options_.tracer != nullptr ? publisher_->stats().ticks : 0;
  WallTimer wall;
  ++Counters().steps;
  Result<bool> more = DispatchPhase(entry);
  // Everything the phase body accounted (including reposts and late-answer
  // reconciliation inside it) lands on the entry phase; mirror the delta.
  const PhaseCounters& after = result_.stats.phases[ei];
  Bump(metrics_.phase_steps[ei], after.steps - before.steps);
  Bump(metrics_.phase_tasks[ei], after.tasks - before.tasks);
  Bump(metrics_.phase_answers[ei], after.answers - before.answers);
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
  CDB_CHECK_MSG(!external_publish_,
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
  Bump(metrics_.dedup_tasks_saved, tasks_saved);
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
      Task task;
      task.id = -(k + 1);
      task.payload = -(k + 1);
      task.type = TaskType::kSingleChoice;
      task.question = "golden warm-up";
      task.choices = {"yes", "no"};
      golden_truths[task.id] = GoldenTruthChoice(task.payload);
      golden.push_back(std::move(task));
    }
    std::vector<ChoiceObservation> golden_observations;
    CDB_ASSIGN_OR_RETURN(std::vector<Answer> golden_answers,
                         publisher_->Publish(golden, nullptr, nullptr));
    Counters().tasks += static_cast<int64_t>(golden.size());
    Counters().answers += static_cast<int64_t>(golden_answers.size());
    answers_received_ += static_cast<int64_t>(golden_answers.size());
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
  if (options_.propagation.enabled && options_.propagation.expected_yield_order) {
    ReorderByDeductionYield();
  }
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
        SelectParallelRound(graph_, *pruner_, ordered_, options_.latency_mode,
                            options_.greedy_round_fraction);
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
  const AssignmentPolicy* round_policy =
      options_.quality_control ? &policy_ : nullptr;
  const AnswerObserver* round_observer =
      options_.quality_control ? &observer_ : nullptr;
  CDB_ASSIGN_OR_RETURN(
      std::vector<Answer> answers,
      publisher_->Publish(round_tasks_, round_policy, round_observer));
  Counters().tasks += static_cast<int64_t>(round_tasks_.size());
  Counters().answers += static_cast<int64_t>(answers.size());
  answers_received_ += static_cast<int64_t>(answers.size());
  Absorb(answers);
  phase_ = SessionPhase::kCollect;
  return true;
}

void QuerySession::DeliverAnswers(const std::vector<Answer>& answers) {
  CDB_CHECK_MSG(waiting_for_answers(),
                "DeliverAnswers on a session that is not parked at kPublish");
  const size_t ei = static_cast<size_t>(SessionPhase::kPublish);
  ++Counters().steps;
  Counters().tasks += static_cast<int64_t>(round_tasks_.size());
  Counters().answers += static_cast<int64_t>(answers.size());
  Bump(metrics_.phase_steps[ei]);
  Bump(metrics_.phase_tasks[ei], static_cast<int64_t>(round_tasks_.size()));
  Bump(metrics_.phase_answers[ei], static_cast<int64_t>(answers.size()));
  answers_received_ += static_cast<int64_t>(answers.size());
  if (options_.quality_control) {
    // The shared platform assigns round-robin (the id spaces differ), so the
    // posterior updates happen on delivery instead of per-arrival.
    for (const Answer& answer : answers) assigner_.Observe(answer);
  }
  Absorb(answers);
  phase_ = SessionPhase::kCollect;
}

Result<bool> QuerySession::StepCollect() {
  // Requester-side timeout/repost: top up tasks the platform returned short
  // (abandoned, expired, dead-lettered) with capped exponential backoff.
  // Each repost publishes only the shortfall. Reposts go straight to the
  // publisher even in scheduler mode: a shortfall is private to the session
  // that observed it.
  const AssignmentPolicy* round_policy =
      !external_publish_ && options_.quality_control ? &policy_ : nullptr;
  const AnswerObserver* round_observer =
      !external_publish_ && options_.quality_control ? &observer_ : nullptr;
  ExecutionStats& stats = result_.stats;
  if (options_.retry.enabled) {
    const int effective_redundancy = publisher_->effective_redundancy();
    for (int attempt = 1; attempt <= options_.retry.max_reposts; ++attempt) {
      (void)publisher_->TakeDeadLetters();  // Shortfall recomputed below.
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
      int64_t backoff = std::min(
          options_.retry.backoff_base_ticks << (attempt - 1),
          options_.retry.backoff_max_ticks);
      publisher_->AdvanceTicks(backoff);
      Bump(metrics_.retry_waves);
      Bump(metrics_.backoff_ticks, backoff);
      CDB_ASSIGN_OR_RETURN(
          std::vector<Answer> more,
          publisher_->Publish(reposts, round_policy, round_observer));
      stats.reposted_tasks += static_cast<int64_t>(reposts.size());
      Bump(metrics_.reposted_tasks, static_cast<int64_t>(reposts.size()));
      Counters().tasks += static_cast<int64_t>(reposts.size());
      Counters().answers += static_cast<int64_t>(more.size());
      answers_received_ += static_cast<int64_t>(more.size());
      Absorb(more);
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
  inference_ = InferAll();
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
      Bump(metrics_.fallback_colored);
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
      Bump(metrics_.deduced_edges);
    } else {
      ++result_.stats.fallback_colored;
      Bump(metrics_.fallback_colored);
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
  Bump(metrics_.rounds);
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
      Bump(metrics_.fallback_colored);
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
  // session; this session's own delivery count is tracked separately.
  stats.worker_answers =
      external_publish_ ? answers_received_ : stats.platform.answers_collected;
  stats.hits_published = stats.platform.hits_published;
  stats.dollars_spent = stats.platform.dollars_spent();
  result_.answers = AssignmentsToAnswers(graph_, FindAnswers(graph_));
  phase_ = SessionPhase::kDone;
  return false;
}

int64_t QuerySession::Absorb(const std::vector<Answer>& batch) {
  int64_t added = 0;
  for (const Answer& answer : batch) {
    if (!seen_observations_.insert({answer.task, answer.worker}).second) {
      continue;
    }
    all_observations_.push_back(
        ChoiceObservation{answer.task, answer.worker, answer.choice});
    ++result_.stats.unique_answers_per_task[answer.task];
    ++added;
  }
  return added;
}

InferenceResult QuerySession::InferAll() {
  InferenceResult inference;
  if (options_.quality_control) {
    EmOptions em;
    em.num_choices = 2;
    em.quality_priors = worker_quality_;
    em.num_threads = options_.num_threads;
    em.metrics = options_.metrics;
    inference = InferSingleChoiceEm(all_observations_, em);
    worker_quality_ = inference.worker_quality;
  } else {
    inference = InferSingleChoiceMajority(all_observations_, 2);
  }
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
  Bump(metrics_.late_answers, static_cast<int64_t>(late.size()));
  Counters().answers += static_cast<int64_t>(late.size());
  answers_received_ += static_cast<int64_t>(late.size());
  if (Absorb(late) == 0) return;
  InferenceResult inference = InferAll();
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
    int truth_choice = inference.Truth(e);
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
      Bump(metrics_.recolored_edges);
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
    Bump(metrics_.deduced_edges);
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
    Bump(metrics_.deduction_invalidations);
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
