#include "baselines/budget_baseline.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/session.h"
#include "graph/candidates.h"
#include "quality/truth_inference.h"

namespace cdb {
namespace {

// BFS relation order with, for each relation after the first, the predicates
// connecting it back to earlier relations.
struct TraversalPlan {
  std::vector<int> order;
  std::vector<std::vector<int>> back_preds;  // Parallel to `order`.
};

TraversalPlan BuildTraversalPlan(const QueryGraph& graph) {
  TraversalPlan plan;
  std::vector<bool> placed(graph.num_relations(), false);
  plan.order.push_back(0);
  placed[0] = true;
  for (size_t head = 0; head < plan.order.size(); ++head) {
    int rel = plan.order[head];
    for (int p : graph.relation_predicates(rel)) {
      const PredicateInfo& info = graph.predicate(p);
      int other = info.left_rel == rel ? info.right_rel : info.left_rel;
      if (!placed[other]) {
        placed[other] = true;
        plan.order.push_back(other);
      }
    }
  }
  plan.back_preds.resize(plan.order.size());
  std::vector<int> position(graph.num_relations(), -1);
  for (size_t i = 0; i < plan.order.size(); ++i) position[plan.order[i]] = static_cast<int>(i);
  for (int p = 0; p < graph.num_predicates(); ++p) {
    const PredicateInfo& info = graph.predicate(p);
    int later = std::max(position[info.left_rel], position[info.right_rel]);
    plan.back_preds[static_cast<size_t>(later)].push_back(p);
  }
  return plan;
}

}  // namespace

BudgetBaselineExecutor::BudgetBaselineExecutor(
    const ResolvedQuery* query, const BudgetBaselineOptions& options,
    EdgeTruthFn truth)
    : query_(query), options_(options), truth_(std::move(truth)) {}

Result<ExecutionResult> BudgetBaselineExecutor::Run() {
  CDB_ASSIGN_OR_RETURN(graph_, QueryGraph::Build(*query_, options_.graph));

  ExecutionResult result;
  ExecutionStats& stats = result.stats;

  PlatformPublisher publisher(options_.platform, [this](const Task& task) {
    TaskTruth truth;
    truth.correct_choice =
        truth_(graph_, static_cast<EdgeId>(task.payload)) ? 0 : 1;
    return truth;
  });

  int64_t budget_left = options_.budget;
  std::vector<ChoiceObservation> observations;

  // Asks one edge through the crowd (sequentially — the baseline is a
  // depth-first traversal) and colors it. Returns its resulting color.
  auto ask = [&](EdgeId e) {
    Task task;
    task.id = e;
    task.type = TaskType::kSingleChoice;
    task.question = "budget-baseline pair check";
    task.choices = {"yes", "no"};
    task.payload = e;
    std::vector<Answer> answers = publisher.Publish({task}, nullptr, nullptr).value();
    for (const Answer& answer : answers) {
      observations.push_back(
          ChoiceObservation{answer.task, answer.worker, answer.choice});
    }
    InferenceResult inference = InferSingleChoiceMajority(observations, 2);
    graph_.SetColor(e, inference.Truth(e) == 0 ? EdgeColor::kBlue
                                               : EdgeColor::kRed);
    --budget_left;
    ++stats.tasks_asked;
    ++stats.rounds;
    return graph_.edge(e).color;
  };

  TraversalPlan plan = BuildTraversalPlan(graph_);
  Assignment assignment(graph_.num_relations(), kNoVertex);
  std::vector<Assignment> found;

  // Depth-first greedy extension; returns false when the budget ran out.
  std::function<bool(size_t)> extend = [&](size_t depth) -> bool {
    if (depth == plan.order.size()) {
      found.push_back(assignment);
      return true;
    }
    const int rel = plan.order[depth];
    const std::vector<int>& back = plan.back_preds[depth];
    CDB_CHECK(!back.empty());
    // Candidates come from the first back predicate's edges at the anchor.
    const PredicateInfo& info0 = graph_.predicate(back[0]);
    int anchor = info0.left_rel == rel ? info0.right_rel : info0.left_rel;
    const EdgeSpan anchor_edges =
        graph_.IncidentEdges(assignment[anchor], back[0]);
    std::vector<EdgeId> frontier(anchor_edges.begin(), anchor_edges.end());
    std::stable_sort(frontier.begin(), frontier.end(), [&](EdgeId a, EdgeId b) {
      return graph_.edge(a).weight > graph_.edge(b).weight;
    });
    for (EdgeId e0 : frontier) {
      VertexId w = graph_.Opposite(e0, assignment[anchor]);
      bool all_blue = true;
      for (int p : back) {
        const PredicateInfo& info = graph_.predicate(p);
        int other = info.left_rel == rel ? info.right_rel : info.left_rel;
        EdgeId e = FindEdgeBetween(graph_, w, assignment[other], p);
        if (e == kNoEdge) {
          all_blue = false;
          break;
        }
        if (graph_.edge(e).color == EdgeColor::kUnknown) {
          if (budget_left <= 0) return false;
          ask(e);
        }
        if (graph_.edge(e).color != EdgeColor::kBlue) {
          all_blue = false;
          break;
        }
      }
      if (!all_blue) continue;
      assignment[rel] = w;
      if (!extend(depth + 1)) {
        assignment[rel] = kNoVertex;
        return false;
      }
      assignment[rel] = kNoVertex;
    }
    return true;
  };

  // Outer loop: start from each tuple of the first relation, preferring the
  // ones with the heaviest outgoing edge.
  std::vector<VertexId> starts = graph_.relation_vertices(plan.order[0]);
  std::vector<EdgeId> incident;  // Reused across comparator calls.
  std::stable_sort(starts.begin(), starts.end(), [&](VertexId a, VertexId b) {
    auto best_weight = [&](VertexId v) {
      double best = 0.0;
      incident.clear();
      graph_.AppendIncidentEdges(v, &incident);
      for (EdgeId e : incident) {
        best = std::max(best, graph_.edge(e).weight);
      }
      return best;
    };
    return best_weight(a) > best_weight(b);
  });
  for (VertexId start : starts) {
    if (budget_left <= 0) break;
    assignment.assign(static_cast<size_t>(graph_.num_relations()), kNoVertex);
    assignment[plan.order[0]] = start;
    if (!extend(1)) break;
  }

  stats.worker_answers = publisher.stats().answers_collected;
  stats.hits_published = publisher.stats().hits_published;
  stats.dollars_spent = publisher.stats().dollars_spent();
  result.answers = AssignmentsToAnswers(graph_, found);
  return result;
}

}  // namespace cdb
