#include "baselines/tree_executor.h"

#include "common/logging.h"
#include "common/trace.h"
#include "exec/session.h"
#include "quality/truth_inference.h"

namespace cdb {

TreeModelExecutor::TreeModelExecutor(const ResolvedQuery* query,
                                     const TreeExecutorOptions& options,
                                     EdgeTruthFn truth)
    : query_(query), options_(options), truth_(std::move(truth)) {}

Result<ExecutionResult> TreeModelExecutor::Run() {
  CDB_ASSIGN_OR_RETURN(graph_, QueryGraph::Build(*query_, options_.graph));

  ExecutionResult result;
  ExecutionStats& stats = result.stats;

  PlatformPublisher publisher({options_.platform}, [this](const Task& task) {
    TaskTruth truth;
    truth.correct_choice =
        truth_(graph_, static_cast<EdgeId>(task.payload)) ? 0 : 1;
    return truth;
  });

  // OptTree consults the true colors for its order; the execution itself
  // still goes through the crowd like every other method.
  WallTimer timer;
  OracleColors oracle;
  if (options_.policy == TreePolicy::kOptTree) {
    oracle.resize(graph_.num_edges());
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      oracle[e] = graph_.edge(e).is_crowd
                      ? (truth_(graph_, e) ? EdgeColor::kBlue : EdgeColor::kRed)
                      : graph_.edge(e).color;
    }
  }
  std::vector<int> order = ChoosePredicateOrder(
      graph_, options_.policy,
      options_.policy == TreePolicy::kOptTree ? &oracle : nullptr);
  stats.selection_ms += timer.ElapsedMs();

  auto edge_blue = [this](EdgeId e) {
    return graph_.edge(e).color == EdgeColor::kBlue;
  };

  std::vector<ChoiceObservation> observations;
  std::vector<int> executed;
  std::vector<uint8_t> active(graph_.num_vertices(), 1);
  for (int p : order) {
    // Ask every unasked crowd edge of this predicate between active tuples.
    std::vector<Task> tasks;
    std::vector<EdgeId> asked_edges;
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      const GraphEdge& edge = graph_.edge(e);
      if (edge.pred != p || !edge.is_crowd ||
          edge.color != EdgeColor::kUnknown) {
        continue;
      }
      if (!active[edge.u] || !active[edge.v]) continue;
      Task task;
      task.id = e;
      task.type = TaskType::kSingleChoice;
      task.question = "tree-model pair check";
      task.choices = {"yes", "no"};
      task.payload = e;
      tasks.push_back(std::move(task));
      asked_edges.push_back(e);
    }
    if (!tasks.empty()) {
      CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                           publisher.Publish(tasks, nullptr, nullptr));
      for (const Answer& answer : answers) {
        observations.push_back(
            ChoiceObservation{answer.task, answer.worker, answer.choice});
      }
      InferenceResult inference = InferSingleChoiceMajority(observations, 2);
      for (EdgeId e : asked_edges) {
        int truth_choice = inference.Truth(e);
        CDB_CHECK(truth_choice >= 0);
        graph_.SetColor(e,
                        truth_choice == 0 ? EdgeColor::kBlue : EdgeColor::kRed);
      }
      stats.tasks_asked += static_cast<int64_t>(asked_edges.size());
      stats.round_sizes.push_back(static_cast<int64_t>(asked_edges.size()));
    } else {
      stats.round_sizes.push_back(0);
    }
    // Every predicate is one round in the tree model, even a free one
    // (traditional predicates complete instantly but still gate the next
    // join's input).
    ++stats.rounds;
    executed.push_back(p);
    active = ActiveVertices(graph_, executed, edge_blue);
  }

  stats.worker_answers = publisher.stats().answers_collected;
  stats.hits_published = publisher.stats().hits_published;
  stats.dollars_spent = publisher.stats().dollars_spent();
  result.answers = AssignmentsToAnswers(graph_, FindAnswers(graph_));
  return result;
}

}  // namespace cdb
