#include "baselines/tree_executor.h"

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

  YesNoCrowd crowd(options_.platform, [this](int64_t e) {
    return truth_(graph_, static_cast<EdgeId>(e));
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

  std::vector<int> executed;
  std::vector<uint8_t> active(graph_.num_vertices(), 1);
  for (int p : order) {
    // Ask every unasked crowd edge of this predicate between active tuples.
    std::vector<YesNoQuestion> questions;
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      const GraphEdge& edge = graph_.edge(e);
      if (edge.pred != p || !edge.is_crowd ||
          edge.color != EdgeColor::kUnknown) {
        continue;
      }
      if (!active[edge.u] || !active[edge.v]) continue;
      questions.push_back({e, "tree-model pair check"});
    }
    CDB_ASSIGN_OR_RETURN(const std::vector<bool> matches, crowd.Ask(questions));
    for (size_t i = 0; i < questions.size(); ++i) {
      graph_.SetColor(static_cast<EdgeId>(questions[i].payload),
                      matches[i] ? EdgeColor::kBlue : EdgeColor::kRed);
    }
    stats.tasks_asked += static_cast<int64_t>(questions.size());
    stats.round_sizes.push_back(static_cast<int64_t>(questions.size()));
    // Every predicate is one round in the tree model, even a free one
    // (traditional predicates complete instantly but still gate the next
    // join's input).
    ++stats.rounds;
    executed.push_back(p);
    active = ActiveVertices(graph_, executed, edge_blue);
  }

  stats.worker_answers = crowd.stats().answers_collected;
  stats.hits_published = crowd.stats().hits_published;
  stats.dollars_spent = crowd.stats().dollars_spent();
  result.answers = AssignmentsToAnswers(graph_, FindAnswers(graph_));
  return result;
}

}  // namespace cdb
