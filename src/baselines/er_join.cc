#include "baselines/er_join.h"

#include <algorithm>

#include "exec/session.h"
#include "graph/propagation.h"
#include "quality/truth_inference.h"

namespace cdb {

const char* ErMethodName(ErMethod method) {
  return method == ErMethod::kTrans ? "Trans" : "ACD";
}

ErJoinExecutor::ErJoinExecutor(const ResolvedQuery* query,
                               const ErExecutorOptions& options,
                               EdgeTruthFn truth)
    : query_(query), options_(options), truth_(std::move(truth)) {}

Result<ExecutionResult> ErJoinExecutor::Run() {
  CDB_ASSIGN_OR_RETURN(graph_, QueryGraph::Build(*query_, options_.graph));

  ExecutionResult result;
  ExecutionStats& stats = result.stats;

  YesNoCrowd crowd(options_.platform, [this](int64_t e) {
    return truth_(graph_, static_cast<EdgeId>(e));
  });

  // Joins in cost-based order, like the paper configures Trans/ACD.
  std::vector<int> order =
      ChoosePredicateOrder(graph_, TreePolicy::kDeco, nullptr);

  auto edge_blue = [this](EdgeId e) {
    return graph_.edge(e).color == EdgeColor::kBlue;
  };

  std::vector<int> executed;
  std::vector<uint8_t> active(graph_.num_vertices(), 1);

  for (int p : order) {
    // Candidate pairs of this predicate between active tuples, by descending
    // similarity (the ER ordering that maximizes inference).
    std::vector<EdgeId> edges;
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      const GraphEdge& edge = graph_.edge(e);
      if (edge.pred != p || !edge.is_crowd || edge.color != EdgeColor::kUnknown) {
        continue;
      }
      if (active[edge.u] && active[edge.v]) edges.push_back(e);
    }
    std::stable_sort(edges.begin(), edges.end(), [&](EdgeId a, EdgeId b) {
      return graph_.edge(a).weight > graph_.edge(b).weight;
    });
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(edges.size());
    for (EdgeId e : edges) {
      pairs.emplace_back(graph_.edge(e).u, graph_.edge(e).v);
    }

    // Inferred and asked pairs alike color their edge.
    auto color = [&](size_t pair, bool match) {
      graph_.SetColor(edges[pair], match ? EdgeColor::kBlue : EdgeColor::kRed);
    };
    auto ask = [&](const std::vector<size_t>& round)
        -> Result<std::vector<bool>> {
      std::vector<YesNoQuestion> questions;
      questions.reserve(round.size());
      for (size_t pair : round) {
        questions.push_back({edges[pair], "entity-resolution pair check"});
      }
      CDB_ASSIGN_OR_RETURN(std::vector<bool> matches, crowd.Ask(questions));
      for (size_t i = 0; i < round.size(); ++i) color(round[i], matches[i]);
      stats.round_sizes.push_back(static_cast<int64_t>(round.size()));
      return matches;
    };
    MatchClusters clusters(graph_.num_vertices());
    CDB_RETURN_IF_ERROR(ResolveByTransitivity(
        &clusters, pairs, options_.method == ErMethod::kTrans, ask, color));

    executed.push_back(p);
    active = ActiveVertices(graph_, executed, edge_blue);
  }

  stats.tasks_asked = crowd.tasks();
  stats.rounds = crowd.rounds();
  stats.worker_answers = crowd.stats().answers_collected;
  stats.hits_published = crowd.stats().hits_published;
  stats.dollars_spent = crowd.stats().dollars_spent();
  result.answers = AssignmentsToAnswers(graph_, FindAnswers(graph_));
  return result;
}

}  // namespace cdb
