#include "baselines/er_join.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "exec/session.h"
#include "graph/propagation.h"
#include "quality/truth_inference.h"

namespace cdb {

// Cluster bookkeeping lives in MatchClusters (graph/propagation.h), shared
// with the executor's answer-propagation layer. Its non-match facts are
// keyed at current cluster roots and re-rooted inside Union(), which retires
// the old per-round SnapshotNonMatches step: facts snapshotted at
// round-start roots went stale the moment a union re-rooted a cluster, so a
// KnownNonMatch probe could miss a deducible non-match and re-ask (or batch)
// the pair.

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

  PlatformPublisher publisher({options_.platform}, [this](const Task& task) {
    TaskTruth truth;
    truth.correct_choice =
        truth_(graph_, static_cast<EdgeId>(task.payload)) ? 0 : 1;
    return truth;
  });

  // Joins in cost-based order, like the paper configures Trans/ACD.
  std::vector<int> order =
      ChoosePredicateOrder(graph_, TreePolicy::kDeco, nullptr);

  auto edge_blue = [this](EdgeId e) {
    return graph_.edge(e).color == EdgeColor::kBlue;
  };

  const bool infer_nonmatch = options_.method == ErMethod::kTrans;
  std::vector<int> executed;
  std::vector<uint8_t> active(graph_.num_vertices(), 1);

  for (int p : order) {
    // Candidate pairs of this predicate between active tuples, by descending
    // similarity (the ER ordering that maximizes inference).
    std::vector<EdgeId> pairs;
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      const GraphEdge& edge = graph_.edge(e);
      if (edge.pred != p || !edge.is_crowd || edge.color != EdgeColor::kUnknown) {
        continue;
      }
      if (active[edge.u] && active[edge.v]) pairs.push_back(e);
    }
    std::stable_sort(pairs.begin(), pairs.end(), [&](EdgeId a, EdgeId b) {
      return graph_.edge(a).weight > graph_.edge(b).weight;
    });

    MatchClusters clusters(graph_.num_vertices());
    size_t next = 0;
    while (next < pairs.size()) {
      // One ER round: walk the remaining pairs in order; infer what we can;
      // batch the rest, but only one ask per cluster pair so that the
      // answers arriving this round can still infer the deferred pairs.
      std::vector<EdgeId> batch;
      std::unordered_set<int64_t> clusters_in_batch;
      std::vector<EdgeId> deferred;
      for (size_t i = next; i < pairs.size(); ++i) {
        EdgeId e = pairs[i];
        const GraphEdge& edge = graph_.edge(e);
        if (clusters.SameCluster(edge.u, edge.v)) {
          graph_.SetColor(e, EdgeColor::kBlue);  // Inferred by transitivity.
          continue;
        }
        if (infer_nonmatch && clusters.KnownNonMatch(edge.u, edge.v)) {
          graph_.SetColor(e, EdgeColor::kRed);
          continue;
        }
        int ru = clusters.Find(edge.u);
        int rv = clusters.Find(edge.v);
        if (clusters_in_batch.count(ru) > 0 || clusters_in_batch.count(rv) > 0) {
          deferred.push_back(e);
          continue;
        }
        clusters_in_batch.insert(ru);
        clusters_in_batch.insert(rv);
        batch.push_back(e);
      }
      if (batch.empty()) break;  // Everything left was inferred.

      std::vector<Task> tasks;
      tasks.reserve(batch.size());
      for (EdgeId e : batch) {
        Task task;
        task.id = e;
        task.type = TaskType::kSingleChoice;
        task.question = "entity-resolution pair check";
        task.choices = {"yes", "no"};
        task.payload = e;
        tasks.push_back(std::move(task));
      }
      CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                           publisher.Publish(tasks, nullptr, nullptr));
      // Majority voting is memoryless: infer from this round's answers only
      // (re-running over the full history made long ER runs quadratic).
      std::vector<ChoiceObservation> round_observations;
      round_observations.reserve(answers.size());
      for (const Answer& answer : answers) {
        round_observations.push_back(
            ChoiceObservation{answer.task, answer.worker, answer.choice});
      }
      InferenceResult inference =
          InferSingleChoiceMajority(round_observations, 2);
      for (EdgeId e : batch) {
        const GraphEdge& edge = graph_.edge(e);
        bool matched = inference.Truth(e) == 0;
        graph_.SetColor(e, matched ? EdgeColor::kBlue : EdgeColor::kRed);
        if (matched) {
          clusters.Union(edge.u, edge.v);
        } else if (infer_nonmatch) {
          clusters.AddNonMatch(edge.u, edge.v);
        }
      }
      stats.tasks_asked += static_cast<int64_t>(batch.size());
      stats.round_sizes.push_back(static_cast<int64_t>(batch.size()));
      ++stats.rounds;

      // Re-scan from the first remaining pair (colors may now be inferable).
      pairs = deferred;
      next = 0;
    }

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
