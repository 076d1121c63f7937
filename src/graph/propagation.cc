#include "graph/propagation.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace cdb {

MatchClusters::MatchClusters(int num_vertices)
    : parent_(num_vertices), size_(num_vertices, 1),
      num_clusters_(num_vertices) {
  for (int i = 0; i < num_vertices; ++i) parent_[i] = i;
}

int MatchClusters::Find(int x) {
  while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
  return x;
}

void MatchClusters::Union(int a, int b) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) return;
  // Union by size; equal sizes keep the smaller root id. Either rule alone
  // would do — the point is one deterministic choice, so the root structure
  // (and hence ClusterPair keys) depends only on the union sequence.
  if (size_[ra] > size_[rb] || (size_[ra] == size_[rb] && ra < rb)) {
    std::swap(ra, rb);
  }
  // ra is absorbed into rb. Re-root ra's facts before the parent link flips,
  // so the fact table never holds a key that is not a live root.
  auto loser = enemies_.find(ra);
  if (loser != enemies_.end()) {
    // Detach first: Union must not observe a half-moved adjacency.
    std::set<int32_t> moved = std::move(loser->second);
    enemies_.erase(loser);
    for (int32_t enemy : moved) {
      enemies_[enemy].erase(ra);
      if (enemy == rb) {
        // The merge internalized a non-match fact: contradictory crowd
        // evidence. Matches win — drop the fact, count the conflict.
        ++conflicts_;
        continue;
      }
      enemies_[rb].insert(enemy);
      enemies_[enemy].insert(rb);
    }
  }
  parent_[ra] = rb;
  size_[rb] += size_[ra];
  --num_clusters_;
}

void MatchClusters::AddNonMatch(int a, int b) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) {
    // A non-match inside one cluster contradicts the matches that built the
    // cluster; matches win.
    ++conflicts_;
    return;
  }
  enemies_[ra].insert(rb);
  enemies_[rb].insert(ra);
}

bool MatchClusters::KnownNonMatch(int a, int b) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) return false;
  auto it = enemies_.find(ra);
  return it != enemies_.end() && it->second.count(rb) > 0;
}

Status ResolveByTransitivity(MatchClusters* clusters,
                             const std::vector<std::pair<int, int>>& pairs,
                             bool record_nonmatches, const AskPairsFn& ask,
                             const InferredPairFn& inferred) {
  std::vector<size_t> remaining(pairs.size());
  std::iota(remaining.begin(), remaining.end(), size_t{0});
  while (!remaining.empty()) {
    std::vector<size_t> round;
    std::vector<size_t> deferred;
    std::unordered_set<int> clusters_in_round;
    for (size_t p : remaining) {
      const auto [a, b] = pairs[p];
      const bool match = clusters->SameCluster(a, b);
      if (match || (record_nonmatches && clusters->KnownNonMatch(a, b))) {
        if (inferred) inferred(p, match);
        continue;
      }
      const int ra = clusters->Find(a);
      const int rb = clusters->Find(b);
      if (clusters_in_round.count(ra) > 0 || clusters_in_round.count(rb) > 0) {
        deferred.push_back(p);
        continue;
      }
      clusters_in_round.insert({ra, rb});
      round.push_back(p);
    }
    if (round.empty()) break;
    CDB_ASSIGN_OR_RETURN(const std::vector<bool> matches, ask(round));
    CDB_CHECK_EQ(matches.size(), round.size());
    for (size_t i = 0; i < round.size(); ++i) {
      const auto [a, b] = pairs[round[i]];
      if (matches[i]) {
        clusters->Union(a, b);
      } else if (record_nonmatches) {
        clusters->AddNonMatch(a, b);
      }
    }
    remaining = std::move(deferred);
  }
  return Status::Ok();
}

DeductionState::DeductionState(const QueryGraph* graph) : graph_(graph) {
  domains_.reserve(static_cast<size_t>(graph_->num_predicates()));
  for (int p = 0; p < graph_->num_predicates(); ++p) {
    domains_.emplace_back(graph_->num_vertices());
  }
}

void DeductionState::Reset() {
  domains_.clear();
  for (int p = 0; p < graph_->num_predicates(); ++p) {
    domains_.emplace_back(graph_->num_vertices());
  }
}

void DeductionState::Observe(EdgeId e, EdgeColor color) {
  CDB_CHECK_MSG(color != EdgeColor::kUnknown,
                "Observe needs an evidenced color");
  MatchClusters& domain = domains_[static_cast<size_t>(graph_->edge_pred(e))];
  if (color == EdgeColor::kBlue) {
    domain.Union(graph_->edge_u(e), graph_->edge_v(e));
  } else {
    domain.AddNonMatch(graph_->edge_u(e), graph_->edge_v(e));
  }
}

EdgeColor DeductionState::Deduce(EdgeId e) {
  MatchClusters& domain = domains_[static_cast<size_t>(graph_->edge_pred(e))];
  if (domain.SameCluster(graph_->edge_u(e), graph_->edge_v(e))) {
    return EdgeColor::kBlue;
  }
  if (domain.KnownNonMatch(graph_->edge_u(e), graph_->edge_v(e))) {
    return EdgeColor::kRed;
  }
  return EdgeColor::kUnknown;
}

std::pair<int32_t, int32_t> DeductionState::ClusterPair(EdgeId e) {
  MatchClusters& domain = domains_[static_cast<size_t>(graph_->edge_pred(e))];
  int32_t ra = domain.Find(graph_->edge_u(e));
  int32_t rb = domain.Find(graph_->edge_v(e));
  if (ra > rb) std::swap(ra, rb);
  return {ra, rb};
}

int64_t DeductionState::conflicts() const {
  int64_t total = 0;
  for (const MatchClusters& domain : domains_) total += domain.conflicts();
  return total;
}

}  // namespace cdb
