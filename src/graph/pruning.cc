#include "graph/pruning.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace cdb {
namespace {

// Canonical unordered relation pair.
std::pair<int, int> RelPairKey(int a, int b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

Pruner::Pruner(const QueryGraph* graph) : graph_(graph) {
  BuildGroups();
  BuildPairs();
  FullRecompute();
}

void Pruner::BuildGroups() {
  std::map<std::pair<int, int>, int> group_index;
  group_of_pred_.resize(graph_->num_predicates());
  for (int p = 0; p < graph_->num_predicates(); ++p) {
    const PredicateInfo& info = graph_->predicate(p);
    auto key = RelPairKey(info.left_rel, info.right_rel);
    auto [it, inserted] = group_index.try_emplace(key, static_cast<int>(groups_.size()));
    if (inserted) groups_.push_back(Group{key.first, key.second, {}});
    groups_[it->second].preds.push_back(p);
    group_of_pred_[p] = it->second;
  }

  relation_groups_.assign(graph_->num_relations(), {});
  for (size_t g = 0; g < groups_.size(); ++g) {
    relation_groups_[groups_[g].rel_a].push_back(static_cast<int>(g));
    relation_groups_[groups_[g].rel_b].push_back(static_cast<int>(g));
  }

  // Acyclicity of the group graph (relations as nodes, groups as edges)
  // determines whether the fixpoint is exact.
  std::vector<int> parent(graph_->num_relations());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  group_graph_acyclic_ = true;
  for (const Group& group : groups_) {
    int ra = find(group.rel_a);
    int rb = find(group.rel_b);
    if (ra == rb) {
      group_graph_acyclic_ = false;
      break;
    }
    parent[ra] = rb;
  }
}

void Pruner::BuildPairs() {
  pair_of_edge_.assign(graph_->num_edges(), -1);
  vertex_pairs_.assign(graph_->num_vertices(), {});
  for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
    vertex_pairs_[v].resize(relation_groups_[graph_->vertex(v).rel].size());
  }

  for (size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    if (group.preds.size() == 1) {
      const int p = group.preds[0];
      for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
        if (graph_->edge(e).pred != p) continue;
        PairId id = static_cast<PairId>(pairs_.size());
        VertexId u = graph_->edge(e).u;
        VertexId v = graph_->edge(e).v;
        VertexId a = graph_->vertex(u).rel == group.rel_a ? u : v;
        VertexId b = a == u ? v : u;
        pairs_.push_back(Pair{static_cast<int>(g), a, b, {e}});
        pair_of_edge_[e] = id;
      }
      continue;
    }
    // Parallel predicates: a tuple pair qualifies only if every predicate of
    // the group has an edge between the same two tuples.
    std::map<std::pair<VertexId, VertexId>, std::vector<EdgeId>> by_pair;
    for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
      const GraphEdge& edge = graph_->edge(e);
      if (group_of_pred_[edge.pred] != static_cast<int>(g)) continue;
      VertexId a = graph_->vertex(edge.u).rel == group.rel_a ? edge.u : edge.v;
      VertexId b = a == edge.u ? edge.v : edge.u;
      by_pair[{a, b}].push_back(e);
    }
    for (auto& [key, members] : by_pair) {
      if (members.size() != group.preds.size()) continue;  // Missing a predicate.
      PairId id = static_cast<PairId>(pairs_.size());
      pairs_.push_back(Pair{static_cast<int>(g), key.first, key.second, members});
      for (EdgeId e : members) pair_of_edge_[e] = id;
    }
  }

  for (PairId id = 0; id < static_cast<PairId>(pairs_.size()); ++id) {
    const Pair& pair = pairs_[id];
    vertex_pairs_[pair.a][GroupPosition(pair.a, pair.group)].push_back(id);
    vertex_pairs_[pair.b][GroupPosition(pair.b, pair.group)].push_back(id);
  }
}

int Pruner::GroupPosition(VertexId v, int group) const {
  const std::vector<int>& groups = relation_groups_[graph_->vertex(v).rel];
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i] == group) return static_cast<int>(i);
  }
  CDB_CHECK_MSG(false, "vertex relation not incident to group");
  return -1;
}

void Pruner::DeactivatePair(PairId pair_id, std::vector<VertexId>& queue,
                            bool simulating) {
  if (!pair_active_[pair_id]) return;
  pair_active_[pair_id] = 0;
  if (simulating) sim_deactivated_pairs_.push_back(pair_id);
  const Pair& pair = pairs_[pair_id];
  for (VertexId v : {pair.a, pair.b}) {
    if (!alive_[v]) continue;
    int gpos = GroupPosition(v, pair.group);
    --support_[v][gpos];
    if (simulating) sim_support_deltas_.push_back({v, gpos, -1});
    if (support_[v][gpos] == 0) queue.push_back(v);
  }
}

void Pruner::KillVertex(VertexId v, std::vector<VertexId>& queue,
                        bool simulating) {
  if (!alive_[v]) return;
  alive_[v] = 0;
  if (simulating) sim_killed_vertices_.push_back(v);
  for (const std::vector<PairId>& per_group : vertex_pairs_[v]) {
    for (PairId pair_id : per_group) DeactivatePair(pair_id, queue, simulating);
  }
}

void Pruner::Recompute() {
  // RED edges only ever shrink the greatest fixpoint, so a fixpoint that
  // gained RED edges and lost none is the old one with their pairs
  // deactivated and the kills cascaded. An alive vertex's support counts
  // then equal a fresh pass's; a dead vertex's counts are never read.
  const std::vector<uint8_t>& colors = graph_->edge_colors();
  const uint8_t red = static_cast<uint8_t>(EdgeColor::kRed);
  if (red_.size() != colors.size()) return FullRecompute();
  std::vector<EdgeId> newly_red;
  for (size_t e = 0; e < red_.size(); ++e) {
    if (red_[e] == (colors[e] == red)) continue;
    if (red_[e]) return FullRecompute();  // A RED edge lost its color.
    newly_red.push_back(static_cast<EdgeId>(e));
  }
  std::vector<VertexId> queue;
  for (EdgeId e : newly_red) {
    red_[static_cast<size_t>(e)] = 1;
    if (pair_of_edge_[e] >= 0) {
      DeactivatePair(pair_of_edge_[e], queue, /*simulating=*/false);
    }
  }
  while (!queue.empty()) {
    VertexId v = queue.back();
    queue.pop_back();
    KillVertex(v, queue, /*simulating=*/false);
  }
}

void Pruner::FullRecompute() {
  const std::vector<uint8_t>& colors = graph_->edge_colors();
  red_.resize(colors.size());
  for (size_t e = 0; e < colors.size(); ++e) {
    red_[e] = colors[e] == static_cast<uint8_t>(EdgeColor::kRed);
  }
  pair_active_.assign(pairs_.size(), 1);
  for (PairId id = 0; id < static_cast<PairId>(pairs_.size()); ++id) {
    for (EdgeId e : pairs_[id].members) {
      if (graph_->edge(e).color == EdgeColor::kRed) {
        pair_active_[id] = 0;
        break;
      }
    }
  }

  alive_.assign(graph_->num_vertices(), 1);
  support_.assign(graph_->num_vertices(), {});
  std::vector<VertexId> queue;
  for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
    support_[v].assign(vertex_pairs_[v].size(), 0);
    bool starved = vertex_pairs_[v].empty();
    for (size_t g = 0; g < vertex_pairs_[v].size(); ++g) {
      for (PairId pair_id : vertex_pairs_[v][g]) {
        if (pair_active_[pair_id]) ++support_[v][g];
      }
      if (support_[v][g] == 0) starved = true;
    }
    if (starved) queue.push_back(v);
  }

  while (!queue.empty()) {
    VertexId v = queue.back();
    queue.pop_back();
    KillVertex(v, queue, /*simulating=*/false);
  }
}

bool Pruner::EdgeValid(EdgeId e) const {
  const GraphEdge& edge = graph_->edge(e);
  if (edge.color == EdgeColor::kRed) return false;
  PairId pair_id = pair_of_edge_[e];
  if (pair_id < 0) return false;  // Pair never formed (parallel pred missing).
  return pair_active_[pair_id] != 0 && alive_[edge.u] && alive_[edge.v];
}

std::vector<EdgeId> Pruner::RemainingTasks() const {
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
    const GraphEdge& edge = graph_->edge(e);
    if (edge.is_crowd && edge.color == EdgeColor::kUnknown && EdgeValid(e)) {
      out.push_back(e);
    }
  }
  return out;
}

int64_t Pruner::SimulateCutInvalidation(const std::vector<EdgeId>& cut) {
  sim_deactivated_pairs_.clear();
  sim_killed_vertices_.clear();
  sim_support_deltas_.clear();

  std::vector<PairId> cut_pairs;
  std::vector<VertexId> queue;
  for (EdgeId e : cut) {
    PairId pair_id = pair_of_edge_[e];
    if (pair_id < 0 || !pair_active_[pair_id]) continue;
    cut_pairs.push_back(pair_id);
    DeactivatePair(pair_id, queue, /*simulating=*/true);
  }
  while (!queue.empty()) {
    VertexId v = queue.back();
    queue.pop_back();
    KillVertex(v, queue, /*simulating=*/true);
  }

  // Invalidated edges: unknown crowd members of pairs deactivated by the
  // cascade, excluding the pairs we cut directly.
  int64_t invalidated = 0;
  for (PairId pair_id : sim_deactivated_pairs_) {
    if (std::find(cut_pairs.begin(), cut_pairs.end(), pair_id) != cut_pairs.end()) {
      continue;
    }
    for (EdgeId e : pairs_[pair_id].members) {
      const GraphEdge& edge = graph_->edge(e);
      if (edge.is_crowd && edge.color == EdgeColor::kUnknown) ++invalidated;
    }
  }

  // Roll back.
  for (auto it = sim_support_deltas_.rbegin(); it != sim_support_deltas_.rend(); ++it) {
    support_[it->v][it->gpos] -= it->delta;
  }
  for (VertexId v : sim_killed_vertices_) alive_[v] = 1;
  for (PairId pair_id : sim_deactivated_pairs_) pair_active_[pair_id] = 1;
  return invalidated;
}

}  // namespace cdb
