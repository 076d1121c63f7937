#include "latency/scheduler.h"

#include <algorithm>

#include "graph/candidates.h"

namespace cdb {
namespace {

std::vector<EdgeId> VertexGreedyRound(const QueryGraph& graph,
                                      const std::vector<EdgeId>& ordered_tasks) {
  // partner_rel[v] = the single relation v's round edges point to, or -1.
  // An edge joins the round iff each endpoint is either unused or already
  // paired with the same partner relation (the paper's same-table rule:
  // edges sharing a tuple toward two different relations can lie in one
  // candidate and must be sequenced; edges sharing a tuple toward two
  // different tuples of one relation never can).
  std::vector<int> partner_rel(graph.num_vertices(), -1);
  std::vector<EdgeId> round;
  for (EdgeId e : ordered_tasks) {
    const GraphEdge& edge = graph.edge(e);
    int u_partner = graph.vertex(edge.v).rel;
    int v_partner = graph.vertex(edge.u).rel;
    if (partner_rel[edge.u] != -1 && partner_rel[edge.u] != u_partner) continue;
    if (partner_rel[edge.v] != -1 && partner_rel[edge.v] != v_partner) continue;
    partner_rel[edge.u] = u_partner;
    partner_rel[edge.v] = v_partner;
    round.push_back(e);
  }
  return round;
}

std::vector<EdgeId> ExactPrefixRound(const QueryGraph& graph,
                                     const Pruner& pruner,
                                     const std::vector<EdgeId>& ordered_tasks) {
  std::vector<int> component = ValidComponents(graph, pruner);

  // Group the ordered tasks by component, preserving order.
  int num_components = 0;
  for (int c : component) num_components = std::max(num_components, c + 1);
  std::vector<std::vector<EdgeId>> per_component(num_components);
  for (EdgeId e : ordered_tasks) {
    int c = component[graph.edge(e).u];
    if (c >= 0) per_component[c].push_back(e);
  }

  std::vector<EdgeId> round;
  for (const std::vector<EdgeId>& tasks : per_component) {
    // Longest prefix with pairwise non-conflict edges (Section 5.2 verbatim).
    std::vector<EdgeId> prefix;
    for (EdgeId e : tasks) {
      bool conflicts = false;
      for (EdgeId sel : prefix) {
        if (EdgesConflict(graph, e, sel)) {
          conflicts = true;
          break;
        }
      }
      if (conflicts) break;
      prefix.push_back(e);
    }
    round.insert(round.end(), prefix.begin(), prefix.end());
  }
  return round;
}

}  // namespace

std::vector<int> ValidComponents(const QueryGraph& graph, const Pruner& pruner) {
  std::vector<int> label(graph.num_vertices(), -1);
  std::vector<int> parent(graph.num_vertices());
  for (int i = 0; i < graph.num_vertices(); ++i) parent[i] = i;
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (!pruner.EdgeValid(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    parent[find(edge.u)] = find(edge.v);
  }
  int next_label = 0;
  std::vector<int> root_label(graph.num_vertices(), -1);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (!pruner.VertexAlive(v)) continue;
    int root = find(v);
    if (root_label[root] == -1) root_label[root] = next_label++;
    label[v] = root_label[root];
  }
  return label;
}

std::vector<EdgeId> SelectParallelRound(const QueryGraph& graph,
                                        const Pruner& pruner,
                                        const std::vector<EdgeId>& ordered_tasks,
                                        LatencyMode mode,
                                        double greedy_round_fraction) {
  if (ordered_tasks.empty()) return {};
  if (mode == LatencyMode::kVertexGreedy) {
    std::vector<EdgeId> round = VertexGreedyRound(graph, ordered_tasks);
    size_t cap = std::max<size_t>(
        32, static_cast<size_t>(static_cast<double>(ordered_tasks.size()) *
                                greedy_round_fraction));
    if (round.size() > cap) round.resize(cap);
    return round;
  }
  return ExactPrefixRound(graph, pruner, ordered_tasks);
}

}  // namespace cdb
