#include "flow/min_cut.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "flow/dinic.h"

namespace cdb {

MinCutCache BuildMinCutCache(const QueryGraph& graph,
                             const RelGraph& rel_graph,
                             const ChainPlan& plan) {
  MinCutCache cache;
  cache.m = plan.occ_rel.size();
  cache.layer_sizes.reserve(cache.m);
  cache.layer_offsets.assign(1, 0);
  for (size_t i = 0; i < cache.m; ++i) {
    const int32_t size =
        static_cast<int32_t>(graph.relation_vertices(plan.occ_rel[i]).size());
    cache.layer_sizes.push_back(size);
    cache.layer_offsets.push_back(cache.layer_offsets.back() + size);
  }
  if (cache.m < 2) return cache;

  cache.pair_offsets.assign(1, 0);
  cache.member_offsets.assign(1, 0);
  for (size_t i = 0; i + 1 < cache.m; ++i) {
    const RelGraph::Group& group = rel_graph.groups[plan.occ_group[i]];
    const int rel_a = plan.occ_rel[i];
    // Pairs are keyed by the dense per-relation tuple positions
    // (QueryGraph::relation_position) and enumerated in std::map order —
    // deterministic and color-independent — with members in
    // group-predicate order. A pair joins the network only when it has one
    // member per predicate of the group.
    std::map<std::pair<int, int>, std::vector<EdgeId>> by_pair;
    for (int p : group.preds) {
      for (VertexId v : graph.relation_vertices(rel_a)) {
        for (EdgeId e : graph.IncidentEdges(v, p)) {
          VertexId w = graph.Opposite(e, v);
          by_pair[{graph.relation_position(v), graph.relation_position(w)}]
              .push_back(e);
        }
      }
    }
    for (auto& [key, members] : by_pair) {
      if (members.size() != group.preds.size()) continue;
      cache.pair_a_idx.push_back(key.first);
      cache.pair_b_idx.push_back(key.second);
      cache.member_edges.insert(cache.member_edges.end(), members.begin(),
                                members.end());
      cache.member_offsets.push_back(
          static_cast<uint32_t>(cache.member_edges.size()));
    }
    cache.pair_offsets.push_back(static_cast<uint32_t>(cache.num_pairs()));
  }
  return cache;
}

void ChainMinCutSelection(const QueryGraph& graph, const MinCutCache& cache,
                          const std::vector<EdgeColor>& colors,
                          FlowArena* arena, std::vector<EdgeId>* out) {
  CDB_CHECK_EQ(colors.size(), static_cast<size_t>(graph.num_edges()));
  const size_t m = cache.m;
  if (m < 2) return;
  const size_t num_pairs = cache.num_pairs();
  const size_t num_occ = static_cast<size_t>(cache.layer_offsets[m]);

  // Per-pair color classification: the first RED member stands for the pair.
  arena->pair_red.assign(num_pairs, 0);
  arena->pair_red_member.assign(num_pairs, kNoEdge);
  for (size_t pid = 0; pid < num_pairs; ++pid) {
    for (uint32_t mi = cache.member_offsets[pid];
         mi < cache.member_offsets[pid + 1]; ++mi) {
      const EdgeId e = cache.member_edges[mi];
      if (colors[e] == EdgeColor::kRed) {
        arena->pair_red[pid] = 1;
        arena->pair_red_member[pid] = e;
        break;
      }
    }
  }

  // BLUE-chain DP over flat per-occurrence flags; occurrence (i, idx) lives
  // at layer_offsets[i] + idx.
  auto occ = [&](size_t i, int32_t idx) {
    return static_cast<size_t>(cache.layer_offsets[i]) +
           static_cast<size_t>(idx);
  };
  arena->forward.assign(num_occ, 0);
  arena->backward.assign(num_occ, 0);
  std::fill(arena->forward.begin(),
            arena->forward.begin() + cache.layer_sizes[0], 1);
  std::fill(arena->backward.begin() + cache.layer_offsets[m - 1],
            arena->backward.begin() + cache.layer_offsets[m], 1);
  for (size_t i = 0; i + 1 < m; ++i) {
    for (uint32_t pid = cache.pair_offsets[i]; pid < cache.pair_offsets[i + 1];
         ++pid) {
      if (!arena->pair_red[pid] &&
          arena->forward[occ(i, cache.pair_a_idx[pid])]) {
        arena->forward[occ(i + 1, cache.pair_b_idx[pid])] = 1;
      }
    }
  }
  for (size_t i = m - 1; i-- > 0;) {
    for (uint32_t pid = cache.pair_offsets[i]; pid < cache.pair_offsets[i + 1];
         ++pid) {
      if (!arena->pair_red[pid] &&
          arena->backward[occ(i + 1, cache.pair_b_idx[pid])]) {
        arena->backward[occ(i, cache.pair_a_idx[pid])] = 1;
      }
    }
  }

  // B-edges: members of blue pairs lying on a complete blue chain, emitted in
  // pair order then member order.
  arena->edge_taken.assign(static_cast<size_t>(graph.num_edges()), 0);
  arena->pair_is_b.assign(num_pairs, 0);
  for (size_t i = 0; i + 1 < m; ++i) {
    for (uint32_t pid = cache.pair_offsets[i]; pid < cache.pair_offsets[i + 1];
         ++pid) {
      if (arena->pair_red[pid]) continue;
      if (arena->forward[occ(i, cache.pair_a_idx[pid])] &&
          arena->backward[occ(i + 1, cache.pair_b_idx[pid])]) {
        arena->pair_is_b[pid] = 1;
        for (uint32_t mi = cache.member_offsets[pid];
             mi < cache.member_offsets[pid + 1]; ++mi) {
          const EdgeId e = cache.member_edges[mi];
          if (!arena->edge_taken[e]) {
            arena->edge_taken[e] = 1;
            out->push_back(e);
          }
        }
      }
    }
  }

  // Flow network, rebuilt with reset-not-rebuild scratch. Each occurrence
  // vertex has a left node (incoming arcs) and a right node (outgoing arcs);
  // they coincide unless the vertex is on a blue chain, in which case the
  // copies are detached and wired to s / t so every red deviation from the
  // blue chain forms an s-t path (Lemma 1). Node ids and arc insertion order
  // fix Dinic's augmentation order, and with it which minimum cut is
  // reported.
  int64_t num_red = 0;
  for (size_t pid = 0; pid < num_pairs; ++pid) {
    num_red += arena->pair_red[pid] ? 1 : 0;
  }
  const int64_t kInf = num_red + 1;

  MaxFlow& flow = arena->flow;
  flow.Reset(0);
  const int s = flow.AddNode();
  const int t = flow.AddNode();
  arena->left_node.resize(num_occ);
  arena->right_node.resize(num_occ);
  for (size_t i = 0; i < m; ++i) {
    for (int32_t idx = 0; idx < cache.layer_sizes[i]; ++idx) {
      const size_t o = occ(i, idx);
      bool on_blue_chain = arena->forward[o] && arena->backward[o];
      int left = flow.AddNode();
      int right = on_blue_chain ? flow.AddNode() : left;
      arena->left_node[o] = left;
      arena->right_node[o] = right;
      if (on_blue_chain) {
        flow.AddArc(s, right, kInf);
        flow.AddArc(left, t, kInf);
      }
      if (i == 0) flow.AddArc(s, right, kInf);
      if (i == m - 1) flow.AddArc(left, t, kInf);
    }
  }
  arena->red_arc_ids.clear();
  arena->red_arc_pairs.clear();
  for (size_t i = 0; i + 1 < m; ++i) {
    for (uint32_t pid = cache.pair_offsets[i]; pid < cache.pair_offsets[i + 1];
         ++pid) {
      if (arena->pair_is_b[pid]) continue;  // Blue-chain edges are removed.
      int from = arena->right_node[occ(i, cache.pair_a_idx[pid])];
      int to = arena->left_node[occ(i + 1, cache.pair_b_idx[pid])];
      int arc = flow.AddArc(from, to, arena->pair_red[pid] ? 1 : kInf);
      if (arena->pair_red[pid]) {
        arena->red_arc_ids.push_back(arc);
        arena->red_arc_pairs.push_back(static_cast<int32_t>(pid));
      }
    }
  }

  flow.Compute(s, t);
  flow.SourceSideInto(s, &arena->source_side);
  for (size_t ri = 0; ri < arena->red_arc_ids.size(); ++ri) {
    const int arc = arena->red_arc_ids[ri];
    if (arena->source_side[flow.arc_from(arc)] &&
        !arena->source_side[flow.arc_to(arc)]) {
      const EdgeId e = arena->pair_red_member[arena->red_arc_pairs[ri]];
      if (!arena->edge_taken[e]) {
        arena->edge_taken[e] = 1;
        out->push_back(e);
      }
    }
  }
}

}  // namespace cdb
