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
  cache.layer_offsets.assign(1, 0);
  for (size_t i = 0; i < cache.m; ++i) {
    const int32_t size =
        static_cast<int32_t>(graph.relation_vertices(plan.occ_rel[i]).size());
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
      cache.pair_a_occ.push_back(cache.layer_offsets[i] + key.first);
      cache.pair_b_occ.push_back(cache.layer_offsets[i + 1] + key.second);
      cache.member_edges.insert(cache.member_edges.end(), members.begin(),
                                members.end());
      cache.member_offsets.push_back(
          static_cast<uint32_t>(cache.member_edges.size()));
    }
    cache.pair_offsets.push_back(static_cast<uint32_t>(cache.num_pairs()));
  }
  return cache;
}

namespace {

// Per-occurrence bits. The BLUE-chain DP sets the first two; an occurrence
// with both lies on a complete all-BLUE chain.
constexpr uint8_t kFromFirst = 1;  // BLUE path from layer 0.
constexpr uint8_t kToLast = 2;     // BLUE path to layer m - 1.
constexpr uint8_t kSource = 4;     // s feeds the outgoing side.
constexpr uint8_t kSink = 8;       // The incoming side feeds t.
// Reachability through free pairs (below). s reaches the outgoing side; the
// incoming side reaches t. An occurrence off the chains is one node, so
// either bit holds for both of its sides.
constexpr uint8_t kReached = 16;
constexpr uint8_t kCoReached = 32;

bool OnChain(uint8_t f) {
  return (f & (kFromFirst | kToLast)) == (kFromFirst | kToLast);
}

// Per-pair roles. A B pair lies on a complete all-BLUE chain and is not in
// the network. A forced pair is RED from a source-attached occurrence to a
// sink-attached one: an s-t path on its own. Free pairs are the rest; the
// core ones lie on an s-t path of free pairs.
constexpr uint8_t kFree = 0;
constexpr uint8_t kB = 1;
constexpr uint8_t kForced = 2;
constexpr uint8_t kCore = 3;

}  // namespace

void ChainMinCutSelection(const QueryGraph& graph, const MinCutCache& cache,
                          const std::vector<EdgeColor>& colors,
                          FlowArena* arena, std::vector<EdgeId>* out) {
  CDB_CHECK_EQ(colors.size(), static_cast<size_t>(graph.num_edges()));
  const size_t m = cache.m;
  if (m < 2) return;
  const size_t num_pairs = cache.num_pairs();
  const size_t num_occ = static_cast<size_t>(cache.layer_offsets[m]);
  const int32_t* pair_a = cache.pair_a_occ.data();
  const int32_t* pair_b = cache.pair_b_occ.data();
  const uint32_t* member_offsets = cache.member_offsets.data();
  const EdgeId* member_edges = cache.member_edges.data();

  // The first RED member stands for the pair. The loops below are written
  // without data-dependent branches: sampled colors are coin flips.
  std::vector<EdgeId>& pair_red = arena->pair_red;
  pair_red.resize(num_pairs);
  std::vector<uint8_t>& flags = arena->occ_flags;
  flags.assign(num_occ, 0);
  std::fill(flags.begin(), flags.begin() + cache.layer_offsets[1], kFromFirst);
  for (size_t o = static_cast<size_t>(cache.layer_offsets[m - 1]); o < num_occ;
       ++o) {
    flags[o] |= kToLast;
  }
  // BLUE-chain DP in layer order, forward while classifying, then backward.
  for (size_t pid = 0; pid < num_pairs; ++pid) {
    EdgeId red = kNoEdge;
    for (uint32_t mi = member_offsets[pid + 1]; mi-- > member_offsets[pid];) {
      const EdgeId e = member_edges[mi];
      red = colors[e] == EdgeColor::kRed ? e : red;
    }
    pair_red[pid] = red;
    flags[pair_b[pid]] |= red == kNoEdge ? flags[pair_a[pid]] & kFromFirst : 0;
  }
  for (size_t pid = num_pairs; pid-- > 0;) {
    flags[pair_a[pid]] |=
        pair_red[pid] == kNoEdge ? flags[pair_b[pid]] & kToLast : 0;
  }

  // The Lemma-1 network has a node per occurrence, split into an incoming
  // and an outgoing node on a complete BLUE chain. s feeds the outgoing side
  // of every source-attached occurrence (layer 0 or on a chain); the
  // incoming side of every sink-attached one (layer m - 1 or on a chain)
  // feeds t. Every pair off the chains is an arc, of capacity 1 if RED and
  // infinite otherwise, so each RED deviation from a BLUE chain forms an
  // s-t path (Lemma 1).
  for (size_t i = 0; i < m; ++i) {
    const uint8_t source = i == 0 ? kSource | kReached : 0;
    const uint8_t sink = i == m - 1 ? kSink | kCoReached : 0;
    for (int32_t o = cache.layer_offsets[i]; o < cache.layer_offsets[i + 1];
         ++o) {
      const uint8_t chain =
          OnChain(flags[o]) ? kSource | kReached | kSink | kCoReached : 0;
      flags[o] |= source | sink | chain;
    }
  }

  // In layer order: find the B pairs and the forced pairs, and sweep
  // reachability from s through the free pairs.
  std::vector<uint8_t>& kind = arena->pair_kind;
  kind.resize(num_pairs);
  std::vector<int32_t>& listed = arena->listed_pairs;
  listed.resize(num_pairs);
  size_t num_b = 0;
  for (size_t pid = 0; pid < num_pairs; ++pid) {
    const uint8_t fa = flags[pair_a[pid]];
    const uint8_t fb = flags[pair_b[pid]];
    const bool red = pair_red[pid] != kNoEdge;
    const bool is_b = !red && (fa & kFromFirst) && (fb & kToLast);
    const bool forced = red && (fa & kSource) && (fb & kSink);
    kind[pid] = is_b ? kB : forced ? kForced : kFree;
    flags[pair_b[pid]] =
        fb | (!is_b && !forced && (fa & kReached) ? kReached : 0);
    listed[num_b] = static_cast<int32_t>(pid);
    num_b += is_b;
  }
  // B-pair members, in pair order then member order.
  std::vector<uint8_t>& taken = arena->edge_taken;
  taken.assign(static_cast<size_t>(graph.num_edges()), 0);
  for (size_t bi = 0; bi < num_b; ++bi) {
    const int32_t pid = listed[bi];
    for (uint32_t mi = member_offsets[pid]; mi < member_offsets[pid + 1];
         ++mi) {
      const EdgeId e = member_edges[mi];
      if (!taken[e]) {
        taken[e] = 1;
        out->push_back(e);
      }
    }
  }

  // Backward: sweep reachability to t through the free pairs. A free pair is
  // in the core when s reaches its tail and its head reaches t; only core
  // pairs can carry flow. Core and forced pairs are listed backward.
  int64_t core_red = 0;
  size_t num_listed = 0;
  for (size_t pid = num_pairs; pid-- > 0;) {
    const int32_t a = pair_a[pid];
    const uint8_t k = kind[pid];
    const bool live = k == kFree && (flags[pair_b[pid]] & kCoReached);
    const uint8_t fa = flags[a] | (live ? kCoReached : 0);
    flags[a] = fa;
    const bool core = live && (fa & kReached);
    kind[pid] = core ? kCore : k;
    core_red += core && pair_red[pid] != kNoEdge;
    listed[num_listed] = static_cast<int32_t>(pid);
    num_listed += core || k == kForced;
  }

  // Max flow on the core network only. Every minimum cut holds the forced
  // pairs, and no pair outside the core leaves the source side, so the cut
  // is the forced pairs plus the core RED arcs leaving the residual source
  // side, which every maximum flow of the core leaves the same.
  const int64_t inf = core_red + 1;
  MaxFlow& flow = arena->flow;
  flow.Reset(2);
  const int s = 0;
  const int t = 1;
  std::vector<int32_t>& node = arena->occ_node;
  node.assign(num_occ, -1);
  // The incoming node of occurrence o, created on first use; on a chain the
  // outgoing node follows it.
  auto node_of = [&](int32_t o) {
    if (node[o] < 0) {
      node[o] = flow.AddNode();
      if (OnChain(flags[o])) {
        flow.AddArc(s, flow.AddNode(), inf);
        flow.AddArc(node[o], t, inf);
      } else if (flags[o] & kSource) {
        flow.AddArc(s, node[o], inf);
      } else if (flags[o] & kSink) {
        flow.AddArc(node[o], t, inf);
      }
    }
    return node[o];
  };
  arena->red_pairs.clear();
  arena->red_arcs.clear();
  for (size_t li = num_listed; li-- > 0;) {
    const int32_t pid = listed[li];
    const bool red = pair_red[pid] != kNoEdge;
    int arc = -1;
    if (kind[pid] == kCore) {
      const int32_t a = pair_a[pid];
      const int from = node_of(a) + (OnChain(flags[a]) ? 1 : 0);
      arc = flow.AddArc(from, node_of(pair_b[pid]), red ? 1 : inf);
    }
    if (red) {
      arena->red_pairs.push_back(pid);
      arena->red_arcs.push_back(arc);
    }
  }

  flow.Compute(s, t);
  flow.SourceSideInto(s, &arena->source_side);
  for (size_t ri = 0; ri < arena->red_pairs.size(); ++ri) {
    const int arc = arena->red_arcs[ri];
    if (arc >= 0 && !(arena->source_side[flow.arc_from(arc)] &&
                      !arena->source_side[flow.arc_to(arc)])) {
      continue;
    }
    const EdgeId e = pair_red[arena->red_pairs[ri]];
    if (!taken[e]) {
      taken[e] = 1;
      out->push_back(e);
    }
  }
}

}  // namespace cdb
