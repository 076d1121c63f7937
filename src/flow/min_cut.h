// The Lemma-1 flow construction (Section 5.1.1): with every edge color known,
// the edges worth asking are (a) the edges on all-BLUE chains — they are in
// answers and cannot be inferred — and (b) the RED edges of a minimum cut of
// a layered flow network in which BLUE edges have infinite capacity. Every
// other edge can be pruned.
//
// The network is built over a ChainPlan, so trees and cyclic queries reuse
// the construction after the Section-5.1.1 chain transformation (at the cost
// of duplicated relation occurrences, exactly as in the paper).
//
// The color-independent skeleton (combined layer pairs, member CSR, layer
// sizes) comes from a MinCutCache built once per graph; all per-call scratch
// lives in a caller-owned FlowArena that is reset, not reallocated, between
// calls.
#ifndef CDB_FLOW_MIN_CUT_H_
#define CDB_FLOW_MIN_CUT_H_

#include <cstdint>
#include <vector>

#include "flow/dinic.h"
#include "graph/query_graph.h"
#include "graph/structure.h"

namespace cdb {

// The color-independent skeleton of the Lemma-1 network for one ChainPlan:
// every combined tuple pair between adjacent layers, per layer boundary in
// ascending (tuple position, tuple position) order, with member edges in a
// flat CSR. Built once per graph; reused across samples/rounds.
struct MinCutCache {
  size_t m = 0;                    // Number of chain occurrences.
  std::vector<int32_t> layer_sizes;  // Tuples per occurrence layer (size m).
  std::vector<int32_t> layer_offsets;  // Prefix sums of layer_sizes (m + 1).
  // Pairs for layer boundary i occupy [pair_offsets[i], pair_offsets[i+1]).
  std::vector<uint32_t> pair_offsets;  // Size m (empty graph: size 0).
  std::vector<int32_t> pair_a_idx;     // Per pair: position in layer i.
  std::vector<int32_t> pair_b_idx;     // Per pair: position in layer i + 1.
  // Member edges of pair p: member_edges[member_offsets[p] ..
  // member_offsets[p + 1]), in group-predicate order.
  std::vector<uint32_t> member_offsets;
  std::vector<EdgeId> member_edges;

  size_t num_pairs() const { return pair_a_idx.size(); }
};

// Builds the skeleton. `rel_graph` must be BuildRelGraph(graph) and `plan`
// BuildChainPlan(graph) (the caller typically caches all three together).
MinCutCache BuildMinCutCache(const QueryGraph& graph,
                             const RelGraph& rel_graph, const ChainPlan& plan);

// Reusable per-call scratch for ChainMinCutSelection. Vectors are resized
// (capacity kept) on every call; a default-constructed arena and a reused
// one produce byte-identical results.
struct FlowArena {
  std::vector<uint8_t> pair_red;       // Per pair: has a RED member.
  std::vector<EdgeId> pair_red_member; // First RED member (kNoEdge if none).
  std::vector<uint8_t> forward;        // Per occurrence: blue path from layer 0.
  std::vector<uint8_t> backward;       // Per occurrence: blue path to layer m-1.
  std::vector<uint8_t> edge_taken;     // Per edge: already emitted.
  std::vector<uint8_t> pair_is_b;      // Per pair: on a complete blue chain.
  std::vector<int32_t> left_node;      // Per occurrence: flow node ids.
  std::vector<int32_t> right_node;
  std::vector<int32_t> red_arc_ids;    // Red arcs, paired with red_arc_pairs.
  std::vector<int32_t> red_arc_pairs;
  std::vector<uint8_t> source_side;    // Residual reachability per node.
  MaxFlow flow;
};

// Runs the Lemma-1 selection. `colors[e]` supplies the (known or sampled)
// color of every edge and must be kBlue or kRed for each edge of the graph.
// Appends to `out` first the edges on complete all-BLUE chains (they form
// the answers), then the RED edges of the minimum cut.
void ChainMinCutSelection(const QueryGraph& graph, const MinCutCache& cache,
                          const std::vector<EdgeColor>& colors,
                          FlowArena* arena, std::vector<EdgeId>* out);

}  // namespace cdb

#endif  // CDB_FLOW_MIN_CUT_H_
