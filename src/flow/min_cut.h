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
// Which minimum cut is reported is fixed by the network, not by the max-flow
// algorithm: every maximum flow leaves the same nodes reachable from s in
// its residual network, the source side of the minimum cut closest to s, and
// the reported RED edges are the ones leaving that set.
//
// The color-independent skeleton (combined layer pairs, member CSR, layer
// offsets) comes from a MinCutCache built once per graph; all per-call
// scratch lives in a caller-owned FlowArena that is reset, not reallocated,
// between calls.
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
  size_t m = 0;  // Number of chain occurrences.
  // Occurrence (layer i, tuple position k) has the flat index
  // layer_offsets[i] + k; size m + 1.
  std::vector<int32_t> layer_offsets;
  // Pairs for layer boundary i occupy [pair_offsets[i], pair_offsets[i+1]).
  std::vector<uint32_t> pair_offsets;  // Size m (empty graph: size 0).
  std::vector<int32_t> pair_a_occ;     // Per pair: occurrence in layer i.
  std::vector<int32_t> pair_b_occ;     // Per pair: occurrence in layer i + 1.
  // Member edges of pair p: member_edges[member_offsets[p] ..
  // member_offsets[p + 1]), in group-predicate order.
  std::vector<uint32_t> member_offsets;
  std::vector<EdgeId> member_edges;

  size_t num_pairs() const { return pair_a_occ.size(); }
};

// Builds the skeleton. `rel_graph` must be BuildRelGraph(graph) and `plan`
// BuildChainPlan(graph) (the caller typically caches all three together).
MinCutCache BuildMinCutCache(const QueryGraph& graph,
                             const RelGraph& rel_graph, const ChainPlan& plan);

// Reusable per-call scratch for ChainMinCutSelection. Vectors are resized
// (capacity kept) on every call; a default-constructed arena and a reused
// one produce byte-identical results.
struct FlowArena {
  std::vector<EdgeId> pair_red;       // Per pair: first RED member or kNoEdge.
  std::vector<uint8_t> pair_kind;     // Per pair: its role in the network.
  std::vector<int32_t> listed_pairs;  // B pairs, then core and forced pairs.
  std::vector<uint8_t> occ_flags;     // Per occurrence: chain and reach bits.
  std::vector<int32_t> occ_node;      // Per occurrence: first core node or -1.
  std::vector<uint8_t> edge_taken;    // Per edge: already emitted.
  std::vector<int32_t> red_pairs;     // Forced and core RED pairs, in order,
  std::vector<int32_t> red_arcs;      // with their core arc (-1 if forced).
  std::vector<uint8_t> source_side;   // Residual reachability per core node.
  MaxFlow flow;
};

// Runs the Lemma-1 selection. `colors[e]` supplies the (known or sampled)
// color of every edge and must be kBlue or kRed for each edge of the graph.
// Appends to `out` first the edges on complete all-BLUE chains (they form
// the answers), then the RED edges of the source-closest minimum cut, each
// list in pair order. A pair is represented by its first RED member, and
// no edge is appended twice.
void ChainMinCutSelection(const QueryGraph& graph, const MinCutCache& cache,
                          const std::vector<EdgeColor>& colors,
                          FlowArena* arena, std::vector<EdgeId>* out);

}  // namespace cdb

#endif  // CDB_FLOW_MIN_CUT_H_
