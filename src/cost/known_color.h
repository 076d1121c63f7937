// Task selection when every edge color is known (Section 5.1.1). Used
// directly by the OptTree-style oracle analyses and per-sample by the
// sampling-based min-cut greedy (Section 5.1.2).
//
// Both selection rules run over precomputed color-independent structures
// (StarCache here, MinCutCache in flow/min_cut.h, both bundled by
// cost/structure_cache.h, whose SelectTasksKnownColors dispatches between
// them), so the sampler reuses them across thousands of samples.
#ifndef CDB_COST_KNOWN_COLOR_H_
#define CDB_COST_KNOWN_COLOR_H_

#include <cstdint>
#include <vector>

#include "graph/query_graph.h"
#include "graph/structure.h"

namespace cdb {

// Color-independent skeleton of the star rule for one center relation: the
// per-(tuple, group) edge buckets and the per-neighbor member units. Buckets
// drive both "ask all edges of t" and the cheapest-group tie-break (bucket
// sizes included), units drive group satisfaction; only the color tests
// remain per call.
struct StarCache {
  int center_rel = -1;
  int num_groups = 0;  // Adjacent groups of the center relation.
  std::vector<int32_t> group_pred_counts;  // Predicates per adjacent group.
  // Bucket of (tuple ti, group gi) lives at slot ti * num_groups + gi:
  // bucket_edges[bucket_offsets[slot] .. bucket_offsets[slot + 1]).
  std::vector<uint32_t> bucket_offsets;
  std::vector<EdgeId> bucket_edges;
  // Units of the same slot: unit_members[unit_offsets[slot] ..
  // unit_offsets[slot + 1]), each unit group_pred_counts[gi] consecutive
  // entries (kNoEdge = predicate has no edge to that neighbor).
  std::vector<uint32_t> unit_offsets;
  std::vector<EdgeId> unit_members;
};

// `rel_graph` must be BuildRelGraph(graph).
StarCache BuildStarCache(const QueryGraph& graph, const RelGraph& rel_graph,
                         int center_rel);

// The star-join rule: for each center tuple, if it has a BLUE edge to every
// leaf relation all its edges must be asked; otherwise ask only the leaf
// relation with the fewest (all-RED) edges. Fills `out` (cleared first) with
// the sorted, deduplicated edge set.
void StarSelection(const QueryGraph& graph, const StarCache& cache,
                   const std::vector<EdgeColor>& colors,
                   std::vector<EdgeId>* out);

}  // namespace cdb

#endif  // CDB_COST_KNOWN_COLOR_H_
