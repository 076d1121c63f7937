// Per-graph cache of the optimizer's color-independent structures
// (Section 5.1): the relation-level multigraph, the join-structure
// classification, the chain transformation, and the flat skeletons of the
// two known-color selection rules. Built once per graph build (or
// snapshot restore) and shared read-only by every sample of every round —
// the structures depend only on the edge set, never on colors.
#ifndef CDB_COST_STRUCTURE_CACHE_H_
#define CDB_COST_STRUCTURE_CACHE_H_

#include <vector>

#include "cost/known_color.h"
#include "flow/min_cut.h"
#include "graph/query_graph.h"
#include "graph/structure.h"

namespace cdb {

struct StructureCache {
  RelGraph rel_graph;
  JoinStructure structure = JoinStructure::kChain;
  // Star queries use the per-center-tuple rule; everything else goes through
  // the chain transformation + Lemma-1 min cut.
  int star_center = -1;
  StarCache star;      // Populated iff structure == kStar.
  ChainPlan plan;      // Populated iff structure != kStar.
  MinCutCache min_cut; // Populated iff structure != kStar.

  static StructureCache Build(const QueryGraph& graph);
};

// Per-worker scratch for repeated cached selections. Reused across samples;
// a fresh arena and a reused one produce byte-identical selections.
struct SelectionArena {
  FlowArena flow;
  std::vector<EdgeColor> colors;  // Sampled-coloring buffer (sampler use).
  std::vector<EdgeId> selected;   // Per-sample selection buffer.
};

// Returns, in `out` (cleared first), the edges that must be asked to find
// all answers given the full coloring `colors` (every edge kBlue or kRed).
// Dispatches on the join structure: the per-center-tuple rule for stars, and
// the Lemma-1 chain min cut (after the tree/graph -> chain transformation)
// otherwise.
void SelectTasksKnownColors(const QueryGraph& graph,
                            const std::vector<EdgeColor>& colors,
                            const StructureCache& cache, SelectionArena* arena,
                            std::vector<EdgeId>* out);

}  // namespace cdb

#endif  // CDB_COST_STRUCTURE_CACHE_H_
