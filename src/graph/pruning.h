// Invalid-edge detection (Definition 3) and cut-impact simulation.
//
// An edge is *valid* if it is contained in at least one candidate whose edges
// are all non-RED; RED answers therefore cascade, invalidating edges whose
// every supporting candidate has been refuted ("we can avoid asking such
// edges", Section 4.1). The Pruner maintains this incrementally-recomputable
// view over a QueryGraph.
//
// Implementation: predicates between the same relation pair are grouped (a
// candidate must realize all of them on the same tuple pair); aliveness is
// then an arc-consistency fixpoint over the group graph. For acyclic group
// graphs — every query in the paper's benchmark — this is exact; for cyclic
// group graphs it is a safe over-approximation (a superset of the valid
// edges), matching the paper's cycle-breaking treatment. Exact validity for
// small cyclic graphs is available in candidates.h.
//
// Recompute() costs what the colors changed. Adding RED edges only shrinks
// the greatest fixpoint, so while every RED edge of the previous call is
// still RED it deactivates the pairs of the new RED edges and cascades the
// kills from the old fixpoint; a RED edge that lost its color (a late-answer
// flip or a deduction rebuild) rebuilds the fixpoint from scratch. Both give
// a fresh Pruner's aliveness, validity and alive-vertex support counts.
#ifndef CDB_GRAPH_PRUNING_H_
#define CDB_GRAPH_PRUNING_H_

#include <cstdint>
#include <vector>

#include "graph/query_graph.h"

namespace cdb {

using PairId = int32_t;

// Tracks which vertices/edges can still participate in an answer.
class Pruner {
 public:
  // The graph must outlive the Pruner. Call Recompute() after construction
  // and after any batch of SetColor calls.
  explicit Pruner(const QueryGraph* graph);

  // Recomputes aliveness from the graph's current edge colors. When every
  // edge RED at the previous call is still RED, only the pairs of the newly
  // RED edges are deactivated and cascaded; otherwise the fixpoint is rebuilt
  // from scratch, O(V + E).
  void Recompute();

  [[nodiscard]] bool VertexAlive(VertexId v) const { return alive_[v]; }

  // True iff `e` is non-RED and participates in >= 1 surviving candidate.
  [[nodiscard]] bool EdgeValid(EdgeId e) const;

  // Valid, uncolored crowd edges: the remaining task pool.
  std::vector<EdgeId> RemainingTasks() const;

  // Simulates removing every edge in `cut` (all must share one endpoint and
  // one predicate in the intended Eq.-1 use, though any set works) and
  // returns the number of currently-valid *unknown* edges that would become
  // invalid, excluding the cut edges themselves. State is restored before
  // returning.
  int64_t SimulateCutInvalidation(const std::vector<EdgeId>& cut);

  // Number of groups (relation pairs carrying predicates). Exposed for tests.
  int num_groups() const { return static_cast<int>(groups_.size()); }
  // True if the relation-pair group graph is acyclic (pruning is exact).
  bool group_graph_acyclic() const { return group_graph_acyclic_; }

 private:
  struct Group {
    int rel_a = 0;
    int rel_b = 0;
    std::vector<int> preds;
  };
  // A tuple pair realizing every predicate of its group.
  struct Pair {
    int group = 0;
    VertexId a = kNoVertex;  // Vertex in rel_a.
    VertexId b = kNoVertex;  // Vertex in rel_b.
    std::vector<EdgeId> members;  // One edge per predicate of the group.
  };

  void BuildGroups();
  void BuildPairs();
  // The fixpoint from scratch over the current colors.
  void FullRecompute();
  int GroupPosition(VertexId v, int group) const;

  // Deactivates `pair` and decrements endpoint support counts; enqueues
  // vertices whose support for some group reaches zero. Shared by Recompute
  // and the simulation (which records undo state in the *_undo_ members).
  void DeactivatePair(PairId pair, std::vector<VertexId>& queue, bool simulating);
  void KillVertex(VertexId v, std::vector<VertexId>& queue, bool simulating);

  const QueryGraph* graph_;
  std::vector<Group> groups_;
  std::vector<int> group_of_pred_;
  bool group_graph_acyclic_ = true;

  std::vector<Pair> pairs_;
  std::vector<PairId> pair_of_edge_;
  // vertex_pairs_[v][gpos]: pairs incident to v for its gpos-th group.
  std::vector<std::vector<std::vector<PairId>>> vertex_pairs_;
  // relation_groups_[rel]: groups incident to the relation.
  std::vector<std::vector<int>> relation_groups_;

  // Mutable fixpoint state, for the RED edges flagged in red_.
  std::vector<uint8_t> red_;
  std::vector<uint8_t> pair_active_;
  std::vector<std::vector<int64_t>> support_;  // [v][gpos] active-pair count.
  std::vector<uint8_t> alive_;

  // Undo log for SimulateCutInvalidation.
  std::vector<PairId> sim_deactivated_pairs_;
  std::vector<VertexId> sim_killed_vertices_;
  struct SupportDelta {
    VertexId v;
    int gpos;
    int64_t delta;
  };
  std::vector<SupportDelta> sim_support_deltas_;
};

}  // namespace cdb

#endif  // CDB_GRAPH_PRUNING_H_
