// Latency control (Section 5.2): decide which tasks can be asked in the same
// round. Two edges conflict when they can appear in the same candidate —
// asking one might prune the other, so they must be sequenced.
//
// Two scheduling modes:
//
//  - kVertexGreedy (default): edges are admitted in expectation order and
//    skipped on conflict, where conflict is detected with the paper's
//    same-table rule applied per vertex: an edge (u, v) joins the round
//    unless u or v already has a round edge toward a *different* relation
//    (those pairs share a tuple and can extend each other into one
//    candidate). Pairs sharing no tuple are admitted optimistically: for
//    them co-candidacy requires a third linking edge, which is rare, and the
//    worst case is asking an edge that could have been inferred — a small
//    cost bound we measure in bench_ablation_latency. This keeps rounds
//    near the number of predicates, matching the paper's reported latency.
//
//  - kExactPrefix: the paper's literal Section-5.2 algorithm — per connected
//    component, the longest prefix of the ordered task list in which every
//    pair passes the exact same-candidate test. Exact but slow on large
//    components, and the strict prefix rule terminates rounds early.
#ifndef CDB_LATENCY_SCHEDULER_H_
#define CDB_LATENCY_SCHEDULER_H_

#include <vector>

#include "graph/pruning.h"
#include "graph/query_graph.h"

namespace cdb {

enum class LatencyMode {
  kVertexGreedy,
  kExactPrefix,
};

// Connected-component label per vertex over currently valid edges; dead
// vertices get label -1. Exposed for tests.
std::vector<int> ValidComponents(const QueryGraph& graph, const Pruner& pruner);

// Selects the tasks for one parallel round from `ordered_tasks` (descending
// expectation, all valid unknown crowd edges). Never returns an empty set
// when ordered_tasks is non-empty.
//
// `greedy_round_fraction` caps a vertex-greedy round at that fraction of the
// remaining tasks (minimum 32): asking the highest-expectation tasks first
// and letting their answers prune the rest recovers most of the sequential
// method's cost advantage while keeping the round count small — the
// cost/latency knob of Section 5.2 (see bench_fig22_cost_latency).
std::vector<EdgeId> SelectParallelRound(
    const QueryGraph& graph, const Pruner& pruner,
    const std::vector<EdgeId>& ordered_tasks,
    LatencyMode mode = LatencyMode::kVertexGreedy,
    double greedy_round_fraction = 0.34);

}  // namespace cdb

#endif  // CDB_LATENCY_SCHEDULER_H_
