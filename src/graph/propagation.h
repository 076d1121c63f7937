// Answer propagation: transitive and anti-transitive deduction over crowd
// answers (ROADMAP item 3; Wang et al., "Leveraging Transitive Relations for
// Crowdsourced Joins").
//
// A crowd predicate compares attribute values, so its answers are statements
// about value equality: a BLUE edge (u, v) says value(u) == value(v), a RED
// edge says they differ. Equality is transitive — BLUE edges merge vertices
// into clusters — and a RED edge separates two whole clusters: every pair
// drawn from the two clusters is a non-match (anti-transitivity). An edge
// whose endpoints share a cluster is therefore deducible BLUE without asking
// the crowd; an edge whose endpoint clusters are recorded non-matches is
// deducible RED.
//
// MatchClusters is the per-predicate domain: a union-find over vertex ids
// plus cluster-level non-match facts. Facts are keyed at *current* cluster
// roots and re-rooted eagerly when Union() absorbs a root, so KnownNonMatch
// is a single adjacency probe that can never miss a fact recorded under a
// root that has since been merged away. A fact whose two clusters later
// merge is contradictory crowd evidence; matches win (the union proceeds),
// the fact is dropped, and conflicts() counts it. ResolveByTransitivity runs
// the crowd-facing loop over one domain.
//
// DeductionState glues one MatchClusters per crowd predicate onto a
// QueryGraph. Transitivity is only sound within one predicate — two
// predicates compare different attribute pairs, so sharing a vertex across
// predicates implies nothing. All containers are ordered and all methods are
// deterministic in the observation sequence; the *partition* and the fact
// set depend only on the set of observed edges, not their order, which is
// what lets QuerySession rebuild this state from graph colors after a
// snapshot restore or a late-answer invalidation.
#ifndef CDB_GRAPH_PROPAGATION_H_
#define CDB_GRAPH_PROPAGATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/query_graph.h"

namespace cdb {

// Union-find over [0, num_vertices) with cluster-level non-match facts kept
// at current roots. Find() path-compresses, so lookups amortize to near
// constant; Union() re-roots the absorbed side's facts eagerly.
class MatchClusters {
 public:
  explicit MatchClusters(int num_vertices);

  // Root of x's cluster, with path compression.
  int Find(int x);
  bool SameCluster(int a, int b) { return Find(a) == Find(b); }

  // Merges the clusters of a and b (no-op if already merged). The absorbed
  // root's non-match facts are re-keyed onto the surviving root; a fact that
  // the merge internalizes (the two clusters were recorded non-matches of
  // each other) is dropped as a conflict — matches win.
  void Union(int a, int b);

  // Records that a's and b's clusters do not match. Recording a fact inside
  // one cluster is contradictory evidence: dropped and counted.
  void AddNonMatch(int a, int b);

  // True when a's and b's clusters are recorded non-matches. Always current:
  // facts follow cluster merges, so no snapshot/refresh step exists.
  bool KnownNonMatch(int a, int b);

  int64_t num_clusters() const { return num_clusters_; }
  // Contradictory facts dropped so far (match-wins resolutions).
  int64_t conflicts() const { return conflicts_; }

 private:
  std::vector<int32_t> parent_;
  std::vector<int32_t> size_;
  // root -> roots of clusters recorded as non-matches (symmetric adjacency;
  // the pair (a, b) appears under both roots). Ordered containers keep every
  // iteration deterministic.
  std::map<int32_t, std::set<int32_t>> enemies_;
  int64_t num_clusters_ = 0;
  int64_t conflicts_ = 0;
};

// Asks the crowd one round of pairs (indexes into the resolved pair list)
// and returns one match decision per pair.
using AskPairsFn =
    std::function<Result<std::vector<bool>>(const std::vector<size_t>& round)>;
// Receives a pair the clusters decided without asking.
using InferredPairFn = std::function<void(size_t pair, bool match)>;

// Wang et al.'s transitive resolution loop, shared by the Trans/ACD
// comparators and crowd GROUP BY. Walks the node `pairs` in order, one round
// at a time: a pair inside one cluster goes to `inferred` (may be empty) as
// a match, a pair across two recorded non-matching clusters as a non-match,
// and each other pair is asked, at most one per cluster per round so this
// round's answers can decide the pairs deferred to the next. A yes merges
// the two clusters; a no records a non-match only when `record_nonmatches`
// is set (Trans, GROUP BY; ACD re-asks). An error from `ask` is returned.
Status ResolveByTransitivity(MatchClusters* clusters,
                             const std::vector<std::pair<int, int>>& pairs,
                             bool record_nonmatches, const AskPairsFn& ask,
                             const InferredPairFn& inferred);

// Per-predicate deduction domains over one QueryGraph. Feed crowd-answered
// edge colors in with Observe(); query implied colors with Deduce().
class DeductionState {
 public:
  // `graph` is borrowed and must outlive this object (and be finalized).
  explicit DeductionState(const QueryGraph* graph);

  // Drops all observed facts, keeping the graph binding (used when late
  // evidence invalidates the closure and it is re-derived from scratch).
  void Reset();

  // Folds one crowd-evidenced edge color into the edge's predicate domain.
  // `color` must be kBlue or kRed.
  void Observe(EdgeId e, EdgeColor color);

  // The color implied for `e` by the observed evidence: kBlue if its
  // endpoints share a cluster, else kRed if their clusters are recorded
  // non-matches, else kUnknown. Checking the match first makes match-wins
  // precedence structural. Never observes anything.
  EdgeColor Deduce(EdgeId e);

  // Normalized (root, root) pair of e's endpoint clusters in its predicate
  // domain — the key for expected-yield counting: one answer for any edge of
  // a cluster pair resolves every still-unknown edge of that pair.
  std::pair<int32_t, int32_t> ClusterPair(EdgeId e);

  // Contradictory observations dropped across all domains.
  int64_t conflicts() const;

 private:
  const QueryGraph* graph_;
  std::vector<MatchClusters> domains_;  // One per predicate.
};

}  // namespace cdb

#endif  // CDB_GRAPH_PROPAGATION_H_
