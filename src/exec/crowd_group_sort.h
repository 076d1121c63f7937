// Crowd-powered GROUP BY and ORDER BY (Section 4.2, Remark).
//
// The paper supports these by composition: run the crowd-based selections
// and joins first, then apply existing crowdsourced techniques on the result
// — entity-resolution clustering for grouping [Wang et al. '13, Chai et
// al. '16] and pairwise comparisons for sorting [Marcus et al. '11, Chen et
// al. '13]. Both ask yes/no questions through YesNoCrowd
// (quality/truth_inference.h):
//
//  - CrowdGroupBy: clusters a column's values with match questions through
//    ResolveByTransitivity (graph/propagation.h), exploiting transitivity
//    (matched clusters merge, so tasks are saved), anti-transitivity (a no
//    separates two whole clusters) and similarity ordering (likely matches
//    asked first).
//  - CrowdOrderBy: sorts values with pairwise "does the first come first?"
//    questions in a crowd-powered merge sort; each round batches independent
//    comparisons.
#ifndef CDB_EXEC_CROWD_GROUP_SORT_H_
#define CDB_EXEC_CROWD_GROUP_SORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "crowd/platform.h"
#include "similarity/similarity.h"

namespace cdb {

// Ground truth for group tasks: whether two values denote the same group.
using GroupTruthFn = std::function<bool(size_t, size_t)>;
// Ground truth for sort tasks: whether values[a] precedes values[b].
using OrderTruthFn = std::function<bool(size_t, size_t)>;

struct CrowdGroupOptions {
  PlatformOptions platform;
  SimilarityFunction sim_fn = SimilarityFunction::kQGramJaccard;
  // Pairs below this similarity are assumed non-matching without asking
  // (the epsilon of Section 4.1 applied to grouping).
  double epsilon = 0.3;
};

struct CrowdGroupResult {
  // group_of[i] = dense group id of values[i].
  std::vector<int> group_of;
  int num_groups = 0;
  int64_t tasks_asked = 0;
  int64_t rounds = 0;
};

// Groups `values` with crowd match tasks. `truth` answers a perfect worker's
// "same group?" question; real workers err per their accuracy. A publish
// error (e.g. a fault profile the platform refuses) is returned.
Result<CrowdGroupResult> CrowdGroupBy(const std::vector<std::string>& values,
                                      const CrowdGroupOptions& options,
                                      const GroupTruthFn& truth);

struct CrowdSortOptions {
  PlatformOptions platform;
};

struct CrowdSortResult {
  // Indexes into the input, in crowd-judged ascending order.
  std::vector<size_t> order;
  int64_t tasks_asked = 0;
  int64_t rounds = 0;
};

// Sorts indexes [0, n) with crowd pairwise comparisons (merge sort; each
// merge level's independent comparisons are one crowdsourcing round batch).
// A publish error is returned.
Result<CrowdSortResult> CrowdOrderBy(size_t n, const CrowdSortOptions& options,
                                     const OrderTruthFn& truth);

}  // namespace cdb

#endif  // CDB_EXEC_CROWD_GROUP_SORT_H_
