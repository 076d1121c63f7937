// Similarity join: find all cross-table string pairs with similarity >= a
// threshold without enumerating the cross product.
//
// Section 4.1 of the paper relies on prefix-filtering similarity-join
// techniques [Bayardo et al. WWW'07] to build the query graph: only pairs
// with sim >= epsilon (default 0.3) become edges. This module implements an
// AllPairs-style prefix filter for the token-based measures and a
// length/q-gram filter plus banded verification for edit distance.
//
// Posting lists live in CSR arrays (csr_index.h), encoded token sets in a
// flat SoA arena. The token joins probe PPJoin-style: prefix postings carry
// token positions, and a positional bound drops candidates whose overlap can
// no longer reach the threshold. A 64-bit XOR+popcount signature pre-filter
// (signature.h) rejects further provably-below-threshold pairs before the
// exact verify, which merges only the dense-id suffixes after the last
// prefix matches instead of re-comparing string sets. `ctest -L simjoin`
// checks every join against a nested loop over ComputeSimilarity.
#ifndef CDB_SIMILARITY_SIM_JOIN_H_
#define CDB_SIMILARITY_SIM_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "similarity/similarity.h"

namespace cdb {

class MetricsRegistry;

// One joined pair: indexes into the left/right input vectors plus the exact
// similarity under the requested function.
struct SimPair {
  int32_t left = 0;
  int32_t right = 0;
  double sim = 0.0;
};

struct SimJoinOptions {
  // Threads for candidate verification (the left relation is partitioned
  // into chunks probing a shared read-only index): <= 0 uses all hardware
  // threads, 1 runs serially. Output is bit-identical at every thread count —
  // chunk results are concatenated in chunk order, which is left-index order.
  int num_threads = 0;
  // Optional funnel sink (borrowed, may be null = disabled). The joins count
  // simjoin.candidates (pairs surviving candidate generation — index lookup
  // + dedup for the token joins, length + shared-gram filters for edit
  // distance), simjoin.position_rejects (dropped by the token joins'
  // positional bound), simjoin.signature_rejects (killed by the signature
  // bound, which only ever rejects a pair whose similarity provably misses
  // the threshold), simjoin.verified (reaching exact verification) and
  // simjoin.pairs (emitted). candidates == position_rejects +
  // signature_rejects + verified always.
  MetricsRegistry* metrics = nullptr;
};

// Returns all pairs (i, j) with ComputeSimilarity(fn, left[i], right[j]) >=
// threshold, with that similarity bit for bit. Exact (verification
// recomputes the true similarity); the filters only prune. For kNoSim every
// pair has similarity 0.5, so the result is the full cross product when
// threshold <= 0.5 and empty otherwise.
//
// Order: ascending left index. Within one left record, the token joins emit
// in first-seen candidate order (prefix token by prefix token, each posting
// list in ascending right index), which is not ascending right index; edit
// distance emits in ascending right index. Graph EdgeIds follow this order,
// at every thread count.
std::vector<SimPair> SimilarityJoin(const std::vector<std::string>& left,
                                    const std::vector<std::string>& right,
                                    SimilarityFunction fn, double threshold,
                                    const SimJoinOptions& options = {});

// One-vs-many variant used for CROWDEQUAL selection predicates: returns the
// indexes i (with similarity) such that sim(values[i], query) >= threshold.
std::vector<SimPair> SimilaritySearch(const std::vector<std::string>& values,
                                      const std::string& query,
                                      SimilarityFunction fn, double threshold);

// Banded Levenshtein: returns the edit distance if it is <= max_dist, and
// max_dist + 1 otherwise (early termination). Exposed for testing.
size_t BoundedEditDistance(const std::string& a, const std::string& b,
                           size_t max_dist);

}  // namespace cdb

#endif  // CDB_SIMILARITY_SIM_JOIN_H_
