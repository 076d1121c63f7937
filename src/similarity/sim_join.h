// Similarity join: find all cross-table string pairs with similarity >= a
// threshold without enumerating the cross product.
//
// Section 4.1 of the paper relies on prefix-filtering similarity-join
// techniques [Bayardo et al. WWW'07] to build the query graph: only pairs
// with sim >= epsilon (default 0.3) become edges. This module implements an
// AllPairs-style prefix filter for the token-based measures and a
// length/q-gram filter plus banded verification for edit distance.
//
// Two kernels produce bit-identical output (ctest -L simjoin proves it):
//
//   kFlat    The default. Posting lists live in CSR arrays (csr_index.h),
//            encoded token sets in a flat SoA arena. The token joins probe
//            PPJoin-style: prefix postings carry token positions, and a
//            positional bound drops candidates whose overlap can no longer
//            reach the threshold. A 64-bit XOR+popcount signature
//            pre-filter (signature.h) rejects further provably-below-
//            threshold pairs before the exact verify, which merges only the
//            dense-id suffixes after the last prefix matches instead of
//            re-comparing string sets.
//   kLegacy  The original hash-map kernel, kept as the bit-identity oracle
//            for tests and as the baseline the perf-trajectory artifact
//            (BENCH_simjoin.json) measures speedups against.
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

enum class SimJoinKernel : uint8_t {
  kFlat,    // CSR posting lists + SoA token arena + signature pre-filter.
  kLegacy,  // Hash-map reference kernel (bit-identity oracle).
};

const char* SimJoinKernelName(SimJoinKernel kernel);

struct SimJoinOptions {
  // Threads for candidate verification (the left relation is partitioned
  // into chunks probing a shared read-only index): <= 0 uses all hardware
  // threads, 1 runs serially. Output is bit-identical at every thread count —
  // chunk results are concatenated in chunk order, which is left-index order.
  int num_threads = 0;
  // Which kernel runs the join. Both emit byte-identical SimPair vectors;
  // kLegacy exists for the identity proof and the perf baseline.
  SimJoinKernel kernel = SimJoinKernel::kFlat;
  // Admissible XOR+popcount pre-filter ahead of exact verification (flat
  // kernel only). Never changes the output — it rejects a pair only when the
  // signature bound already proves the similarity misses the threshold (see
  // similarity/signature.h) — only the amount of exact verification work.
  bool signature_filter = true;
  // Optional funnel sink (borrowed, may be null = disabled). The kernels
  // count simjoin.candidates (pairs surviving candidate generation — index
  // lookup + dedup for the token joins, length + shared-gram filters for
  // edit distance), simjoin.position_rejects (dropped by the flat token
  // joins' positional bound), simjoin.signature_rejects (killed by the
  // signature bound), simjoin.verified (reaching exact verification) and
  // simjoin.pairs (emitted). candidates == position_rejects +
  // signature_rejects + verified always.
  MetricsRegistry* metrics = nullptr;
};

// Returns all pairs (i, j) with ComputeSimilarity(fn, left[i], right[j]) >=
// threshold. Exact (verification recomputes the true similarity); the filter
// only prunes. For kNoSim every pair has similarity 0.5, so the result is the
// full cross product when threshold <= 0.5 and empty otherwise. Pairs are
// emitted in ascending (left, right) order.
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
