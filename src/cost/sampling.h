// Sample-based min-cut greedy (Section 5.1.2). Selecting the minimum edge
// set that resolves S sampled possible graphs is NP-hard (Lemma 2, reduction
// from set cover); the greedy samples S colorings from the edge matching
// probabilities, runs the Lemma-1 known-color selection on each, and asks
// edges in descending order of occurrence across samples.
#ifndef CDB_COST_SAMPLING_H_
#define CDB_COST_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "graph/query_graph.h"

namespace cdb {

struct StructureCache;

struct SamplingOptions {
  int num_samples = 100;  // The paper's real experiments use 100 samples.
  uint64_t seed = 1;
  // Threads for the per-sample selections (samples are independent, so they
  // parallelize embarrassingly): <= 0 uses all hardware threads, 1 runs
  // serially. Each sample s draws from Rng(seed, s), so the result is
  // bit-identical at every thread count.
  int num_threads = 0;
};

// Returns the currently-unknown crowd edges ordered by descending occurrence
// count over the per-sample selections; edges selected in no sample follow,
// ordered by descending weight (they may still need asking later).
std::vector<EdgeId> SampleMinCutOrder(const QueryGraph& graph,
                                      const SamplingOptions& options);

// Same, reusing a caller-built StructureCache (built internally when null).
// The cache is shared read-only across worker threads; per-worker scratch
// arenas are reused across that worker's samples.
std::vector<EdgeId> SampleMinCutOrder(const QueryGraph& graph,
                                      const SamplingOptions& options,
                                      const StructureCache* cache);

}  // namespace cdb

#endif  // CDB_COST_SAMPLING_H_
