#include "cost/sampling.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "cost/known_color.h"
#include "cost/structure_cache.h"
#include "graph/structure.h"

namespace cdb {
namespace {

// The reduction target the sample chunks merge into. This is the documented
// pattern for worker-local reduction state: chunks accumulate into a local
// (unshared) buffer and fold it into the CDB_GUARDED_BY totals under the
// struct's own mutex, so the guard relationship is a declared capability the
// clang analysis (and tools/cdb_analyze.py) can check — not a free-floating
// function-local mutex whose scope the analyzer cannot see.
struct OccurrenceReduction {
  explicit OccurrenceReduction(size_t num_edges) : totals(num_edges, 0) {}

  Mutex mu;
  std::vector<int64_t> totals CDB_GUARDED_BY(mu);

  void Fold(const std::vector<int64_t>& local) CDB_EXCLUDES(mu) {
    MutexLock lock(mu);
    for (size_t e = 0; e < totals.size(); ++e) totals[e] += local[e];
  }

  // Hands the folded totals to the (now single-threaded) caller.
  std::vector<int64_t> Take() CDB_EXCLUDES(mu) {
    MutexLock lock(mu);
    return std::move(totals);
  }
};

// Draws the coloring of sample `s` into `colors`: known colors are kept,
// unknown edges are BLUE with probability omega(e). Scans the SoA columns;
// the Rng consumption order (unknown edges in ascending id) fixes every
// sampled coloring, and with it the order this sampler returns.
void SampleColors(const QueryGraph& graph, uint64_t seed, int64_t s,
                  std::vector<EdgeColor>* colors) {
  Rng rng(seed, static_cast<uint64_t>(s));
  const std::vector<uint8_t>& known = graph.edge_colors();
  const std::vector<double>& weights = graph.edge_weights();
  colors->resize(known.size());
  for (size_t e = 0; e < known.size(); ++e) {
    (*colors)[e] =
        known[e] != static_cast<uint8_t>(EdgeColor::kUnknown)
            ? static_cast<EdgeColor>(known[e])
            : (rng.Bernoulli(weights[e]) ? EdgeColor::kBlue : EdgeColor::kRed);
  }
}

}  // namespace

std::vector<EdgeId> SampleMinCutOrder(const QueryGraph& graph,
                                      const SamplingOptions& options) {
  return SampleMinCutOrder(graph, options, nullptr);
}

std::vector<EdgeId> SampleMinCutOrder(const QueryGraph& graph,
                                      const SamplingOptions& options,
                                      const StructureCache* cache) {
  OccurrenceReduction reduction(static_cast<size_t>(graph.num_edges()));

  // The color-independent selection skeleton is built once and shared
  // read-only by all workers (unless the caller supplied one).
  std::optional<StructureCache> local_cache;
  if (cache == nullptr) {
    local_cache.emplace(StructureCache::Build(graph));
    cache = &*local_cache;
  }

  // Each sample is seeded independently as Rng(seed, s), so colorings do not
  // depend on how samples are batched into chunks; occurrence counts merge by
  // integer addition, which is order-insensitive. Together that makes the
  // output bit-identical at every thread count.
  ParallelFor(
      0, options.num_samples, /*grain=*/1,
      [&](int64_t chunk_begin, int64_t chunk_end, int /*chunk*/) {
        std::vector<int64_t> local(graph.num_edges(), 0);
        // Per-worker scratch, reused across this chunk's samples
        // (reset-not-rebuild: buffers keep their capacity).
        SelectionArena arena;
        for (int64_t s = chunk_begin; s < chunk_end; ++s) {
          SampleColors(graph, options.seed, s, &arena.colors);
          SelectTasksKnownColors(graph, arena.colors, *cache, &arena,
                                 &arena.selected);
          for (EdgeId e : arena.selected) ++local[e];
        }
        reduction.Fold(local);
      },
      options.num_threads);
  const std::vector<int64_t> occurrences = reduction.Take();

  // Unknown crowd edges, by descending occurrence; never-selected edges
  // trail, ordered by weight (more likely BLUE, thus more likely needed).
  std::vector<EdgeId> order;
  const std::vector<uint8_t>& colors = graph.edge_colors();
  const std::vector<uint8_t>& is_crowd = graph.edge_crowd_flags();
  const std::vector<double>& weights = graph.edge_weights();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (is_crowd[e] != 0 &&
        colors[e] == static_cast<uint8_t>(EdgeColor::kUnknown)) {
      order.push_back(e);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    if (occurrences[a] != occurrences[b]) return occurrences[a] > occurrences[b];
    return weights[a] > weights[b];
  });
  return order;
}

}  // namespace cdb
