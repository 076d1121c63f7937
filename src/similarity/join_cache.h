// JoinCache: runs each distinct similarity join once and shares its pairs.
//
// A crowd join's result depends only on its two string columns, the
// similarity function and the threshold, yet every session that builds a
// graph over the same tables reruns it. A cache owned by whoever hosts those
// sessions (CdbService owns one per service) hands each later build the
// exact `SimPair` vector the first run emitted, so graphs, colors and
// checkpoints stay byte-identical.
//
// Key: the full content of all four inputs. Tables are mutable (SetCell,
// AppendRow, COLLECT/FILL), so a key of table pointer plus column could
// serve a stale join after a mutation; a content key cannot. The threshold
// stays in the key because join output order depends on it (candidates are
// verified in first-seen order), so slicing a low-threshold result would
// move EdgeIds. The thread count is not in the key: the output is
// bit-identical at every thread count.
//
// Entries are never evicted; the owner bounds the cache's lifetime. A
// service sees a handful of distinct joins, so a linear scan finds them.
#ifndef CDB_SIMILARITY_JOIN_CACHE_H_
#define CDB_SIMILARITY_JOIN_CACHE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "similarity/sim_join.h"
#include "similarity/similarity.h"

namespace cdb {

class MetricsRegistry;

class JoinCache {
 public:
  // `metrics` (borrowed, may be null) receives the simjoin.* funnel of each
  // join the cache runs; a request served from the cache counts nothing.
  explicit JoinCache(MetricsRegistry* metrics = nullptr) : metrics_(metrics) {}
  JoinCache(const JoinCache&) = delete;
  JoinCache& operator=(const JoinCache&) = delete;

  // Returns exactly what SimilarityJoin(left, right, fn, threshold) returns.
  // The first request for these inputs runs the join (on `num_threads`,
  // SimJoinOptions semantics) while holding the cache's lock, so concurrent
  // requests for one key run it once; later requests return the same
  // pointer. Safe to call from pool workers: a nested ParallelFor runs
  // inline there, and a non-worker caller drains every chunk itself.
  std::shared_ptr<const std::vector<SimPair>> Join(
      const std::vector<std::string>& left,
      const std::vector<std::string>& right, SimilarityFunction fn,
      double threshold, int num_threads) CDB_EXCLUDES(mutex_);

 private:
  struct Entry {
    SimilarityFunction fn = SimilarityFunction::kQGramJaccard;
    double threshold = 0.0;
    std::vector<std::string> left;
    std::vector<std::string> right;
    std::shared_ptr<const std::vector<SimPair>> pairs;
  };

  MetricsRegistry* const metrics_;
  Mutex mutex_;
  std::vector<Entry> entries_ CDB_GUARDED_BY(mutex_);
};

}  // namespace cdb

#endif  // CDB_SIMILARITY_JOIN_CACHE_H_
