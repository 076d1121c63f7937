#include "similarity/join_cache.h"

#include <bit>
#include <cstdint>

namespace cdb {

std::shared_ptr<const std::vector<SimPair>> JoinCache::Join(
    const std::vector<std::string>& left,
    const std::vector<std::string>& right, SimilarityFunction fn,
    double threshold, int num_threads) {
  // Thresholds match bit for bit: the same bits run the same arithmetic.
  const uint64_t threshold_bits = std::bit_cast<uint64_t>(threshold);
  MutexLock lock(mutex_);
  for (const Entry& entry : entries_) {
    if (entry.fn == fn &&
        std::bit_cast<uint64_t>(entry.threshold) == threshold_bits &&
        entry.left == left && entry.right == right) {
      return entry.pairs;
    }
  }
  SimJoinOptions options;
  options.num_threads = num_threads;
  options.metrics = metrics_;
  auto pairs = std::make_shared<const std::vector<SimPair>>(
      SimilarityJoin(left, right, fn, threshold, options));
  entries_.push_back(Entry{fn, threshold, left, right, pairs});
  return pairs;
}

}  // namespace cdb
