// Flat (CSR) layouts for the similarity-join hot paths.
//
// The probe loops used to chase std::unordered_map buckets per token; both
// the posting-list indexes and the per-record token sets are now two plain
// arrays — `offsets[]` indexed by a dense key and one contiguous payload
// array — so a probe is a bounds computation plus a linear scan of
// contiguous memory.
//
// Determinism: a CSR index is built count-then-fill. The caller emits its
// (key, posting) pairs twice in the same order; pass one sizes each posting
// list, pass two appends postings in emission order. Postings for a key
// therefore appear exactly in emission order — emitting right-hand records
// in ascending j keeps every list in ascending j, which fixes the order the
// probe first sees candidates, and with it the join's emission order.
#ifndef CDB_SIMILARITY_CSR_INDEX_H_
#define CDB_SIMILARITY_CSR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace cdb {

// Posting-list index over dense integer keys in [0, num_keys). A posting is
// a record id (CsrIndex) or a record id plus a token position
// (PositionalCsrIndex).
template <typename Posting>
class BasicCsrIndex {
 public:
  BasicCsrIndex() = default;

  // Builds by invoking `emit` twice with a sink callback `sink(key, posting)`.
  // Both invocations must produce the same (key, posting) sequence.
  template <typename EmitFn>
  static BasicCsrIndex Build(size_t num_keys, EmitFn&& emit) {
    BasicCsrIndex index;
    index.offsets_.assign(num_keys + 1, 0);
    // Pass 1: count per key (shifted by one so the prefix sum lands directly
    // in offsets_).
    emit([&](int32_t key, const Posting& /*posting*/) {
      ++index.offsets_[static_cast<size_t>(key) + 1];
    });
    for (size_t k = 1; k <= num_keys; ++k) {
      index.offsets_[k] += index.offsets_[k - 1];
    }
    index.postings_.resize(static_cast<size_t>(index.offsets_[num_keys]));
    // Pass 2: fill in emission order using a per-key write cursor.
    std::vector<int64_t> cursor(index.offsets_.begin(),
                                index.offsets_.end() - 1);
    emit([&](int32_t key, const Posting& posting) {
      index.postings_[static_cast<size_t>(cursor[static_cast<size_t>(key)]++)] =
          posting;
    });
    return index;
  }

  size_t num_keys() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t num_postings() const { return postings_.size(); }

  // The posting list of `key` as a [begin, end) pointer pair.
  std::pair<const Posting*, const Posting*> Postings(int32_t key) const {
    const size_t k = static_cast<size_t>(key);
    return {postings_.data() + offsets_[k], postings_.data() + offsets_[k + 1]};
  }

 private:
  std::vector<int64_t> offsets_;   // num_keys + 1 entries.
  std::vector<Posting> postings_;  // One contiguous payload array.
};

using CsrIndex = BasicCsrIndex<int32_t>;

// A prefix posting for the positional filter: the record holding the token
// and the token's position in that record's sorted id span.
struct PositionalPosting {
  int32_t record = 0;
  int32_t position = 0;
};

using PositionalCsrIndex = BasicCsrIndex<PositionalPosting>;

// Structure-of-arrays token storage: every record's sorted dense-id token
// set lives in one flat arena; record r owns ids [offsets[r], offsets[r+1]).
// Probe threads touch two contiguous arrays instead of a vector-of-vectors'
// scattered heap blocks.
class TokenArena {
 public:
  TokenArena() = default;

  // Allocates spans from per-record set sizes (serial prefix sum). Ids are
  // filled afterwards through MutableSpan — safe to fill from ParallelFor
  // since spans are disjoint.
  explicit TokenArena(const std::vector<int32_t>& sizes) {
    SetSizes(sizes);
    ids_.resize(static_cast<size_t>(offsets_.back()));
  }

  // Adopts `ids`, already laid out record after record, as the arena.
  TokenArena(const std::vector<int32_t>& sizes, std::vector<int32_t> ids)
      : ids_(std::move(ids)) {
    SetSizes(sizes);
    CDB_CHECK(ids_.size() == static_cast<size_t>(offsets_.back()));
  }

  size_t num_records() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t size(size_t r) const {
    return static_cast<size_t>(offsets_[r + 1] - offsets_[r]);
  }
  const int32_t* begin(size_t r) const { return ids_.data() + offsets_[r]; }
  const int32_t* end(size_t r) const { return ids_.data() + offsets_[r + 1]; }
  int32_t* MutableSpan(size_t r) { return ids_.data() + offsets_[r]; }

 private:
  void SetSizes(const std::vector<int32_t>& sizes) {
    offsets_.resize(sizes.size() + 1);
    offsets_[0] = 0;
    for (size_t r = 0; r < sizes.size(); ++r) {
      offsets_[r + 1] = offsets_[r] + sizes[r];
    }
  }

  std::vector<int64_t> offsets_;
  std::vector<int32_t> ids_;
};

}  // namespace cdb

#endif  // CDB_SIMILARITY_CSR_INDEX_H_
