#include "similarity/sim_join.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "similarity/csr_index.h"
#include "similarity/signature.h"
#include "similarity/tokenizer.h"

namespace cdb {
namespace {

using TokenId = int32_t;

// Maps token strings to dense ids ordered by ascending global frequency, the
// canonical ordering for prefix filtering (rare tokens first makes prefixes
// selective). The hash map lives only in the build/encode phase — probe loops
// see dense ids and flat arrays.
class TokenDictionary {
 public:
  // Builds the dictionary from the two sides of the join directly (no
  // concatenated copy of the token sets).
  TokenDictionary(const std::vector<std::vector<std::string>>& left_sets,
                  const std::vector<std::vector<std::string>>& right_sets) {
    std::unordered_map<std::string, int64_t> freq;
    for (const auto* sets : {&left_sets, &right_sets}) {
      for (const auto& set : *sets) {
        for (const auto& token : set) ++freq[token];  // cdb-lint: disable=flat-index-hot-path dictionary build phase, not a probe loop
      }
    }
    std::vector<std::pair<int64_t, std::string>> by_freq;
    by_freq.reserve(freq.size());
    for (auto& [token, count] : freq) by_freq.emplace_back(count, token);
    std::sort(by_freq.begin(), by_freq.end());
    ids_.reserve(by_freq.size());
    for (size_t i = 0; i < by_freq.size(); ++i) {
      ids_.emplace(by_freq[i].second, static_cast<TokenId>(i));
    }
  }

  size_t size() const { return ids_.size(); }

  // Translates a token set into sorted ids (ascending frequency order),
  // written into a caller-owned span (the SoA arena).
  void EncodeInto(const std::vector<std::string>& set, TokenId* out) const {
    for (size_t k = 0; k < set.size(); ++k) {
      auto it = ids_.find(set[k]);  // cdb-lint: disable=flat-index-hot-path one lookup per token in the encode phase, not a probe loop
      CDB_DCHECK(it != ids_.end());
      out[k] = it->second;
    }
    std::sort(out, out + set.size());
  }

 private:
  std::unordered_map<std::string, TokenId> ids_;
};

// Chunk size for partitioning the left relation across the pool: a handful
// of chunks per thread for balance, but coarse enough that the per-chunk
// scratch (seen stamps sized by the right relation) amortizes.
int64_t ProbeGrain(size_t left_size, int num_threads) {
  int64_t chunks = static_cast<int64_t>(ResolveNumThreads(num_threads)) * 4;
  return std::max<int64_t>(static_cast<int64_t>(left_size) / chunks, 16);
}

// Concatenates per-chunk outputs in chunk order. Chunks are contiguous
// ascending ranges of the left relation, so this is exactly the serial
// (ascending left index) output order.
std::vector<SimPair> ConcatChunks(std::vector<std::vector<SimPair>> chunks) {
  size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  std::vector<SimPair> out;
  out.reserve(total);
  for (auto& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

// --- Funnel accounting -----------------------------------------------------
// Counter handles are registered once per join; chunks accumulate locally and
// flush one atomic add per counter per chunk, so the hot loop never touches
// an atomic and the folded totals stay deterministic (integer sums).

struct FunnelCounters {
  Counter* candidates = nullptr;
  Counter* position_rejects = nullptr;
  Counter* signature_rejects = nullptr;
  Counter* verified = nullptr;
  Counter* pairs = nullptr;
};

FunnelCounters MakeFunnel(MetricsRegistry* metrics) {
  FunnelCounters funnel;
  if (metrics != nullptr) {
    funnel.candidates = &metrics->counter("simjoin.candidates");
    funnel.position_rejects = &metrics->counter("simjoin.position_rejects");
    funnel.signature_rejects = &metrics->counter("simjoin.signature_rejects");
    funnel.verified = &metrics->counter("simjoin.verified");
    funnel.pairs = &metrics->counter("simjoin.pairs");
  }
  return funnel;
}

struct FunnelDelta {
  int64_t candidates = 0;
  int64_t position_rejects = 0;
  int64_t signature_rejects = 0;
  int64_t verified = 0;
  int64_t pairs = 0;

  void Flush(const FunnelCounters& funnel) const {
    if (funnel.candidates == nullptr) return;
    funnel.candidates->Increment(candidates);
    funnel.position_rejects->Increment(position_rejects);
    funnel.signature_rejects->Increment(signature_rejects);
    funnel.verified->Increment(verified);
    funnel.pairs->Increment(pairs);
  }
};

// --- Shared tokenize/prefix plumbing ---------------------------------------

std::vector<std::vector<std::string>> WordTokenSets(
    const std::vector<std::string>& values, int num_threads) {
  std::vector<std::vector<std::string>> out(values.size());
  ParallelFor(
      0, static_cast<int64_t>(values.size()), /*grain=*/64,
      [&](int64_t begin, int64_t end, int /*chunk*/) {
        for (int64_t i = begin; i < end; ++i) {
          out[static_cast<size_t>(i)] =
              WordTokenSet(values[static_cast<size_t>(i)]);
        }
      },
      num_threads);
  return out;
}

// Both sides of a join as sorted dense-id token sets, one flat arena per
// side, with ids in [0, num_ids) ranked by ascending (document frequency,
// token) — the canonical prefix-filter order (rare tokens first).
struct EncodedSides {
  TokenArena left;
  TokenArena right;
  size_t num_ids = 0;
};

// Word tokens go through the string dictionary.
EncodedSides EncodeWordSets(const std::vector<std::string>& left,
                            const std::vector<std::string>& right,
                            int num_threads) {
  std::vector<std::vector<std::string>> left_tokens =
      WordTokenSets(left, num_threads);
  std::vector<std::vector<std::string>> right_tokens =
      WordTokenSets(right, num_threads);
  TokenDictionary dict(left_tokens, right_tokens);
  auto encode_side = [&](const std::vector<std::vector<std::string>>& sets) {
    std::vector<int32_t> sizes(sets.size());
    for (size_t r = 0; r < sets.size(); ++r) {
      sizes[r] = static_cast<int32_t>(sets[r].size());
    }
    TokenArena arena(sizes);
    ParallelFor(
        0, static_cast<int64_t>(sets.size()), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (int64_t r = begin; r < end; ++r) {
            size_t rec = static_cast<size_t>(r);
            dict.EncodeInto(sets[rec], arena.MutableSpan(rec));
          }
        },
        num_threads);
    return arena;
  };
  return {encode_side(left_tokens), encode_side(right_tokens), dict.size()};
}

// 2-grams go through their integer keys (AppendQGramKeys), which sort as the
// gram strings do, so ranking the keys by (document frequency, key) assigns
// exactly the ids TokenDictionary assigns the strings, with no hash map.
EncodedSides EncodeGramSets(const std::vector<std::string>& left,
                            const std::vector<std::string>& right,
                            int num_threads) {
  // The keys present, as a bitset over the key space plus, per word, the
  // number of present keys before it: a present key's rank in key order is
  // then one popcount away, and no table spans the whole key space.
  std::vector<uint64_t> present((kQGramKeySpace + 63) / 64, 0);
  auto collect_keys = [&](const std::vector<std::string>& values) {
    std::vector<int32_t> sizes(values.size());
    std::vector<int32_t> keys;
    for (size_t r = 0; r < values.size(); ++r) {
      const size_t first = keys.size();
      AppendQGramKeys(values[r], keys);
      sizes[r] = static_cast<int32_t>(keys.size() - first);
    }
    for (int32_t key : keys) present[key >> 6] |= uint64_t{1} << (key & 63);
    return TokenArena(sizes, std::move(keys));
  };
  TokenArena left_arena = collect_keys(left);
  TokenArena right_arena = collect_keys(right);
  std::vector<int32_t> present_before(present.size());
  int32_t num_keys = 0;
  for (size_t w = 0; w < present.size(); ++w) {
    present_before[w] = num_keys;
    num_keys += std::popcount(present[w]);
  }
  auto key_rank = [&](int32_t key) {
    const size_t w = static_cast<size_t>(key >> 6);
    const uint64_t below = (uint64_t{1} << (key & 63)) - 1;
    return present_before[w] + std::popcount(present[w] & below);
  };

  // Keys become ranks in place. Record sets are distinct, so counting ranks
  // counts document frequency.
  std::vector<int32_t> doc_freq(static_cast<size_t>(num_keys), 0);
  for (TokenArena* arena : {&left_arena, &right_arena}) {
    for (size_t r = 0; r < arena->num_records(); ++r) {
      TokenId* span = arena->MutableSpan(r);
      for (size_t k = 0; k < arena->size(r); ++k) {
        span[k] = key_rank(span[k]);
        ++doc_freq[static_cast<size_t>(span[k])];
      }
    }
  }
  // Ranks follow key order, so (frequency, rank) sorts as (frequency, key).
  std::vector<std::pair<int32_t, int32_t>> by_freq(doc_freq.size());
  for (size_t rank = 0; rank < by_freq.size(); ++rank) {
    by_freq[rank] = {doc_freq[rank], static_cast<int32_t>(rank)};
  }
  std::sort(by_freq.begin(), by_freq.end());
  std::vector<TokenId> id_of_rank(by_freq.size());
  for (size_t id = 0; id < by_freq.size(); ++id) {
    id_of_rank[static_cast<size_t>(by_freq[id].second)] =
        static_cast<TokenId>(id);
  }

  // Ranks become ids in place; spans are disjoint, so records run in
  // parallel.
  auto ranks_to_ids = [&](TokenArena& arena) {
    ParallelFor(
        0, static_cast<int64_t>(arena.num_records()), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (int64_t r = begin; r < end; ++r) {
            const size_t rec = static_cast<size_t>(r);
            TokenId* span = arena.MutableSpan(rec);
            const size_t n = arena.size(rec);
            for (size_t k = 0; k < n; ++k) {
              span[k] = id_of_rank[static_cast<size_t>(span[k])];
            }
            std::sort(span, span + n);
          }
        },
        num_threads);
  };
  ranks_to_ids(left_arena);
  ranks_to_ids(right_arena);
  return {std::move(left_arena), std::move(right_arena), by_freq.size()};
}

// Jaccard prefix length: a record of size n must share a token within its
// first n - ceil(t * n) + 1 tokens with any record it joins at threshold t.
size_t JaccardPrefixLength(size_t n, double t) {
  if (n == 0) return 0;
  size_t required = static_cast<size_t>(std::ceil(t * static_cast<double>(n)));
  if (required == 0) required = 1;
  if (required > n) return 0;  // Cannot reach the threshold at all.
  return n - required + 1;
}

// Cosine prefix length: overlap must be >= t^2 * n against any partner.
size_t CosinePrefixLength(size_t n, double t) {
  if (n == 0) return 0;
  size_t required =
      static_cast<size_t>(std::ceil(t * t * static_cast<double>(n)));
  if (required == 0) required = 1;
  if (required > n) return 0;
  return n - required + 1;
}

// --- Exact verification over encoded ids -----------------------------------
// Verification merges the encoded sorted TokenId spans rather than the
// string token sets. Encoding is a bijection on the tokens present, so
// intersection and set sizes — and therefore the sim doubles computed from
// them with the exact formulas of similarity.cc — equal ComputeSimilarity's.

// Smallest intersection count m (m <= min(na, nb)) whose Jaccard, computed
// with the verifier's exact double formula, reaches the threshold; returns
// min(na, nb) + 1 when even full overlap misses it. Division of a
// nondecreasing integer numerator by a nonincreasing positive denominator is
// monotone under rounding, so "inter >= required" is exactly "sim >=
// threshold".
size_t RequiredIntersectionJaccard(size_t na, size_t nb, double t) {
  const size_t cap = std::min(na, nb);
  const size_t total = na + nb;
  auto reaches = [&](size_t m) {
    return static_cast<double>(m) / static_cast<double>(total - m) >= t;
  };
  size_t m = static_cast<size_t>(
      std::min(t * static_cast<double>(total) / (1.0 + t),
               static_cast<double>(cap)));
  while (m > 0 && reaches(m - 1)) --m;
  while (m <= cap && !reaches(m)) ++m;
  return m;
}

// As above for cosine: sim(m) = m / sqrt(na * nb).
size_t RequiredIntersectionCosine(size_t na, size_t nb, double t) {
  const size_t cap = std::min(na, nb);
  const double denom = std::sqrt(static_cast<double>(na) *
                                 static_cast<double>(nb));
  auto reaches = [&](size_t m) {
    return static_cast<double>(m) / denom >= t;
  };
  size_t m = static_cast<size_t>(
      std::min(t * denom, static_cast<double>(cap)));
  while (m > 0 && reaches(m - 1)) --m;
  while (m <= cap && !reaches(m)) ++m;
  return m;
}

// Sorted-span intersection size with early abandon: returns any value <
// `required` once even a full overlap of the remaining elements cannot reach
// it (the caller only tests `>= required`, which the monotone construction
// of `required` makes equivalent to the exact sim test).
size_t IntersectIdsAbandon(const TokenId* a, size_t na, const TokenId* b,
                           size_t nb, size_t required) {
  size_t i = 0;
  size_t j = 0;
  size_t inter = 0;
  while (i < na && j < nb) {
    if (inter + std::min(na - i, nb - j) < required) return inter;
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  return inter;
}

// --- Token prefix join -----------------------------------------------------
// PPJoin's positional filter (Xiao et al., WWW 2008) on top of the prefix
// filter. The right prefixes are indexed with each token's position in its
// record. While a left record probes, each candidate counts its prefix
// overlap and remembers its last matched positions; a candidate is dropped
// as soon as overlap + 1 + min(ids left in a, ids left in b) falls below the
// exact required intersection. Survivors are verified, in the order they
// were first seen, by merging only the suffixes after the last matches.

// One candidate of the probing left record. overlap == 0 marks a candidate
// the positional bound dropped after it was first seen.
struct PositionalCandidate {
  int32_t right = 0;
  int32_t size = 0;      // |b|
  int32_t required = 0;  // Exact required intersection for (|a|, |b|).
  int32_t overlap = 0;   // Prefix matches counted so far.
  int32_t last_a = 0;    // Position of the last match in a...
  int32_t last_b = 0;    // ...and in b.
};

std::vector<SimPair> TokenPrefixJoin(const std::vector<std::string>& left,
                                     const std::vector<std::string>& right,
                                     SimilarityFunction fn, double threshold,
                                     const SimJoinOptions& options) {
  const EncodedSides sides =
      fn == SimilarityFunction::kWordJaccard
          ? EncodeWordSets(left, right, options.num_threads)
          : EncodeGramSets(left, right, options.num_threads);
  const TokenArena& left_arena = sides.left;
  const TokenArena& right_arena = sides.right;
  auto signatures = [&](const TokenArena& arena) {
    std::vector<TokenSignature> sig(arena.num_records());
    ParallelFor(
        0, static_cast<int64_t>(sig.size()), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (int64_t r = begin; r < end; ++r) {
            size_t rec = static_cast<size_t>(r);
            sig[rec] = SignatureOfIds(arena.begin(rec), arena.size(rec));
          }
        },
        options.num_threads);
    return sig;
  };
  const std::vector<TokenSignature> left_sig = signatures(left_arena);
  const std::vector<TokenSignature> right_sig = signatures(right_arena);

  const bool cosine = fn == SimilarityFunction::kQGramCosine;
  auto prefix_len = [&](size_t n) {
    return cosine ? CosinePrefixLength(n, threshold)
                  : JaccardPrefixLength(n, threshold);
  };

  // CSR inverted index over the prefixes of the right side. Count-then-fill
  // with ascending-j emission keeps every posting list in ascending-j order.
  PositionalCsrIndex index = PositionalCsrIndex::Build(
      sides.num_ids, [&](const auto& sink) {
        for (size_t j = 0; j < right.size(); ++j) {
          size_t plen = prefix_len(right_arena.size(j));
          const TokenId* ids = right_arena.begin(j);
          for (size_t k = 0; k < plen; ++k) {
            sink(ids[k], PositionalPosting{static_cast<int32_t>(j),
                                           static_cast<int32_t>(k)});
          }
        }
      });

  // Two empty token sets score 1.0 (similarity.cc) but share no prefix
  // token, so the index never pairs them: an empty left record emits these
  // right records directly.
  std::vector<int32_t> empty_right;
  size_t max_right_size = 0;
  for (size_t j = 0; j < right.size(); ++j) {
    max_right_size = std::max(max_right_size, right_arena.size(j));
    if (right_arena.size(j) == 0 && threshold <= 1.0) {
      empty_right.push_back(static_cast<int32_t>(j));
    }
  }

  const FunnelCounters funnel = MakeFunnel(options.metrics);
  const int64_t grain = ProbeGrain(left.size(), options.num_threads);
  const int64_t num_chunks =
      left.empty() ? 0 : (static_cast<int64_t>(left.size()) + grain - 1) / grain;
  std::vector<std::vector<SimPair>> chunk_out(static_cast<size_t>(num_chunks));
  ParallelFor(
      0, static_cast<int64_t>(left.size()), grain,
      [&](int64_t begin, int64_t end, int chunk) {
        std::vector<SimPair>& out = chunk_out[static_cast<size_t>(chunk)];
        FunnelDelta delta;
        // Thread-local scratch: stamps are per-probe, so fresh vectors per
        // chunk reproduce the serial semantics exactly. slot[j] indexes
        // j's entry in `candidates` (valid while seen_stamp[j] == i), or is
        // kDropped once the positional bound has dropped j. The required
        // intersection depends only on |b| within a probe, so it is solved
        // once per size (valid while size_stamp[|b|] == i).
        constexpr int32_t kDropped = -1;
        std::vector<int32_t> seen_stamp(right.size(), -1);
        std::vector<int32_t> slot(right.size(), kDropped);
        std::vector<PositionalCandidate> candidates;
        std::vector<int32_t> size_stamp(max_right_size + 1, -1);
        std::vector<int32_t> required_for_size(max_right_size + 1, 0);
        for (int64_t li = begin; li < end; ++li) {
          const size_t i = static_cast<size_t>(li);
          const int32_t stamp = static_cast<int32_t>(i);
          const size_t na = left_arena.size(i);
          if (na == 0) {
            for (int32_t j : empty_right) out.push_back({stamp, j, 1.0});
            const int64_t n = static_cast<int64_t>(empty_right.size());
            delta.candidates += n;
            delta.verified += n;
            delta.pairs += n;
            continue;
          }
          const TokenId* a = left_arena.begin(i);
          const int32_t plen = static_cast<int32_t>(prefix_len(na));
          candidates.clear();
          for (int32_t k = 0; k < plen; ++k) {
            const int32_t a_rest = static_cast<int32_t>(na) - k - 1;
            auto [p, p_end] = index.Postings(a[k]);
            for (; p != p_end; ++p) {
              const size_t j = static_cast<size_t>(p->record);
              if (seen_stamp[j] != stamp) {
                seen_stamp[j] = stamp;
                ++delta.candidates;
                const size_t nb = right_arena.size(j);
                if (size_stamp[nb] != stamp) {
                  size_stamp[nb] = stamp;
                  required_for_size[nb] = static_cast<int32_t>(
                      cosine ? RequiredIntersectionCosine(na, nb, threshold)
                             : RequiredIntersectionJaccard(na, nb, threshold));
                }
                const int32_t required = required_for_size[nb];
                const int32_t b_rest =
                    static_cast<int32_t>(nb) - p->position - 1;
                if (1 + std::min(a_rest, b_rest) < required) {
                  slot[j] = kDropped;
                  ++delta.position_rejects;
                  continue;
                }
                slot[j] = static_cast<int32_t>(candidates.size());
                candidates.push_back({p->record, static_cast<int32_t>(nb),
                                      required, 1, k, p->position});
                continue;
              }
              if (slot[j] == kDropped) continue;
              PositionalCandidate& c =
                  candidates[static_cast<size_t>(slot[j])];
              const int32_t b_rest = c.size - p->position - 1;
              if (c.overlap + 1 + std::min(a_rest, b_rest) < c.required) {
                c.overlap = 0;
                slot[j] = kDropped;
                ++delta.position_rejects;
                continue;
              }
              ++c.overlap;
              c.last_a = k;
              c.last_b = p->position;
            }
          }
          for (const PositionalCandidate& c : candidates) {
            if (c.overlap == 0) continue;
            const size_t j = static_cast<size_t>(c.right);
            const size_t nb = static_cast<size_t>(c.size);
            if (cosine ? SignatureRejectsCosine(left_sig[i], right_sig[j], na,
                                                nb, threshold)
                       : SignatureRejectsJaccard(left_sig[i], right_sig[j], na,
                                                 nb, threshold)) {
              ++delta.signature_rejects;
              continue;
            }
            ++delta.verified;
            // Ids are sorted and distinct in both spans, so every common id
            // at or before (last_a, last_b) lies in both prefixes and is
            // already in `overlap`; the rest lie after both positions.
            const size_t a_from = static_cast<size_t>(c.last_a) + 1;
            const size_t b_from = static_cast<size_t>(c.last_b) + 1;
            const size_t counted = static_cast<size_t>(c.overlap);
            const size_t required = static_cast<size_t>(c.required);
            const size_t inter =
                counted + IntersectIdsAbandon(
                              a + a_from, na - a_from,
                              right_arena.begin(j) + b_from, nb - b_from,
                              required > counted ? required - counted : 0);
            if (inter < required) continue;
            double sim =
                cosine
                    ? static_cast<double>(inter) /
                          std::sqrt(static_cast<double>(na) *
                                    static_cast<double>(nb))
                    : static_cast<double>(inter) /
                          static_cast<double>(na + nb - inter);
            out.push_back({static_cast<int32_t>(i), c.right, sim});
            ++delta.pairs;
          }
        }
        delta.Flush(funnel);
      },
      options.num_threads);
  return ConcatChunks(std::move(chunk_out));
}

// --- Edit-distance join ----------------------------------------------------

// Right lengths L compatible with a left string of length n at threshold t:
// for L <= n the pair's max_len is n, so L >= n - floor((1-t) * n); for
// L > n the max_len is L, so L - floor((1-t) * L) <= n — the left side of
// which is nondecreasing in L, so the upper bound is found by scanning up.
std::pair<size_t, size_t> EdLengthRange(size_t n, size_t max_right_len,
                                        double threshold) {
  size_t slack =
      static_cast<size_t>(std::floor((1.0 - threshold) * static_cast<double>(n)));
  size_t lo = n > slack ? n - slack : 0;
  size_t hi = std::min(n, max_right_len);
  for (size_t L = n + 1; L <= max_right_len; ++L) {
    size_t max_dist = static_cast<size_t>(
        std::floor((1.0 - threshold) * static_cast<double>(L)));
    if (L - n > max_dist) break;
    hi = L;
  }
  return {lo, hi};
}

std::vector<SimPair> EditDistanceJoin(const std::vector<std::string>& left,
                                      const std::vector<std::string>& right,
                                      double threshold,
                                      const SimJoinOptions& options) {
  // Candidate generation: the length filter always applies (served by a
  // length-keyed CSR); the shared-2-gram filter applies only when the count
  // bound (max_len - 1) - 2*tau is positive. On top, the 2-gram signature
  // bound (popcount(xor) <= 4 * ED, see signature.h) rejects pairs whose
  // banded verification would provably exceed tau.
  std::vector<std::string> left_lower(left.size());
  std::vector<std::string> right_lower(right.size());
  for (size_t i = 0; i < left.size(); ++i) left_lower[i] = ToLower(left[i]);
  for (size_t j = 0; j < right.size(); ++j) right_lower[j] = ToLower(right[j]);

  // Gram sets on both sides as dense ids (the shared-gram filter only needs
  // ids that are consistent across the two sides). Signatures come from the
  // raw (untrimmed) lowercased bytes so the admissibility bound is stated
  // against the exact strings the banded verifier sees; the gram sets
  // (QGramSet's trimmed grams) feed only the shared-gram filter.
  const EncodedSides grams =
      EncodeGramSets(left_lower, right_lower, options.num_threads);
  const TokenArena& left_arena = grams.left;
  const TokenArena& right_arena = grams.right;
  auto signatures = [&](const std::vector<std::string>& lower) {
    std::vector<TokenSignature> sig(lower.size());
    ParallelFor(
        0, static_cast<int64_t>(lower.size()), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (int64_t r = begin; r < end; ++r) {
            sig[static_cast<size_t>(r)] =
                SignatureOfGrams(lower[static_cast<size_t>(r)]);
          }
        },
        options.num_threads);
    return sig;
  };
  const std::vector<TokenSignature> left_sig = signatures(left_lower);
  const std::vector<TokenSignature> right_sig = signatures(right_lower);

  size_t max_right_len = 0;
  for (const std::string& b : right_lower) {
    max_right_len = std::max(max_right_len, b.size());
  }

  // CSR gram index and length-keyed candidate index over the right side,
  // both count-then-fill with ascending-j emission.
  CsrIndex gram_index = CsrIndex::Build(
      grams.num_ids, [&](const auto& sink) {
        for (size_t j = 0; j < right.size(); ++j) {
          const TokenId* ids = right_arena.begin(j);
          const size_t n = right_arena.size(j);
          for (size_t k = 0; k < n; ++k) sink(ids[k], static_cast<int32_t>(j));
        }
      });
  CsrIndex by_len = CsrIndex::Build(
      max_right_len + 1, [&](const auto& sink) {
        for (size_t j = 0; j < right.size(); ++j) {
          sink(static_cast<int32_t>(right_lower[j].size()),
               static_cast<int32_t>(j));
        }
      });

  const FunnelCounters funnel = MakeFunnel(options.metrics);
  const int64_t grain = ProbeGrain(left.size(), options.num_threads);
  const int64_t num_chunks =
      left.empty() ? 0 : (static_cast<int64_t>(left.size()) + grain - 1) / grain;
  std::vector<std::vector<SimPair>> chunk_out(static_cast<size_t>(num_chunks));
  ParallelFor(
      0, static_cast<int64_t>(left.size()), grain,
      [&](int64_t begin, int64_t end, int chunk) {
        std::vector<SimPair>& out = chunk_out[static_cast<size_t>(chunk)];
        FunnelDelta delta;
        std::vector<int32_t> shared_stamp(right.size(), -1);
        std::vector<int32_t> candidates;
        for (int64_t li = begin; li < end; ++li) {
          size_t i = static_cast<size_t>(li);
          const std::string& a = left_lower[i];
          // Mark the right records sharing a 2-gram with `a`: a linear scan
          // over contiguous CSR postings per gram id.
          const TokenId* agrams = left_arena.begin(i);
          const size_t agram_count = left_arena.size(i);
          for (size_t g = 0; g < agram_count; ++g) {
            auto [p, p_end] = gram_index.Postings(agrams[g]);
            for (; p != p_end; ++p) {
              shared_stamp[static_cast<size_t>(*p)] = static_cast<int32_t>(i);
            }
          }
          // Gather length-compatible candidates, restoring ascending-j order
          // across buckets so the output matches a full scan's ordering.
          auto [len_lo, len_hi] = EdLengthRange(a.size(), max_right_len, threshold);
          candidates.clear();
          for (size_t L = len_lo; L <= len_hi && L <= max_right_len; ++L) {
            auto [p, p_end] = by_len.Postings(static_cast<int32_t>(L));
            candidates.insert(candidates.end(), p, p_end);
          }
          std::sort(candidates.begin(), candidates.end());
          for (int32_t cj : candidates) {
            size_t j = static_cast<size_t>(cj);
            const std::string& b = right_lower[j];
            size_t max_len = std::max(a.size(), b.size());
            if (max_len == 0) {
              out.push_back({static_cast<int32_t>(i), cj, 1.0});
              continue;
            }
            auto max_dist = static_cast<size_t>(
                std::floor((1.0 - threshold) * static_cast<double>(max_len)));
            size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
            if (diff > max_dist) continue;
            bool gram_filter_applies =
                static_cast<int64_t>(max_len) - 1 - 2 * static_cast<int64_t>(max_dist) > 0;
            if (gram_filter_applies && shared_stamp[j] != static_cast<int32_t>(i)) {
              continue;
            }
            ++delta.candidates;
            if (SignatureRejectsEditDistance(left_sig[i], right_sig[j],
                                             max_dist)) {
              ++delta.signature_rejects;
              continue;
            }
            ++delta.verified;
            size_t dist = BoundedEditDistance(a, b, max_dist);
            if (dist <= max_dist) {
              double sim =
                  1.0 - static_cast<double>(dist) / static_cast<double>(max_len);
              if (sim >= threshold) {
                out.push_back({static_cast<int32_t>(i), cj, sim});
                ++delta.pairs;
              }
            }
          }
        }
        delta.Flush(funnel);
      },
      options.num_threads);
  return ConcatChunks(std::move(chunk_out));
}

std::vector<SimPair> CrossProduct(size_t n_left, size_t n_right, double sim) {
  std::vector<SimPair> out;
  out.reserve(n_left * n_right);
  for (size_t i = 0; i < n_left; ++i) {
    for (size_t j = 0; j < n_right; ++j) {
      out.push_back({static_cast<int32_t>(i), static_cast<int32_t>(j), sim});
    }
  }
  return out;
}

}  // namespace

size_t BoundedEditDistance(const std::string& a, const std::string& b,
                           size_t max_dist) {
  const size_t n = a.size();
  const size_t m = b.size();
  size_t diff = n > m ? n - m : m - n;
  if (diff > max_dist) return max_dist + 1;
  const size_t kInf = max_dist + 1;
  // Banded DP: only cells with |i - j| <= max_dist can be <= max_dist.
  std::vector<size_t> prev(m + 1, kInf);
  std::vector<size_t> cur(m + 1, kInf);
  for (size_t j = 0; j <= std::min(m, max_dist); ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t lo = i > max_dist ? i - max_dist : 0;
    size_t hi = std::min(m, i + max_dist);
    std::fill(cur.begin(), cur.end(), kInf);
    if (lo == 0) cur[0] = i <= max_dist ? i : kInf;
    size_t row_min = kInf;
    for (size_t j = std::max<size_t>(lo, 1); j <= hi; ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      size_t del = prev[j] == kInf ? kInf : prev[j] + 1;
      size_t ins = cur[j - 1] == kInf ? kInf : cur[j - 1] + 1;
      cur[j] = std::min({sub, del, ins, kInf});
      row_min = std::min(row_min, cur[j]);
    }
    if (lo == 0) row_min = std::min(row_min, cur[0]);
    if (row_min > max_dist) return max_dist + 1;  // Early abandon.
    std::swap(prev, cur);
  }
  return std::min(prev[m], kInf);
}

std::vector<SimPair> SimilarityJoin(const std::vector<std::string>& left,
                                    const std::vector<std::string>& right,
                                    SimilarityFunction fn, double threshold,
                                    const SimJoinOptions& options) {
  switch (fn) {
    case SimilarityFunction::kNoSim:
      if (threshold <= 0.5) return CrossProduct(left.size(), right.size(), 0.5);
      return {};
    case SimilarityFunction::kEditDistance:
      return EditDistanceJoin(left, right, threshold, options);
    case SimilarityFunction::kWordJaccard:
    case SimilarityFunction::kQGramJaccard:
    case SimilarityFunction::kQGramCosine:
      return TokenPrefixJoin(left, right, fn, threshold, options);
  }
  return {};
}

std::vector<SimPair> SimilaritySearch(const std::vector<std::string>& values,
                                      const std::string& query,
                                      SimilarityFunction fn, double threshold) {
  // One query string: the scan is linear anyway, so compute exactly.
  std::vector<SimPair> out;
  for (size_t i = 0; i < values.size(); ++i) {
    double sim = ComputeSimilarity(fn, values[i], query);
    if (sim >= threshold) out.push_back({static_cast<int32_t>(i), 0, sim});
  }
  return out;
}

}  // namespace cdb
