// Reference and admissibility checks for the sim-join kernels
// (`ctest -L simjoin`):
//
//   * every join equals a nested loop over ComputeSimilarity, as a pair set
//     with bit-equal sim doubles, across the four similarity functions,
//     thresholds 0.1 to 1.0 and 1 and 8 threads, on a generated corpus and
//     on a corpus of tokenizer corner cases,
//   * the emission order (which EdgeIds follow) equals digests recorded
//     from the hash-map kernel the CSR kernels replaced; the parameterized
//     suite keeps that kernel's "legacy" name for the recorded outputs,
//   * the signature bounds never reject a pair whose exact similarity
//     reaches the threshold,
//   * CSR / arena building blocks preserve emission order, and integer
//     2-gram keys sort exactly as the gram strings do,
//   * the funnel counters obey
//     candidates == position_rejects + signature_rejects + verified,
//   * JoinCache returns SimilarityJoin's exact pairs, keyed by the full
//     content of its inputs, and runs each distinct join once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <iterator>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "datagen/perturb.h"
#include "datagen/string_corpus.h"
#include "similarity/csr_index.h"
#include "similarity/join_cache.h"
#include "similarity/signature.h"
#include "similarity/sim_join.h"
#include "similarity/tokenizer.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

// The brute-force reference: every pair (i, j) whose ComputeSimilarity
// reaches the threshold, in (i, j) order. `sims` holds the similarity of
// every pair, row-major, so one pass serves every threshold.
std::vector<SimPair> ReferencePairs(const std::vector<double>& sims,
                                    size_t num_right, double threshold) {
  std::vector<SimPair> out;
  for (size_t k = 0; k < sims.size(); ++k) {
    if (sims[k] >= threshold) {
      out.push_back({static_cast<int32_t>(k / num_right),
                     static_cast<int32_t>(k % num_right), sims[k]});
    }
  }
  return out;
}

std::vector<double> AllSimilarities(const std::vector<std::string>& left,
                                    const std::vector<std::string>& right,
                                    SimilarityFunction fn) {
  std::vector<double> sims;
  sims.reserve(left.size() * right.size());
  for (const std::string& a : left) {
    for (const std::string& b : right) {
      sims.push_back(ComputeSimilarity(fn, a, b));
    }
  }
  return sims;
}

// A pair as (left, right, sim bits): bit-equal sims, so -0.0 != 0.0.
using PairKey = std::tuple<int32_t, int32_t, uint64_t>;

std::vector<PairKey> SortedKeys(const std::vector<SimPair>& pairs) {
  std::vector<PairKey> keys;
  keys.reserve(pairs.size());
  for (const SimPair& pair : pairs) {
    keys.emplace_back(pair.left, pair.right, std::bit_cast<uint64_t>(pair.sim));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string Describe(const PairKey& key) {
  return "(" + std::to_string(std::get<0>(key)) + ", " +
         std::to_string(std::get<1>(key)) + ") sim " +
         std::to_string(std::bit_cast<double>(std::get<2>(key)));
}

// Compares a join's output with the reference as a pair multiset: a
// duplicate or a sim that differs in any bit shows as an extra pair.
void ExpectEqualsReference(const std::vector<SimPair>& got,
                           const std::vector<SimPair>& want,
                           const std::string& context) {
  const std::vector<PairKey> got_keys = SortedKeys(got);
  const std::vector<PairKey> want_keys = SortedKeys(want);
  std::vector<PairKey> extra;
  std::vector<PairKey> missing;
  std::set_difference(got_keys.begin(), got_keys.end(), want_keys.begin(),
                      want_keys.end(), std::back_inserter(extra));
  std::set_difference(want_keys.begin(), want_keys.end(), got_keys.begin(),
                      got_keys.end(), std::back_inserter(missing));
  EXPECT_TRUE(extra.empty()) << context << ": " << extra.size()
                             << " pairs not in the reference, first "
                             << Describe(extra.front());
  EXPECT_TRUE(missing.empty()) << context << ": " << missing.size()
                               << " reference pairs missing, first "
                               << Describe(missing.front());
}

StringCorpus SmallCorpus() {
  StringCorpusOptions options;
  options.num_left = 220;
  options.num_right = 220;
  options.match_fraction = 0.35;
  options.vocabulary = 120;  // Dense enough that prefixes actually collide.
  options.seed = 4242;
  return GenerateStringCorpus(options);
}

// FNV-1a over the pair count and every (left, right, sim bits) triple in
// emission order: EdgeIds follow this order, so the digest pins it.
uint64_t PairsDigest(const std::vector<SimPair>& pairs) {
  testing_util::BitDigest digest;
  digest.Add(static_cast<int64_t>(pairs.size()));
  for (const SimPair& pair : pairs) {
    digest.Add(static_cast<int64_t>(pair.left));
    digest.Add(static_cast<int64_t>(pair.right));
    digest.Add(pair.sim);
  }
  return digest.value();
}

// SmallCorpus() outputs of the hash-map ("legacy") kernel, recorded while
// the CSR kernels were still asserted equal to it.
struct PairsGolden {
  SimilarityFunction fn;
  double threshold;
  int64_t pairs;
  uint64_t digest;
};

constexpr PairsGolden kSmallCorpusGoldens[] = {
    {SimilarityFunction::kWordJaccard, 0.3, 2347, 0xcdc236648fbbf129ULL},
    {SimilarityFunction::kWordJaccard, 0.5, 304, 0xd56a56a5ed937c57ULL},
    {SimilarityFunction::kWordJaccard, 0.8, 36, 0xa42e679b932d50e3ULL},
    {SimilarityFunction::kWordJaccard, 0.95, 24, 0x6c0b78844015595fULL},
    {SimilarityFunction::kQGramJaccard, 0.3, 19189, 0xacbc899e213e764cULL},
    {SimilarityFunction::kQGramJaccard, 0.5, 1500, 0x1b871b0329ad9c1bULL},
    {SimilarityFunction::kQGramJaccard, 0.8, 62, 0x5ba24bc6653e6a80ULL},
    {SimilarityFunction::kQGramJaccard, 0.95, 30, 0xb9a761e26928855cULL},
    {SimilarityFunction::kQGramCosine, 0.3, 40217, 0x742232049264405aULL},
    {SimilarityFunction::kQGramCosine, 0.5, 15052, 0x1054738ea1648ba1ULL},
    {SimilarityFunction::kQGramCosine, 0.8, 148, 0x3b7b4746d8f295bcULL},
    {SimilarityFunction::kQGramCosine, 0.95, 43, 0x3401356e994878e5ULL},
    {SimilarityFunction::kEditDistance, 0.5, 587, 0x5e70437d27aa0412ULL},
    {SimilarityFunction::kEditDistance, 0.8, 67, 0x9c65bdb66688aac4ULL},
    {SimilarityFunction::kEditDistance, 0.95, 50, 0x4a45c3435cdada33ULL},
};

const PairsGolden& SmallCorpusGolden(SimilarityFunction fn, double threshold) {
  for (const PairsGolden& golden : kSmallCorpusGoldens) {
    if (golden.fn == fn && golden.threshold == threshold) return golden;
  }
  ADD_FAILURE() << "no golden for " << SimilarityFunctionName(fn) << " t="
                << threshold;
  return kSmallCorpusGoldens[0];
}

struct IdentityCase {
  SimilarityFunction fn;
  double threshold;
  int threads;
};

// GetParam()'s print in test names and failure messages. The default print
// dumps the struct's bytes, uninitialized padding included, so the names
// changed from build to build.
void PrintTo(const IdentityCase& c, std::ostream* os) {
  *os << SimilarityFunctionName(c.fn) << " t=" << c.threshold
      << " threads=" << c.threads;
}

class SimJoinIdentityTest : public ::testing::TestWithParam<IdentityCase> {};

// Pins the emission order: the count and digest of the output must equal
// the recorded legacy output.
TEST_P(SimJoinIdentityTest, FlatMatchesLegacyBitForBit) {
  const IdentityCase test_case = GetParam();
  StringCorpus corpus = SmallCorpus();
  SimJoinOptions options;
  options.num_threads = test_case.threads;
  std::vector<SimPair> got = SimilarityJoin(
      corpus.left, corpus.right, test_case.fn, test_case.threshold, options);

  const PairsGolden& golden =
      SmallCorpusGolden(test_case.fn, test_case.threshold);
  EXPECT_EQ(static_cast<int64_t>(got.size()), golden.pairs);
  EXPECT_EQ(PairsDigest(got), golden.digest)
      << std::hex << "digest 0x" << PairsDigest(got);
}

INSTANTIATE_TEST_SUITE_P(
    FunctionsThresholdsThreads, SimJoinIdentityTest,
    ::testing::Values(
        IdentityCase{SimilarityFunction::kWordJaccard, 0.5, 1},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.5, 8},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.8, 1},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.8, 8},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.95, 1},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.95, 8},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.5, 1},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.5, 8},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.8, 1},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.8, 8},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.95, 1},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.95, 8},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.5, 1},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.5, 8},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.8, 1},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.8, 8},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.95, 1},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.95, 8},
        IdentityCase{SimilarityFunction::kEditDistance, 0.5, 1},
        IdentityCase{SimilarityFunction::kEditDistance, 0.5, 8},
        IdentityCase{SimilarityFunction::kEditDistance, 0.8, 1},
        IdentityCase{SimilarityFunction::kEditDistance, 0.8, 8},
        IdentityCase{SimilarityFunction::kEditDistance, 0.95, 1},
        IdentityCase{SimilarityFunction::kEditDistance, 0.95, 8},
        // 0.3 is the paper's ε, where every graph build runs the join.
        IdentityCase{SimilarityFunction::kWordJaccard, 0.3, 1},
        IdentityCase{SimilarityFunction::kWordJaccard, 0.3, 8},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.3, 1},
        IdentityCase{SimilarityFunction::kQGramJaccard, 0.3, 8},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.3, 1},
        IdentityCase{SimilarityFunction::kQGramCosine, 0.3, 8}));

const SimilarityFunction kJoinFunctions[] = {
    SimilarityFunction::kWordJaccard, SimilarityFunction::kQGramJaccard,
    SimilarityFunction::kQGramCosine, SimilarityFunction::kEditDistance};

std::string Context(SimilarityFunction fn, double t, int threads) {
  return std::string(SimilarityFunctionName(fn)) + " t=" + std::to_string(t) +
         " threads=" + std::to_string(threads);
}

TEST(SimJoinReferenceTest, SmallCorpusEqualsBruteForce) {
  StringCorpus corpus = SmallCorpus();
  for (SimilarityFunction fn : kJoinFunctions) {
    const std::vector<double> sims =
        AllSimilarities(corpus.left, corpus.right, fn);
    for (double t : {0.1, 0.3, 0.5, 0.8, 0.95, 1.0}) {
      const std::vector<SimPair> want =
          ReferencePairs(sims, corpus.right.size(), t);
      for (int threads : {1, 8}) {
        SimJoinOptions options;
        options.num_threads = threads;
        ExpectEqualsReference(
            SimilarityJoin(corpus.left, corpus.right, fn, t, options), want,
            Context(fn, t, threads));
      }
    }
  }
}

// Inputs where tokenization is easiest to get wrong: empty, whitespace-only
// and 1-char strings, surrounding whitespace, mixed case, bytes >= 0x80 and
// repeated grams.
const std::vector<std::string>& CornerLeft() {
  static const std::vector<std::string> left = {
      "", " ", "\t \n", "a", "A", " a ", "z", "ab", "AB", " Ab ", "ba",
      "aab", "abab", "ababab", "aaaa", "\x80", "\xff", "\xff\xfe",
      "a\xff", "\x7f\x80", "\xc3\xa9t\xc3\xa9", "\xc3\x89T\xc3\x89",
      "x y", "x  y", "X Y!", "  hello world  ", "HELLO WORLD",
      "hello, world", "mississippi", "MISSISSIPPI ", "ssi", "a\x80z"};
  return left;
}

const std::vector<std::string>& CornerRight() {
  static const std::vector<std::string> right = {
      "a", " ", "", "Z", "ba ", "abab", "BABA", "\xff", "\xfe\xff",
      "\xc3\xa9T\xc3\xa9", "x y", "y x", "hello  world", "Hello World!",
      "mississippi", "sip", "aaab", "\x80", "a\x80z", "\t\ta", "ab"};
  return right;
}

TEST(SimJoinReferenceTest, CornerCaseCorpusEqualsBruteForce) {
  for (SimilarityFunction fn : kJoinFunctions) {
    const std::vector<double> sims =
        AllSimilarities(CornerLeft(), CornerRight(), fn);
    for (double t : {0.1, 0.3, 0.5, 0.8, 0.95, 1.0}) {
      const std::vector<SimPair> want =
          ReferencePairs(sims, CornerRight().size(), t);
      for (int threads : {1, 8}) {
        SimJoinOptions options;
        options.num_threads = threads;
        ExpectEqualsReference(
            SimilarityJoin(CornerLeft(), CornerRight(), fn, t, options), want,
            Context(fn, t, threads));
      }
    }
  }
}

// The joins key 2-grams as integers and rank them by (document frequency,
// key); any disagreement with the string order would change the prefixes,
// which the candidate count exposes even where the pairs happen to agree.
TEST(SimJoinIdentityTest, CornerCaseCorpusMatchesLegacy) {
  // Pairs of empty token sets: three empty left values ("", " ", "\t \n")
  // times two empty right values (" ", ""), under every token function.
  // The legacy kernel never generated them; each now counts as a
  // candidate.
  constexpr int64_t kEmptySetPairs = 6;
  // simjoin.candidates of the legacy kernel per function (rows, in
  // kJoinFunctions order) and threshold (columns: 0.1, 0.3, 0.5, 0.8, 1.0).
  constexpr int64_t kCornerCandidates[4][5] = {
      {30, 30, 30, 30, 30},
      {58, 57, 54, 35, 29},
      {58, 58, 58, 37, 29},
      {577, 434, 318, 51, 48},
  };
  const double thresholds[] = {0.1, 0.3, 0.5, 0.8, 1.0};
  for (size_t f = 0; f < 4; ++f) {
    const SimilarityFunction fn = kJoinFunctions[f];
    for (size_t ti = 0; ti < 5; ++ti) {
      const double t = thresholds[ti];
      for (int threads : {1, 8}) {
        MetricsRegistry metrics;
        SimJoinOptions options;
        options.num_threads = threads;
        options.metrics = &metrics;
        (void)SimilarityJoin(CornerLeft(), CornerRight(), fn, t, options);
        const bool token_fn = fn != SimilarityFunction::kEditDistance;
        EXPECT_EQ(metrics.counter("simjoin.candidates").Value(),
                  kCornerCandidates[f][ti] + (token_fn ? kEmptySetPairs : 0))
            << Context(fn, t, threads);
      }
    }
  }
}

// --- Signature admissibility ------------------------------------------------

std::vector<int32_t> RandomIdSet(Rng& rng, int max_size, int universe) {
  std::set<int32_t> ids;
  int n = static_cast<int>(rng.UniformInt(0, max_size));
  for (int k = 0; k < n; ++k) {
    ids.insert(static_cast<int32_t>(rng.UniformInt(0, universe - 1)));
  }
  return {ids.begin(), ids.end()};
}

size_t SymmetricDifference(const std::vector<int32_t>& a,
                           const std::vector<int32_t>& b) {
  size_t inter = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
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
  return a.size() + b.size() - 2 * inter;
}

TEST(SignatureTest, HammingLowerBoundsSymmetricDifference) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int32_t> a = RandomIdSet(rng, 30, 200);
    std::vector<int32_t> b = RandomIdSet(rng, 30, 200);
    TokenSignature sa = SignatureOfIds(a.data(), a.size());
    TokenSignature sb = SignatureOfIds(b.data(), b.size());
    EXPECT_LE(static_cast<size_t>(SignatureHamming(sa, sb)),
              SymmetricDifference(a, b));
  }
}

TEST(SignatureTest, JaccardFilterNeverDropsTruePositive) {
  Rng rng(123);
  const double thresholds[] = {0.3, 0.5, 0.8, 0.95};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int32_t> a = RandomIdSet(rng, 25, 120);
    std::vector<int32_t> b = RandomIdSet(rng, 25, 120);
    size_t delta = SymmetricDifference(a, b);
    size_t inter = (a.size() + b.size() - delta) / 2;
    size_t uni = a.size() + b.size() - inter;
    double jaccard =
        uni == 0 ? 1.0
                 : static_cast<double>(inter) / static_cast<double>(uni);
    TokenSignature sa = SignatureOfIds(a.data(), a.size());
    TokenSignature sb = SignatureOfIds(b.data(), b.size());
    for (double t : thresholds) {
      if (jaccard >= t) {
        EXPECT_FALSE(SignatureRejectsJaccard(sa, sb, a.size(), b.size(), t))
            << "jaccard=" << jaccard << " t=" << t;
      }
    }
  }
}

TEST(SignatureTest, CosineFilterNeverDropsTruePositive) {
  Rng rng(321);
  const double thresholds[] = {0.3, 0.5, 0.8, 0.95};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int32_t> a = RandomIdSet(rng, 25, 120);
    std::vector<int32_t> b = RandomIdSet(rng, 25, 120);
    if (a.empty() || b.empty()) continue;
    size_t delta = SymmetricDifference(a, b);
    size_t inter = (a.size() + b.size() - delta) / 2;
    double cosine = static_cast<double>(inter) /
                    std::sqrt(static_cast<double>(a.size()) *
                              static_cast<double>(b.size()));
    TokenSignature sa = SignatureOfIds(a.data(), a.size());
    TokenSignature sb = SignatureOfIds(b.data(), b.size());
    for (double t : thresholds) {
      if (cosine >= t) {
        EXPECT_FALSE(SignatureRejectsCosine(sa, sb, a.size(), b.size(), t))
            << "cosine=" << cosine << " t=" << t;
      }
    }
  }
}

std::string RandomWordString(Rng& rng) {
  static const char* const kWords[] = {"crowd", "query", "join", "data",
                                       "graph", "tuple", "match", "cost"};
  std::string s;
  int n = static_cast<int>(rng.UniformInt(1, 3));
  for (int w = 0; w < n; ++w) {
    if (w > 0) s += ' ';
    s += kWords[rng.UniformInt(0, 7)];
  }
  return s;
}

TEST(SignatureTest, EditDistanceFilterNeverDropsTruePositive) {
  Rng rng(555);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string a = RandomWordString(rng);
    std::string b = a;
    int edits = static_cast<int>(rng.UniformInt(0, 3));
    for (int e = 0; e < edits; ++e) b = IntroduceTypo(b, rng);
    size_t dist = BoundedEditDistance(a, b, a.size() + b.size());
    TokenSignature sa = SignatureOfGrams(a);
    TokenSignature sb = SignatureOfGrams(b);
    // Any tau >= the true distance must not be rejected.
    for (size_t tau = dist; tau <= dist + 2; ++tau) {
      EXPECT_FALSE(SignatureRejectsEditDistance(sa, sb, tau))
          << "a=" << a << " b=" << b << " dist=" << dist << " tau=" << tau;
    }
  }
}

// --- CSR / arena building blocks -------------------------------------------

TEST(CsrIndexTest, PostingsPreserveEmissionOrder) {
  // Emission order per key is the order the sink saw the (key, value) pairs.
  CsrIndex index = CsrIndex::Build(3, [](const auto& sink) {
    sink(2, 10);
    sink(0, 11);
    sink(2, 12);
    sink(2, 13);
    sink(0, 14);
  });
  EXPECT_EQ(index.num_keys(), 3u);
  EXPECT_EQ(index.num_postings(), 5u);
  auto [p0, p0_end] = index.Postings(0);
  EXPECT_EQ(std::vector<int32_t>(p0, p0_end), (std::vector<int32_t>{11, 14}));
  auto [p1, p1_end] = index.Postings(1);
  EXPECT_EQ(p1, p1_end);
  auto [p2, p2_end] = index.Postings(2);
  EXPECT_EQ(std::vector<int32_t>(p2, p2_end),
            (std::vector<int32_t>{10, 12, 13}));
}

TEST(TokenArenaTest, SpansAreDisjointAndSized) {
  TokenArena arena(std::vector<int32_t>{2, 0, 3});
  EXPECT_EQ(arena.num_records(), 3u);
  EXPECT_EQ(arena.size(0), 2u);
  EXPECT_EQ(arena.size(1), 0u);
  EXPECT_EQ(arena.size(2), 3u);
  arena.MutableSpan(0)[0] = 7;
  arena.MutableSpan(0)[1] = 8;
  arena.MutableSpan(2)[0] = 1;
  arena.MutableSpan(2)[1] = 2;
  arena.MutableSpan(2)[2] = 3;
  EXPECT_EQ(std::vector<int32_t>(arena.begin(0), arena.end(0)),
            (std::vector<int32_t>{7, 8}));
  EXPECT_EQ(arena.begin(1), arena.end(1));
  EXPECT_EQ(std::vector<int32_t>(arena.begin(2), arena.end(2)),
            (std::vector<int32_t>{1, 2, 3}));
}

// The documented key of one 2-gram token string (tokenizer.h).
int32_t KeyOfToken(const std::string& token) {
  const int32_t c1 = static_cast<unsigned char>(token[0]);
  if (token.size() == 1) return 257 * c1;
  return 257 * c1 + 1 + static_cast<unsigned char>(token[1]);
}

TEST(QGramKeyTest, KeysSortExactlyAsGramStrings) {
  // Every possible token: all 1-byte strings and all 2-byte grams. Sorting
  // the (token, key) pairs by token must leave the keys strictly increasing.
  std::vector<std::pair<std::string, int32_t>> tokens;
  for (int c1 = 0; c1 < 256; ++c1) {
    tokens.emplace_back(std::string(1, static_cast<char>(c1)), 257 * c1);
    for (int c2 = 0; c2 < 256; ++c2) {
      tokens.emplace_back(
          std::string{static_cast<char>(c1), static_cast<char>(c2)},
          257 * c1 + 1 + c2);
    }
  }
  std::sort(tokens.begin(), tokens.end());
  for (size_t k = 1; k < tokens.size(); ++k) {
    ASSERT_LT(tokens[k - 1].second, tokens[k].second) << "token " << k;
  }
  EXPECT_GE(tokens.front().second, 0);
  EXPECT_LT(tokens.back().second, kQGramKeySpace);
}

TEST(QGramKeyTest, KeysMirrorQGramSet) {
  const std::vector<std::string> values = {
      "", " ", "\t\n", "a", " A ", "Ab", "aBaB", "aaaa", "\x80", "\xff\xfe",
      "\xc3\x89T\xc3\xa9", "  Hello, World  ", "mississippi", "a\x80z\xff"};
  for (const std::string& v : values) {
    std::vector<int32_t> want;
    for (const std::string& token : QGramSet(v, 2)) {
      want.push_back(KeyOfToken(token));
    }
    std::vector<int32_t> got = {-7};  // Appends after what is there.
    AppendQGramKeys(v, got);
    want.insert(want.begin(), -7);
    EXPECT_EQ(got, want) << "value \"" << v << "\"";
  }
}

// --- Funnel accounting ------------------------------------------------------

TEST(SimJoinFunnelTest, CandidatesSplitIntoRejectsPlusVerified) {
  StringCorpus corpus = SmallCorpus();
  for (SimilarityFunction fn : kJoinFunctions) {
    for (int threads : {1, 8}) {
      MetricsRegistry metrics;
      SimJoinOptions options;
      options.num_threads = threads;
      options.metrics = &metrics;
      std::vector<SimPair> pairs =
          SimilarityJoin(corpus.left, corpus.right, fn, 0.6, options);
      int64_t candidates = metrics.counter("simjoin.candidates").Value();
      int64_t position_rejects =
          metrics.counter("simjoin.position_rejects").Value();
      int64_t rejects = metrics.counter("simjoin.signature_rejects").Value();
      int64_t verified = metrics.counter("simjoin.verified").Value();
      int64_t emitted = metrics.counter("simjoin.pairs").Value();
      EXPECT_EQ(candidates, position_rejects + rejects + verified)
          << SimilarityFunctionName(fn) << " threads=" << threads;
      EXPECT_EQ(emitted, static_cast<int64_t>(pairs.size()))
          << SimilarityFunctionName(fn) << " threads=" << threads;
      EXPECT_GT(candidates, 0) << SimilarityFunctionName(fn);
    }
  }
}

TEST(SimJoinFunnelTest, FunnelCountsAreThreadCountInvariant) {
  StringCorpus corpus = SmallCorpus();
  std::string serial_dump;
  {
    MetricsRegistry metrics;
    SimJoinOptions options;
    options.num_threads = 1;
    options.metrics = &metrics;
    (void)SimilarityJoin(corpus.left, corpus.right,
                         SimilarityFunction::kWordJaccard, 0.6, options);
    serial_dump = MetricsDump(metrics);
  }
  MetricsRegistry metrics;
  SimJoinOptions options;
  options.num_threads = 8;
  options.metrics = &metrics;
  (void)SimilarityJoin(corpus.left, corpus.right,
                       SimilarityFunction::kWordJaccard, 0.6, options);
  EXPECT_EQ(serial_dump, MetricsDump(metrics));
}

// The signature bound rejects candidates ahead of the exact verify, and the
// pairs still equal the brute-force reference: it only skipped work.
TEST(SimJoinFunnelTest, SignatureFilterOnlySkipsVerification) {
  StringCorpus corpus = SmallCorpus();
  for (SimilarityFunction fn : kJoinFunctions) {
    MetricsRegistry metrics;
    SimJoinOptions options;
    options.num_threads = 1;
    options.metrics = &metrics;
    std::vector<SimPair> got =
        SimilarityJoin(corpus.left, corpus.right, fn, 0.8, options);
    EXPECT_GT(metrics.counter("simjoin.signature_rejects").Value(), 0)
        << SimilarityFunctionName(fn);
    ExpectEqualsReference(
        got,
        ReferencePairs(AllSimilarities(corpus.left, corpus.right, fn),
                       corpus.right.size(), 0.8),
        SimilarityFunctionName(fn));
  }
}

// --- JoinCache ----------------------------------------------------------------

// Emission order, endpoints and sim bits all equal: EdgeIds follow the order.
void ExpectSamePairs(const std::vector<SimPair>& got,
                     const std::vector<SimPair>& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].left, want[k].left) << context << " pair " << k;
    ASSERT_EQ(got[k].right, want[k].right) << context << " pair " << k;
    ASSERT_EQ(std::bit_cast<uint64_t>(got[k].sim),
              std::bit_cast<uint64_t>(want[k].sim))
        << context << " pair " << k;
  }
}

// One SimilarityJoin's pairs and funnel dump.
struct DirectJoin {
  std::vector<SimPair> pairs;
  std::string funnel;
};

DirectJoin RunDirect(const std::vector<std::string>& left,
                     const std::vector<std::string>& right,
                     SimilarityFunction fn, double threshold, int threads) {
  MetricsRegistry metrics;
  SimJoinOptions options;
  options.num_threads = threads;
  options.metrics = &metrics;
  DirectJoin direct;
  direct.pairs = SimilarityJoin(left, right, fn, threshold, options);
  direct.funnel = MetricsDump(metrics);
  return direct;
}

// The first request runs the join and counts exactly one join's funnel; a
// repeat returns the same pointer and counts nothing. The direct join runs
// serially: its pairs and funnel are identical at every thread count.
TEST(JoinCacheTest, PairsAndFunnelEqualSimilarityJoin) {
  const StringCorpus corpus = SmallCorpus();
  const std::pair<const std::vector<std::string>*,
                  const std::vector<std::string>*>
      corpora[] = {{&corpus.left, &corpus.right}, {&CornerLeft(), &CornerRight()}};
  for (const auto& [left, right] : corpora) {
    for (SimilarityFunction fn : kJoinFunctions) {
      for (double t : {0.1, 0.3, 0.5, 0.8, 1.0}) {
        const DirectJoin want = RunDirect(*left, *right, fn, t, 1);
        for (int threads : {1, 8}) {
          const std::string context = Context(fn, t, threads) + " left size " +
                                      std::to_string(left->size());
          MetricsRegistry metrics;
          JoinCache cache(&metrics);
          auto first = cache.Join(*left, *right, fn, t, threads);
          ExpectSamePairs(*first, want.pairs, context);
          EXPECT_EQ(MetricsDump(metrics), want.funnel) << context;
          auto again = cache.Join(*left, *right, fn, t, threads);
          EXPECT_EQ(again, first) << context;
          EXPECT_EQ(MetricsDump(metrics), want.funnel) << context;
        }
      }
    }
  }
}

TEST(JoinCacheTest, FunctionAndThresholdAreInTheKey) {
  const StringCorpus corpus = SmallCorpus();
  JoinCache cache;
  const auto base = cache.Join(corpus.left, corpus.right,
                               SimilarityFunction::kQGramJaccard, 0.5, 1);
  const auto other_fn = cache.Join(corpus.left, corpus.right,
                                   SimilarityFunction::kWordJaccard, 0.5, 1);
  const auto other_t = cache.Join(corpus.left, corpus.right,
                                  SimilarityFunction::kQGramJaccard, 0.3, 1);
  EXPECT_NE(other_fn, base);
  EXPECT_NE(other_t, base);
  ExpectSamePairs(*other_fn,
                  RunDirect(corpus.left, corpus.right,
                            SimilarityFunction::kWordJaccard, 0.5, 1)
                      .pairs,
                  "word jaccard t=0.5");
  ExpectSamePairs(*other_t,
                  RunDirect(corpus.left, corpus.right,
                            SimilarityFunction::kQGramJaccard, 0.3, 1)
                      .pairs,
                  "qgram jaccard t=0.3");
  EXPECT_EQ(cache.Join(corpus.left, corpus.right,
                       SimilarityFunction::kQGramJaccard, 0.5, 8),
            base);
}

// A column whose size is unchanged but one cell differs (as after SetCell)
// is another join.
TEST(JoinCacheTest, ChangedCellIsAMiss) {
  const StringCorpus corpus = SmallCorpus();
  JoinCache cache;
  const SimilarityFunction fn = SimilarityFunction::kQGramJaccard;
  const auto before = cache.Join(corpus.left, corpus.right, fn, 0.3, 1);
  std::vector<std::string> edited = corpus.left;
  edited[0] = corpus.right[1];
  const auto after = cache.Join(edited, corpus.right, fn, 0.3, 1);
  EXPECT_NE(after, before);
  const std::vector<SimPair> want =
      RunDirect(edited, corpus.right, fn, 0.3, 1).pairs;
  EXPECT_NE(PairsDigest(want), PairsDigest(*before));
  ExpectSamePairs(*after, want, "edited left column");
}

// Concurrent requests for one key wait for one computation.
TEST(JoinCacheTest, ConcurrentRequestsRunTheJoinOnce) {
  const StringCorpus corpus = SmallCorpus();
  const SimilarityFunction fn = SimilarityFunction::kWordJaccard;
  const DirectJoin want = RunDirect(corpus.left, corpus.right, fn, 0.3, 8);
  MetricsRegistry metrics;
  JoinCache cache(&metrics);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const std::vector<SimPair>>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<size_t>(t)] =
          cache.Join(corpus.left, corpus.right, fn, 0.3, 8);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(MetricsDump(metrics), want.funnel);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], got[0]) << "thread " << t;
  }
  ExpectSamePairs(*got[0], want.pairs, "concurrent");
}

}  // namespace
}  // namespace cdb
