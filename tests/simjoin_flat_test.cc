// Bit-identity and admissibility proofs for the flat sim-join kernels
// (`ctest -L simjoin`):
//
//   * legacy vs flat produce byte-identical SimPair vectors across every
//     similarity function x threshold x thread count,
//   * the signature pre-filter never changes the output (it may only skip
//     work), and its bounds never reject a pair whose exact similarity
//     reaches the threshold,
//   * CSR / arena building blocks preserve emission order, and integer
//     2-gram keys sort exactly as the gram strings do,
//   * the funnel counters obey
//     candidates == position_rejects + signature_rejects + verified.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "datagen/perturb.h"
#include "datagen/string_corpus.h"
#include "similarity/csr_index.h"
#include "similarity/signature.h"
#include "similarity/sim_join.h"
#include "similarity/tokenizer.h"

namespace cdb {
namespace {

// Byte-level equality: indexes must match exactly and the sim doubles must
// match bit for bit (== would also accept -0.0 vs 0.0).
void ExpectBitIdentical(const std::vector<SimPair>& a,
                        const std::vector<SimPair>& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].left, b[k].left) << context << " pair " << k;
    EXPECT_EQ(a[k].right, b[k].right) << context << " pair " << k;
    EXPECT_EQ(std::memcmp(&a[k].sim, &b[k].sim, sizeof(double)), 0)
        << context << " pair " << k << ": " << a[k].sim << " vs " << b[k].sim;
  }
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

TEST_P(SimJoinIdentityTest, FlatMatchesLegacyBitForBit) {
  const IdentityCase test_case = GetParam();
  StringCorpus corpus = SmallCorpus();

  SimJoinOptions legacy;
  legacy.kernel = SimJoinKernel::kLegacy;
  legacy.num_threads = 1;
  std::vector<SimPair> oracle = SimilarityJoin(
      corpus.left, corpus.right, test_case.fn, test_case.threshold, legacy);

  SimJoinOptions flat;
  flat.kernel = SimJoinKernel::kFlat;
  flat.num_threads = test_case.threads;
  std::vector<SimPair> got = SimilarityJoin(
      corpus.left, corpus.right, test_case.fn, test_case.threshold, flat);

  std::string context = std::string(SimilarityFunctionName(test_case.fn)) +
                        " t=" + std::to_string(test_case.threshold) +
                        " threads=" + std::to_string(test_case.threads);
  ExpectBitIdentical(oracle, got, context);

  // The signature filter must be output-invisible.
  flat.signature_filter = false;
  std::vector<SimPair> unfiltered = SimilarityJoin(
      corpus.left, corpus.right, test_case.fn, test_case.threshold, flat);
  ExpectBitIdentical(got, unfiltered, context + " (filter off)");
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

// Inputs where tokenization is easiest to get wrong: empty, whitespace-only
// and 1-char strings, surrounding whitespace, mixed case, bytes >= 0x80 and
// repeated grams. The flat kernels key 2-grams as integers and rank them by
// (document frequency, key); any disagreement with the string order would
// change the prefixes, which the candidate count exposes even where the
// pairs happen to agree.
TEST(SimJoinIdentityTest, CornerCaseCorpusMatchesLegacy) {
  const std::vector<std::string> left = {
      "", " ", "\t \n", "a", "A", " a ", "z", "ab", "AB", " Ab ", "ba",
      "aab", "abab", "ababab", "aaaa", "\x80", "\xff", "\xff\xfe",
      "a\xff", "\x7f\x80", "\xc3\xa9t\xc3\xa9", "\xc3\x89T\xc3\x89",
      "x y", "x  y", "X Y!", "  hello world  ", "HELLO WORLD",
      "hello, world", "mississippi", "MISSISSIPPI ", "ssi", "a\x80z"};
  const std::vector<std::string> right = {
      "a", " ", "", "Z", "ba ", "abab", "BABA", "\xff", "\xfe\xff",
      "\xc3\xa9T\xc3\xa9", "x y", "y x", "hello  world", "Hello World!",
      "mississippi", "sip", "aaab", "\x80", "a\x80z", "\t\ta", "ab"};
  const SimilarityFunction fns[] = {
      SimilarityFunction::kWordJaccard, SimilarityFunction::kQGramJaccard,
      SimilarityFunction::kQGramCosine, SimilarityFunction::kEditDistance};
  for (SimilarityFunction fn : fns) {
    for (double t : {0.1, 0.3, 0.5, 0.8, 1.0}) {
      for (int threads : {1, 8}) {
        MetricsRegistry legacy_metrics;
        SimJoinOptions legacy;
        legacy.kernel = SimJoinKernel::kLegacy;
        legacy.num_threads = 1;
        legacy.metrics = &legacy_metrics;
        MetricsRegistry flat_metrics;
        SimJoinOptions flat;
        flat.num_threads = threads;
        flat.metrics = &flat_metrics;
        const std::string context = std::string(SimilarityFunctionName(fn)) +
                                    " t=" + std::to_string(t) +
                                    " threads=" + std::to_string(threads);
        ExpectBitIdentical(SimilarityJoin(left, right, fn, t, legacy),
                           SimilarityJoin(left, right, fn, t, flat), context);
        EXPECT_EQ(legacy_metrics.counter("simjoin.candidates").Value(),
                  flat_metrics.counter("simjoin.candidates").Value())
            << context;
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
  const SimilarityFunction fns[] = {
      SimilarityFunction::kWordJaccard, SimilarityFunction::kQGramJaccard,
      SimilarityFunction::kQGramCosine, SimilarityFunction::kEditDistance};
  for (SimilarityFunction fn : fns) {
    for (int threads : {1, 8}) {
      MetricsRegistry metrics;
      SimJoinOptions options;
      options.kernel = SimJoinKernel::kFlat;
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

TEST(SimJoinFunnelTest, SignatureFilterOnlySkipsVerification) {
  StringCorpus corpus = SmallCorpus();
  MetricsRegistry with_filter;
  MetricsRegistry without_filter;
  SimJoinOptions options;
  options.num_threads = 1;
  options.metrics = &with_filter;
  std::vector<SimPair> filtered = SimilarityJoin(
      corpus.left, corpus.right, SimilarityFunction::kWordJaccard, 0.8,
      options);
  options.signature_filter = false;
  options.metrics = &without_filter;
  std::vector<SimPair> unfiltered = SimilarityJoin(
      corpus.left, corpus.right, SimilarityFunction::kWordJaccard, 0.8,
      options);
  ExpectBitIdentical(filtered, unfiltered, "filter on/off");
  // Same candidates either way; the filter moves work from verified to
  // rejected, never changes what is emitted.
  EXPECT_EQ(with_filter.counter("simjoin.candidates").Value(),
            without_filter.counter("simjoin.candidates").Value());
  EXPECT_EQ(without_filter.counter("simjoin.signature_rejects").Value(), 0);
  EXPECT_LE(with_filter.counter("simjoin.verified").Value(),
            without_filter.counter("simjoin.verified").Value());
  EXPECT_EQ(with_filter.counter("simjoin.pairs").Value(),
            without_filter.counter("simjoin.pairs").Value());
}

}  // namespace
}  // namespace cdb
