#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <string>

#include "common/metrics.h"
#include "common/random.h"
#include "quality/task_assignment.h"
#include "quality/truth_inference.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

// ------------------------------------------------------ Bayesian voting ---

TEST(BayesianVoteTest, SingleConfidentAnswer) {
  std::vector<double> p = BayesianVote({{0.9, 0}}, 2);
  EXPECT_NEAR(p[0], 0.9, 1e-9);
  EXPECT_NEAR(p[1], 0.1, 1e-9);
}

TEST(BayesianVoteTest, AgreementCompounds) {
  std::vector<double> p = BayesianVote({{0.8, 0}, {0.8, 0}, {0.8, 0}}, 2);
  // 0.8^3 / (0.8^3 + 0.2^3).
  EXPECT_NEAR(p[0], 0.512 / (0.512 + 0.008), 1e-9);
}

TEST(BayesianVoteTest, HighQualityOutvotesLowQuality) {
  // Eq. 2: a 0.95 worker saying "0" beats two 0.6 workers saying "1".
  std::vector<double> p = BayesianVote({{0.95, 0}, {0.6, 1}, {0.6, 1}}, 2);
  EXPECT_GT(p[0], p[1]);
}

TEST(BayesianVoteTest, MultiwayWrongMassSplits) {
  // With 4 choices, a wrong answer has probability (1-q)/3 per choice.
  std::vector<double> p = BayesianVote({{0.7, 2}}, 4);
  EXPECT_NEAR(p[2], 0.7, 1e-9);
  EXPECT_NEAR(p[0], 0.1, 1e-9);
  EXPECT_NEAR(p[1], 0.1, 1e-9);
  EXPECT_NEAR(p[3], 0.1, 1e-9);
}

TEST(BayesianVoteTest, SumsToOne) {
  std::vector<double> p =
      BayesianVote({{0.9, 0}, {0.2, 1}, {0.55, 2}, {0.7, 0}}, 3);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-9);
}

// ----------------------------------------------------------------- EM ---

std::vector<ChoiceObservation> SimulateAnswers(int num_tasks, int num_workers,
                                               const std::vector<double>& quality,
                                               Rng& rng,
                                               std::vector<int>* truths) {
  std::vector<ChoiceObservation> obs;
  truths->clear();
  for (int t = 0; t < num_tasks; ++t) {
    int truth = static_cast<int>(rng.UniformInt(0, 1));
    truths->push_back(truth);
    for (int w = 0; w < num_workers; ++w) {
      int answer = rng.Bernoulli(quality[static_cast<size_t>(w)]) ? truth : 1 - truth;
      obs.push_back({t, w, answer});
    }
  }
  return obs;
}

TEST(EmTest, RecoversWorkerQualities) {
  Rng rng(42);
  std::vector<double> quality = {0.95, 0.9, 0.85, 0.6, 0.55};
  std::vector<int> truths;
  std::vector<ChoiceObservation> obs =
      SimulateAnswers(400, 5, quality, rng, &truths);
  InferenceResult result = InferSingleChoiceEm(obs, EmOptions{});
  for (int w = 0; w < 5; ++w) {
    EXPECT_NEAR(result.worker_quality.at(w), quality[static_cast<size_t>(w)], 0.07)
        << "worker " << w;
  }
}

TEST(EmTest, BeatsMajorityVotingWithHeterogeneousWorkers) {
  // The CDB+ claim (Figures 9, 20): with mixed-quality workers, EM +
  // Bayesian voting recovers more truths than majority voting.
  Rng rng(7);
  std::vector<double> quality = {0.95, 0.95, 0.45, 0.45, 0.45};
  std::vector<int> truths;
  std::vector<ChoiceObservation> obs =
      SimulateAnswers(600, 5, quality, rng, &truths);
  InferenceResult em = InferSingleChoiceEm(obs, EmOptions{});
  InferenceResult mv = InferSingleChoiceMajority(obs, 2);
  int em_correct = 0;
  int mv_correct = 0;
  for (size_t t = 0; t < truths.size(); ++t) {
    TaskId id = static_cast<TaskId>(t);
    em_correct += em.Truth(id) == truths[t] ? 1 : 0;
    mv_correct += mv.Truth(id) == truths[t] ? 1 : 0;
  }
  EXPECT_GT(em_correct, mv_correct);
  EXPECT_GT(em_correct, static_cast<int>(truths.size() * 9) / 10);
}

TEST(EmTest, QualityPriorsSeedNewRound) {
  std::vector<ChoiceObservation> obs = {{0, 7, 0}};
  EmOptions options;
  options.quality_priors[7] = 0.95;
  options.max_iterations = 0;  // No updates: posterior reflects the prior.
  InferenceResult result = InferSingleChoiceEm(obs, options);
  // With zero iterations there are no posteriors; run one E-step instead.
  options.max_iterations = 1;
  result = InferSingleChoiceEm(obs, options);
  EXPECT_NEAR(result.posteriors.at(0)[0], 0.95, 0.05);
}

TEST(EmTest, EmptyObservations) {
  InferenceResult result = InferSingleChoiceEm({}, EmOptions{});
  EXPECT_TRUE(result.posteriors.empty());
  EXPECT_EQ(result.Truth(0), -1);
  EXPECT_EQ(result.Confidence(0), 0.0);
}

TEST(MajorityVoteTest, Basic) {
  std::vector<ChoiceObservation> obs = {
      {0, 0, 1}, {0, 1, 1}, {0, 2, 0}, {1, 0, 0}};
  InferenceResult result = InferSingleChoiceMajority(obs, 2);
  EXPECT_EQ(result.Truth(0), 1);
  EXPECT_NEAR(result.Confidence(0), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(result.Truth(1), 0);
}

// -------------------------------------------------------- Multi-choice ---

TEST(MultiChoiceTest, DecomposesPerChoice) {
  // Three workers; choices {0, 2} are the truth; worker 2 is confused.
  std::vector<Answer> answers(3);
  answers[0].worker = 0;
  answers[0].choice_set = {0, 2};
  answers[1].worker = 1;
  answers[1].choice_set = {0, 2};
  answers[2].worker = 2;
  answers[2].choice_set = {1};
  std::map<int, double> quality = {{0, 0.9}, {1, 0.9}, {2, 0.6}};
  std::vector<int> truth = InferMultiChoice(answers, 3, quality);
  EXPECT_EQ(truth, (std::vector<int>{0, 2}));
}

// ------------------------------------------------------- Fill-in-blank ---

TEST(FillInBlankTest, PivotIsClosestToOthers) {
  std::vector<Answer> answers(4);
  answers[0].text = "Massachusetts";
  answers[1].text = "Massachusets";   // Typo, still close.
  answers[2].text = "massachusetts";  // Case variant.
  answers[3].text = "California";     // Outlier.
  std::string truth =
      InferFillInBlank(answers, SimilarityFunction::kQGramJaccard);
  EXPECT_NE(truth, "California");
}

TEST(FillInBlankTest, SingleAnswerWins) {
  std::vector<Answer> answers(1);
  answers[0].text = "only";
  EXPECT_EQ(InferFillInBlank(answers, SimilarityFunction::kQGramJaccard), "only");
}

// ------------------------------------------------------------ Entropy ---

TEST(EntropyTest, KnownValues) {
  EXPECT_NEAR(Entropy({0.5, 0.5}), std::log(2.0), 1e-12);
  EXPECT_NEAR(Entropy({1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(Entropy({}), 0.0, 1e-12);
}

TEST(PosteriorAfterAnswerTest, BayesUpdate) {
  std::vector<double> post = PosteriorAfterAnswer({0.5, 0.5}, 0.8, 0);
  EXPECT_NEAR(post[0], 0.8, 1e-9);
  EXPECT_NEAR(post[1], 0.2, 1e-9);
  // A 0.5-quality worker on binary tasks adds no information.
  post = PosteriorAfterAnswer({0.7, 0.3}, 0.5, 1);
  EXPECT_NEAR(post[0], 0.7, 1e-9);
}

TEST(ExpectedImprovementTest, UncertainTasksGainMore) {
  // Eq. 3: a uniform task has more to gain than a near-settled one.
  double uncertain = ExpectedQualityImprovement({0.5, 0.5}, 0.8);
  double settled = ExpectedQualityImprovement({0.98, 0.02}, 0.8);
  EXPECT_GT(uncertain, settled);
  EXPECT_GE(uncertain, 0.0);
}

TEST(ExpectedImprovementTest, BetterWorkersGainMore) {
  double good = ExpectedQualityImprovement({0.5, 0.5}, 0.95);
  double mediocre = ExpectedQualityImprovement({0.5, 0.5}, 0.6);
  EXPECT_GT(good, mediocre);
}

TEST(ExpectedImprovementTest, UninformativeWorkerGainsNothing) {
  EXPECT_NEAR(ExpectedQualityImprovement({0.5, 0.5}, 0.5), 0.0, 1e-9);
}

// -------------------------------------------------------- Consistency ---

TEST(FillConsistencyTest, Eq4) {
  std::vector<Answer> answers(3);
  answers[0].text = "abc";
  answers[1].text = "abc";
  answers[2].text = "abc";
  EXPECT_NEAR(FillConsistency(answers, SimilarityFunction::kQGramJaccard), 1.0, 1e-9);
  answers[2].text = "zzzzz";
  double mixed = FillConsistency(answers, SimilarityFunction::kQGramJaccard);
  EXPECT_LT(mixed, 1.0);
  EXPECT_NEAR(mixed, 1.0 / 3.0, 1e-9);  // One identical pair out of three.
  EXPECT_EQ(FillConsistency({}, SimilarityFunction::kQGramJaccard), 1.0);
}

TEST(CompletenessScoreTest, Bounds) {
  EXPECT_NEAR(CompletenessScore(20, 100), 0.8, 1e-12);
  EXPECT_NEAR(CompletenessScore(100, 100), 0.0, 1e-12);
  EXPECT_NEAR(CompletenessScore(0, 100), 1.0, 1e-12);
  EXPECT_EQ(CompletenessScore(5, 0), 0.0);
  EXPECT_NEAR(CompletenessScore(120, 100), 0.0, 1e-12);  // Clamped.
}

// --------------------------------------------------- Golden bit digests ---
//
// EM, majority voting and Eq. 3 are pinned to the exact doubles the
// map-grouped, allocating implementations computed before the dense-row
// rewrite: any change to a product, a normalizer or a summation order moves
// a bit and fails here.

using testing_util::BitDigest;

// A self-contained generator (splitmix64), so the golden inputs do not
// depend on the standard library's distribution algorithms.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  // Uniform in [0, 1) with 53 random bits.
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Seeded observations: `num_tasks` tasks with sparse ids (some negative, as
// golden warm-up ids are), 3-9 answers each from `num_workers` workers of
// varied accuracy (repeat answers included), shuffled so tasks interleave.
std::vector<ChoiceObservation> GoldenObservations(uint64_t seed, int num_tasks,
                                                  int num_workers,
                                                  int num_choices) {
  SplitMix rng(seed);
  std::vector<double> accuracy(static_cast<size_t>(num_workers));
  for (double& a : accuracy) a = 0.45 + 0.5 * rng.Unit();
  std::vector<ChoiceObservation> obs;
  for (int t = 0; t < num_tasks; ++t) {
    const TaskId task = t * 7 - 60 + rng.Below(5);
    const int truth = static_cast<int>(rng.Below(num_choices));
    const int answers = 3 + static_cast<int>(rng.Below(7));
    for (int a = 0; a < answers; ++a) {
      const int worker = static_cast<int>(rng.Below(num_workers));
      int choice = truth;
      if (rng.Unit() >= accuracy[static_cast<size_t>(worker)]) {
        choice = static_cast<int>((truth + 1 + rng.Below(num_choices - 1)) %
                                  num_choices);
      }
      obs.push_back({task, worker * 3 + 1, choice});
    }
  }
  for (size_t i = obs.size(); i > 1; --i) {
    std::swap(obs[i - 1],
              obs[static_cast<size_t>(rng.Below(static_cast<int64_t>(i)))]);
  }
  return obs;
}

uint64_t ResultDigest(const InferenceResult& result) {
  BitDigest d;
  for (const auto& [task, posterior] : result.posteriors) {
    d.Add(static_cast<int64_t>(task));
    d.Add(static_cast<int64_t>(posterior.size()));
    for (double p : posterior) d.Add(p);
  }
  for (const auto& [worker, quality] : result.worker_quality) {
    d.Add(static_cast<int64_t>(worker));
    d.Add(quality);
  }
  return d.value();
}

struct EmGolden {
  const char* name;
  uint64_t seed;
  int num_choices;
  bool with_priors;
  uint64_t result_digest;     // Posterior and quality bits.
  int64_t iterations;         // quality.em.iterations.
  int64_t last_delta_micro;   // quality.em.last_delta_micro.
  uint64_t metrics_digest;    // The registry's whole quality.em.* dump.
  uint64_t majority_digest;   // InferSingleChoiceMajority on the same set.
};

constexpr EmGolden kEmGoldens[] = {
    {"priors", 11, 2, true, 0x5c9e5324b1d8b882ULL, 32, 1,
     0x9dadd74c3f41f7f7ULL, 0x39829cc5e4084395ULL},
    {"no_priors", 12, 2, false, 0xc54ba19ea6b39a21ULL, 37, 1,
     0x13c5cd7591b7fff7ULL, 0x9ff4ac014cb60622ULL},
    {"three_choices", 13, 3, false, 0x61b0f63675ef0c24ULL, 18, 1,
     0x66bf5e7441e5ad94ULL, 0xfdeca58b4575a90dULL},
};

TEST(EmGoldenTest, DigestsMatchAtOneAndEightThreads) {
  for (const EmGolden& golden : kEmGoldens) {
    std::vector<ChoiceObservation> obs =
        GoldenObservations(golden.seed, 400, 150, golden.num_choices);
    for (int threads : {1, 8}) {
      EmOptions options;
      options.num_choices = golden.num_choices;
      options.num_threads = threads;
      if (golden.with_priors) {
        SplitMix rng(golden.seed ^ 0x9e11U);
        for (int w = 0; w < 150; w += 3) {
          options.quality_priors[w * 3 + 1] = 0.55 + 0.4 * rng.Unit();
        }
      }
      MetricsRegistry metrics;
      options.metrics = &metrics;
      InferenceResult result = InferSingleChoiceEm(obs, options);
      const std::string dump = metrics.Dump();
      BitDigest metrics_digest;
      metrics_digest.Add(dump);
      SCOPED_TRACE(std::string(golden.name) + " at " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(ResultDigest(result), golden.result_digest)
          << std::hex << "0x" << ResultDigest(result);
      EXPECT_EQ(metrics.counter("quality.em.iterations").Value(),
                golden.iterations);
      EXPECT_EQ(metrics.gauge("quality.em.last_delta_micro").Value(),
                golden.last_delta_micro);
      EXPECT_EQ(metrics_digest.value(), golden.metrics_digest)
          << std::hex << "0x" << metrics_digest.value() << "\n" << dump;
    }
    const uint64_t majority =
        ResultDigest(InferSingleChoiceMajority(obs, golden.num_choices));
    EXPECT_EQ(majority, golden.majority_digest)
        << golden.name << std::hex << " 0x" << majority;
  }
}

TEST(ExpectedImprovementTest, GridMatchesRecordedBits) {
  const std::vector<std::vector<double>> priors = {
      {0.5, 0.5},   {0.9, 0.1},      {0.99, 0.01},    {0.27, 0.73},
      {1.0, 0.0},   {0.2, 0.3, 0.5}, {0.0, 1.0, 0.0}, {0.6, 0.6},
      {0.0, 0.0},
  };
  const double qualities[] = {0.0, 0.5, 0.7, 0.83, 0.97};
  // Recorded with the allocating Eq. 3 (posteriors materialized through
  // PosteriorAfterAnswer); row = prior, column = quality. The unnormalized
  // priors pin the normalizer, and {0, 0} its norm <= 0 fallback.
  constexpr uint64_t kBits[9][5] = {
      {0x3fe5ed7c47b6c3d7ULL, 0x0000000000000000ULL, 0x3fb5107da0332f30ULL,
       0x3fce5e914015bb4cULL, 0x3fe1de7430430d0aULL},
      {0x3fd469592b140551ULL, 0x0000000000000000ULL, 0x3f9ee53155d298e0ULL,
       0x3fb72d8fd7106490ULL, 0x3fcebadc0baa564eULL},
      {0x3faae7e5c28eb500ULL, 0x0000000000000000ULL, 0x3f6b73f59011b580ULL,
       0x3f851ea294e8da20ULL, 0x3fa0054cd8422ec6ULL},
      {0x3fe26d061ab20440ULL, 0x0000000000000000ULL, 0x3fb0b4c043d7d980ULL,
       0x3fc8604e5c7e5c72ULL, 0x3fdd8d8c384cbddeULL},
      {0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3fd856754654b16cULL, 0x3fabef330d35d550ULL, 0x3fd092fc7238ead8ULL,
       0x3fdf2640d29245daULL, 0x3fec2ada4007744aULL},
      {0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3fe369c5f7ec9448ULL, 0xbfb48521c62dd930ULL, 0xbfa7eea8abe5bf90ULL,
       0x3fb8d03e8867a838ULL, 0x3fdcfc97ce4f5da6ULL},
      {0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
  };
  for (size_t p = 0; p < priors.size(); ++p) {
    for (size_t q = 0; q < 5; ++q) {
      const uint64_t bits = std::bit_cast<uint64_t>(
          ExpectedQualityImprovement(priors[p], qualities[q]));
      EXPECT_EQ(bits, kBits[p][q])
          << "prior " << p << " quality " << qualities[q] << std::hex
          << ": 0x" << bits;
    }
  }
}

// ----------------------------------------------------- EntropyAssigner ---

TEST(EntropyAssignerTest, PicksMostUncertainTasks) {
  std::map<TaskId, std::vector<double>> posteriors = {
      {10, {0.99, 0.01}},
      {11, {0.55, 0.45}},
      {12, {0.80, 0.20}},
  };
  std::map<int, double> worker_quality = {{0, 0.9}};
  EntropyAssigner assigner(&posteriors, &worker_quality, 2);
  SimulatedWorker worker(0, 0.9);
  std::vector<size_t> picks = assigner(worker, {10, 11, 12}, 2);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 1u);  // Task 11 (most uncertain).
  EXPECT_EQ(picks[1], 2u);  // Task 12.
}

TEST(EntropyAssignerTest, UnknownTasksGetUniformPrior) {
  std::map<TaskId, std::vector<double>> posteriors;
  std::map<int, double> worker_quality;
  EntropyAssigner assigner(&posteriors, &worker_quality, 2);
  SimulatedWorker worker(5, 0.8);
  std::vector<size_t> picks = assigner(worker, {1, 2, 3}, 5);
  EXPECT_EQ(picks.size(), 3u);  // Capped at available.
}

TEST(EntropyAssignerTest, MemoPicksEqualFreshAssignerAtEveryArrival) {
  // Seeded rounds over overlapping task ids, so a row or slot left over from
  // an earlier round would show: every arrival's picks from the memoized
  // assigner must equal a freshly built one's over the same posteriors.
  constexpr int kWorkers = 50;
  constexpr TaskId kGoldenId = -3;  // Outside the slot table.
  Rng rng(20261017);
  std::map<TaskId, std::vector<double>> posteriors;
  std::map<int, double> quality;
  for (int w = 0; w < kWorkers; ++w) {
    if (w % 7 != 0) quality[w] = rng.Uniform(0.55, 0.98);  // 7k: default q.
  }
  posteriors[kGoldenId] = {0.5, 0.5};
  EntropyAssigner memo(&posteriors, &quality, 2);
  int64_t arrivals = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<Task> tasks;
    std::vector<TaskId> ids;
    for (TaskId id = 0; id < 240; ++id) {
      if (!rng.Bernoulli(0.45)) continue;
      Task task;
      task.id = id;
      tasks.push_back(task);
      ids.push_back(id);
      const double w = rng.Uniform();
      posteriors[id] = {w, 1.0 - w};
    }
    memo.BeginRound(tasks);
    // The repost sub-list: the requester tops up part of the round.
    std::vector<TaskId> reposts;
    for (TaskId id : ids) {
      if (rng.Bernoulli(0.3)) reposts.push_back(id);
    }
    for (int a = 0; a < 300; ++a) {
      const std::vector<TaskId>& pool = a < 220 ? ids : reposts;
      const int w = static_cast<int>(rng.UniformInt(0, kWorkers - 1));
      SimulatedWorker worker(w, 0.8);
      std::vector<TaskId> available;
      for (TaskId id : pool) {
        if (rng.Bernoulli(0.7)) available.push_back(id);
      }
      if (rng.Bernoulli(0.1)) available.push_back(kGoldenId);
      EntropyAssigner fresh(&posteriors, &quality, 2);
      const std::vector<size_t> picks = memo(worker, available, 5);
      ASSERT_EQ(picks, fresh(worker, available, 5))
          << "round " << round << " arrival " << a;
      ++arrivals;
      for (size_t pick : picks) {
        Answer answer;
        answer.task = available[pick];
        answer.worker = w;
        answer.choice = static_cast<int>(rng.UniformInt(0, 1));
        memo.Observe(answer);
        // A duplicated delivery updates the posterior a second time.
        if (rng.Bernoulli(0.1)) memo.Observe(answer);
      }
      // A mid-round quality change: the worker's row must refill.
      if (a % 60 == 59) quality[w] = rng.Uniform(0.55, 0.98);
    }
    // Between rounds, EM re-estimates every quality.
    for (int w = 0; w < kWorkers; ++w) {
      if (rng.Bernoulli(0.5)) quality[w] = rng.Uniform(0.55, 0.98);
    }
  }
  EXPECT_EQ(arrivals, 6 * 300);
}

TEST(EntropyAssignerTest, ObserveUpdatesPosteriorLikeBayes) {
  std::map<TaskId, std::vector<double>> posteriors = {{4, {0.6, 0.4}},
                                                      {-1, {0.5, 0.5}}};
  std::map<int, double> quality = {{9, 0.9}};
  EntropyAssigner assigner(&posteriors, &quality, 2);
  Task task;
  task.id = 4;
  assigner.BeginRound({task});
  Answer answer;
  answer.task = 4;
  answer.worker = 9;
  answer.choice = 1;
  assigner.Observe(answer);
  EXPECT_EQ(posteriors.at(4), PosteriorAfterAnswer({0.6, 0.4}, 0.9, 1));
  // Outside the round (a golden id) and for an unknown worker (q = 0.7).
  answer.task = -1;
  answer.worker = 3;
  answer.choice = 0;
  assigner.Observe(answer);
  EXPECT_EQ(posteriors.at(-1), PosteriorAfterAnswer({0.5, 0.5}, 0.7, 0));
  // No posterior, nothing to update.
  answer.task = 77;
  assigner.Observe(answer);
  EXPECT_EQ(posteriors.count(77), 0u);
}

}  // namespace
}  // namespace cdb
