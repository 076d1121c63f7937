// Concurrency tests for the parallel-execution substrate and the determinism
// contract of the parallelized optimizer stages: every stage must produce
// bit-identical results at any thread count. Labeled `parallel` in ctest so a
// TSan build can target them (`ctest -L parallel`).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util/sim_crowd.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "cost/sampling.h"
#include "quality/truth_inference.h"
#include "similarity/sim_join.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

const std::vector<int> kThreadCounts = {1, 2, 8};

// ------------------------------------------------------------ ThreadPool ---

TEST(ThreadPoolTest, SchedulesAndRunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&done] { done.fetch_add(1); });
  }
  // Destruction joins the workers after the queue drains.
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, GlobalPoolMatchesHardware) {
  ASSERT_NE(ThreadPool::Global(), nullptr);
  EXPECT_EQ(ThreadPool::Global()->num_threads(),
            ThreadPool::HardwareConcurrency());
}

// ------------------------------------------------------------ ParallelFor ---

TEST(ParallelForTest, EmptyRangeNeverInvokesCallback) {
  for (int threads : kThreadCounts) {
    std::atomic<int> calls{0};
    ParallelFor(5, 5, 1, [&](int64_t, int64_t, int) { calls.fetch_add(1); },
                threads);
    ParallelFor(7, 3, 1, [&](int64_t, int64_t, int) { calls.fetch_add(1); },
                threads);
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  for (int threads : kThreadCounts) {
    std::vector<std::tuple<int64_t, int64_t, int>> chunks;
    ParallelFor(
        2, 5, /*grain=*/100,
        [&](int64_t lo, int64_t hi, int chunk) { chunks.push_back({lo, hi, chunk}); },
        threads);
    ASSERT_EQ(chunks.size(), 1u);  // Single chunk => runs inline, no race.
    EXPECT_EQ(chunks[0], std::make_tuple(int64_t{2}, int64_t{5}, 0));
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : kThreadCounts) {
    std::vector<std::atomic<int>> counts(1000);
    ParallelFor(
        0, 1000, /*grain=*/7,
        [&](int64_t lo, int64_t hi, int) {
          for (int64_t i = lo; i < hi; ++i) counts[static_cast<size_t>(i)]++;
        },
        threads);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelForTest, ChunkGeometryIndependentOfThreadCount) {
  auto chunks_at = [](int threads) {
    std::mutex mu;
    std::set<std::tuple<int64_t, int64_t, int>> chunks;
    ParallelFor(
        3, 45, /*grain=*/4,
        [&](int64_t lo, int64_t hi, int chunk) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.insert({lo, hi, chunk});
        },
        threads);
    return chunks;
  };
  auto serial = chunks_at(1);
  EXPECT_EQ(serial.size(), 11u);  // ceil(42 / 4).
  for (int threads : kThreadCounts) EXPECT_EQ(chunks_at(threads), serial);
}

TEST(RngStreamTest, StreamsAreDeterministicAndDistinct) {
  Rng a(123, 7);
  Rng b(123, 7);
  Rng c(123, 8);
  bool any_differ = false;
  for (int i = 0; i < 64; ++i) {
    double va = a.Uniform();
    EXPECT_EQ(va, b.Uniform());
    if (va != c.Uniform()) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

// ------------------------------------------------- Stage determinism ---

TEST(ParallelDeterminismTest, SampleMinCutOrderIdenticalAcrossThreadCounts) {
  for (const QueryGraph& graph : {testing_util::MakeFigure4Neighborhood(),
                                  testing_util::MakeFigure1Chain()}) {
    SamplingOptions serial;
    serial.num_samples = 50;
    serial.seed = 11;
    serial.num_threads = 1;
    std::vector<EdgeId> expected = SampleMinCutOrder(graph, serial);
    for (int threads : kThreadCounts) {
      SamplingOptions options = serial;
      options.num_threads = threads;
      EXPECT_EQ(SampleMinCutOrder(graph, options), expected)
          << "threads=" << threads;
    }
  }
}

std::vector<std::string> RandomStrings(Rng& rng, size_t count) {
  const std::vector<std::string> words = {
      "query", "crowd", "join",  "data",   "clean", "entity", "match",
      "graph", "cost",  "task",  "worker", "tuple", "select", "optimize",
  };
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string s;
    int64_t n = rng.UniformInt(1, 4);
    for (int64_t w = 0; w < n; ++w) {
      if (w > 0) s += ' ';
      s += words[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(words.size()) - 1))];
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ParallelDeterminismTest, SimilarityJoinIdenticalAcrossThreadCounts) {
  const std::vector<std::pair<SimilarityFunction, double>> cases = {
      {SimilarityFunction::kNoSim, 0.5},
      {SimilarityFunction::kEditDistance, 0.5},
      {SimilarityFunction::kWordJaccard, 0.4},
      {SimilarityFunction::kQGramJaccard, 0.3},
      {SimilarityFunction::kQGramCosine, 0.4},
  };
  Rng rng(99);
  // Enough rows that the probe loop actually splits into several chunks.
  std::vector<std::string> left = RandomStrings(rng, 300);
  std::vector<std::string> right = RandomStrings(rng, 300);
  for (const auto& [fn, threshold] : cases) {
    SimJoinOptions serial{/*num_threads=*/1};
    std::vector<SimPair> expected =
        SimilarityJoin(left, right, fn, threshold, serial);
    for (int threads : kThreadCounts) {
      SimJoinOptions options{threads};
      std::vector<SimPair> got =
          SimilarityJoin(left, right, fn, threshold, options);
      ASSERT_EQ(got.size(), expected.size())
          << SimilarityFunctionName(fn) << " threads=" << threads;
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].left, expected[k].left);
        EXPECT_EQ(got[k].right, expected[k].right);
        // Bit-identical, not just approximately equal.
        EXPECT_EQ(got[k].sim, expected[k].sim);
      }
    }
  }
}

TEST(ParallelDeterminismTest, TruthInferenceIdenticalAcrossThreadCounts) {
  // Simulated answers: 300 tasks x 5 answers, 40 workers of varying quality.
  Rng rng(7);
  std::vector<double> true_quality(40);
  for (double& q : true_quality) q = rng.Uniform(0.55, 0.95);
  std::vector<ChoiceObservation> obs;
  for (int task = 0; task < 300; ++task) {
    int truth = static_cast<int>(rng.UniformInt(0, 1));
    for (int a = 0; a < 5; ++a) {
      int worker = static_cast<int>(rng.UniformInt(0, 39));
      bool correct = rng.Bernoulli(true_quality[static_cast<size_t>(worker)]);
      obs.push_back({task, worker, correct ? truth : 1 - truth});
    }
  }
  EmOptions serial;
  serial.num_threads = 1;
  InferenceResult expected = InferSingleChoiceEm(obs, serial);
  for (int threads : kThreadCounts) {
    EmOptions options;
    options.num_threads = threads;
    InferenceResult got = InferSingleChoiceEm(obs, options);
    ASSERT_EQ(got.posteriors.size(), expected.posteriors.size());
    for (const auto& [task, posterior] : expected.posteriors) {
      ASSERT_TRUE(got.posteriors.count(task));
      const std::vector<double>& got_posterior = got.posteriors.at(task);
      ASSERT_EQ(got_posterior.size(), posterior.size());
      for (size_t i = 0; i < posterior.size(); ++i) {
        EXPECT_EQ(got_posterior[i], posterior[i]) << "threads=" << threads;
      }
    }
    ASSERT_EQ(got.worker_quality.size(), expected.worker_quality.size());
    for (const auto& [worker, quality] : expected.worker_quality) {
      EXPECT_EQ(got.worker_quality.at(worker), quality);
    }
  }
}

TEST(ParallelDeterminismTest, FaultyExecutionIdenticalAcrossThreadCounts) {
  // End-to-end seed sweep with the fault layer on: the fault schedule is
  // drawn from (seed, counter) streams and the platform interaction is
  // serial, so a whole faulty query run — PlatformStats byte dump and final
  // edge coloring included — must be bit-identical at every optimizer
  // thread count. Quality control + sampling exercise both parallel stages
  // (EM inference and the min-cut sampler).
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::string reference_stats;
    std::string reference_colors;
    for (int threads : kThreadCounts) {
      SimCrowdConfig config;
      config.seed = seed;
      config.quality_control = true;
      config.cost_method = CostMethod::kSampling;
      config.num_threads = threads;
      config.fault.abandon_prob = 0.3;
      config.fault.straggler_prob = 0.2;
      config.fault.straggler_delay_ticks = 5;
      config.fault.duplicate_prob = 0.1;
      config.fault.no_show_prob = 0.15;
      config.fault.task_deadline_ticks = 7;
      SimCrowdReport report = RunSimCrowd(config).value();
      for (const std::string& violation : report.violations) {
        ADD_FAILURE() << "seed " << seed << " threads " << threads << ": "
                      << violation;
      }
      if (threads == kThreadCounts.front()) {
        reference_stats = report.stats_dump;
        reference_colors = report.color_dump;
      } else {
        EXPECT_EQ(report.stats_dump, reference_stats)
            << "seed " << seed << " threads " << threads;
        EXPECT_EQ(report.color_dump, reference_colors)
            << "seed " << seed << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace cdb
