// Cross-module property sweeps (parameterized): invariants that must hold
// for random graph shapes, colorings and crowd configurations.
#include <gtest/gtest.h>

#include <set>

#include "bench_util/metrics.h"
#include "bench_util/sim_crowd.h"
#include "common/random.h"
#include "common/serialize.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "exec/session.h"
#include "cost/known_color.h"
#include "flow/min_cut.h"
#include "graph/candidates.h"
#include "graph/pruning.h"
#include "graph/structure.h"
#include "latency/scheduler.h"
#include "quality/truth_inference.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

// Random tree-structured query graph over `num_rels` relations with a
// selection-style leaf (single-vertex relation) sometimes attached.
QueryGraph RandomTreeGraph(Rng& rng, int num_rels, int rows_per_rel,
                           double edge_prob) {
  std::vector<PredicateInfo> preds;
  for (int rel = 1; rel < num_rels; ++rel) {
    int parent = static_cast<int>(rng.UniformInt(0, rel - 1));
    preds.push_back({true, false, parent, rel});
  }
  std::vector<QueryGraph::SyntheticEdge> edges;
  for (size_t p = 0; p < preds.size(); ++p) {
    int right_rows = preds[p].right_rel == num_rels - 1 && rng.Bernoulli(0.3)
                         ? 1  // Selection-like leaf.
                         : rows_per_rel;
    for (int a = 0; a < rows_per_rel; ++a) {
      for (int b = 0; b < right_rows; ++b) {
        if (rng.Bernoulli(edge_prob)) {
          edges.push_back({static_cast<int>(p), a, b, rng.Uniform(0.3, 1.0)});
        }
      }
    }
  }
  if (edges.empty()) edges.push_back({0, 0, 0, 0.5});
  return QueryGraph::MakeSynthetic(num_rels, preds, edges);
}

void RandomColoring(QueryGraph& graph, Rng& rng, double red, double blue) {
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    double roll = rng.Uniform();
    if (roll < red) {
      graph.SetColor(e, EdgeColor::kRed);
    } else if (roll < red + blue) {
      graph.SetColor(e, EdgeColor::kBlue);
    }
  }
}

class TreeGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeGraphPropertyTest, PrunerMatchesExactValidityOnTrees) {
  Rng rng(GetParam());
  QueryGraph graph = RandomTreeGraph(rng, 2 + static_cast<int>(rng.UniformInt(0, 2)),
                                     4, 0.5);
  RandomColoring(graph, rng, 0.25, 0.25);
  Pruner pruner(&graph);
  ASSERT_TRUE(pruner.group_graph_acyclic());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_EQ(pruner.EdgeValid(e), EdgeValidExact(graph, e)) << "edge " << e;
  }
}

TEST_P(TreeGraphPropertyTest, AnswersAreExactlyAllBlueCandidates) {
  Rng rng(GetParam() + 1000);
  QueryGraph graph = RandomTreeGraph(rng, 3, 4, 0.5);
  RandomColoring(graph, rng, 0.3, 0.4);
  for (const Assignment& answer : FindAnswers(graph)) {
    for (EdgeId e : AssignmentEdges(graph, answer)) {
      EXPECT_EQ(graph.edge(e).color, EdgeColor::kBlue);
    }
  }
}

TEST_P(TreeGraphPropertyTest, KnownColorSelectionDeterminesAllAnswers) {
  // Soundness of the Lemma-1 selection on random trees: asking the selected
  // edges must fix the answer set — every all-BLUE candidate uses only
  // selected edges, and every other candidate contains a selected RED edge.
  Rng rng(GetParam() + 2000);
  QueryGraph graph = RandomTreeGraph(rng, 3, 3, 0.6);
  std::vector<EdgeColor> colors(static_cast<size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    colors[static_cast<size_t>(e)] =
        rng.Bernoulli(0.4) ? EdgeColor::kBlue : EdgeColor::kRed;
  }
  std::vector<EdgeId> selected_vec =
      testing_util::SelectKnownColors(graph, colors);
  std::set<EdgeId> selected(selected_vec.begin(), selected_vec.end());
  EnumerateCandidates(graph, [&](const Assignment& candidate) {
    std::vector<EdgeId> edges = AssignmentEdges(graph, candidate);
    bool all_blue = true;
    for (EdgeId e : edges) {
      all_blue = all_blue && colors[static_cast<size_t>(e)] == EdgeColor::kBlue;
    }
    if (all_blue) {
      for (EdgeId e : edges) {
        EXPECT_TRUE(selected.count(e)) << "answer edge not asked";
      }
    } else {
      bool refuted = false;
      for (EdgeId e : edges) {
        refuted = refuted || (selected.count(e) > 0 &&
                              colors[static_cast<size_t>(e)] == EdgeColor::kRed);
      }
      EXPECT_TRUE(refuted) << "non-answer candidate not refuted";
    }
    return true;
  });
}

TEST_P(TreeGraphPropertyTest, ChainPlanCoversEveryGroup) {
  Rng rng(GetParam() + 3000);
  QueryGraph graph = RandomTreeGraph(rng, 2 + static_cast<int>(rng.UniformInt(0, 3)),
                                     3, 0.5);
  ChainPlan plan = BuildChainPlan(graph);
  RelGraph rel_graph = BuildRelGraph(graph);
  ASSERT_EQ(plan.occ_group.size() + 1, plan.occ_rel.size());
  std::set<int> groups(plan.occ_group.begin(), plan.occ_group.end());
  EXPECT_EQ(groups.size(), rel_graph.groups.size());
  std::set<int> rels(plan.occ_rel.begin(), plan.occ_rel.end());
  EXPECT_EQ(rels.size(), static_cast<size_t>(graph.num_relations()));
}

TEST_P(TreeGraphPropertyTest, VertexGreedyRoundIsSubsetAndOrdered) {
  Rng rng(GetParam() + 4000);
  QueryGraph graph = RandomTreeGraph(rng, 3, 5, 0.5);
  Pruner pruner(&graph);
  std::vector<EdgeId> ordered = pruner.RemainingTasks();
  std::vector<EdgeId> round = SelectParallelRound(
      graph, pruner, ordered, LatencyMode::kVertexGreedy, 1.0);
  std::set<EdgeId> pool(ordered.begin(), ordered.end());
  std::set<EdgeId> unique(round.begin(), round.end());
  EXPECT_EQ(unique.size(), round.size());  // No duplicates.
  for (EdgeId e : round) EXPECT_TRUE(pool.count(e));
  if (!ordered.empty()) {
    ASSERT_FALSE(round.empty());
    EXPECT_EQ(round[0], ordered[0]);  // Highest-expectation task always goes.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeGraphPropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

// EM calibration sweep: across worker-quality regimes, EM with golden-task
// priors never does materially worse than majority voting, and recovered
// qualities correlate with the truth.
class EmCalibrationTest : public ::testing::TestWithParam<double> {};

TEST_P(EmCalibrationTest, EmTracksWorkerQuality) {
  const double mean_quality = GetParam();
  Rng rng(static_cast<uint64_t>(mean_quality * 1000));
  const int kWorkers = 12;
  const int kTasks = 250;
  std::vector<double> quality(kWorkers);
  for (double& q : quality) q = rng.ClampedGaussian(mean_quality, 0.1, 0.05, 0.99);
  std::vector<ChoiceObservation> obs;
  std::vector<int> truths(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    truths[static_cast<size_t>(t)] = static_cast<int>(rng.UniformInt(0, 1));
    std::set<int> asked;
    while (asked.size() < 5) {
      asked.insert(static_cast<int>(rng.UniformInt(0, kWorkers - 1)));
    }
    for (int w : asked) {
      int answer = rng.Bernoulli(quality[static_cast<size_t>(w)])
                       ? truths[static_cast<size_t>(t)]
                       : 1 - truths[static_cast<size_t>(t)];
      obs.push_back({t, w, answer});
    }
  }
  InferenceResult em = InferSingleChoiceEm(obs, EmOptions{});
  InferenceResult mv = InferSingleChoiceMajority(obs, 2);
  int em_correct = 0;
  int mv_correct = 0;
  for (int t = 0; t < kTasks; ++t) {
    em_correct += em.Truth(t) == truths[static_cast<size_t>(t)] ? 1 : 0;
    mv_correct += mv.Truth(t) == truths[static_cast<size_t>(t)] ? 1 : 0;
  }
  EXPECT_GE(em_correct + 5, mv_correct);  // Never materially worse.
  // Recovered qualities point the right way: best-estimated worker really is
  // above the mean.
  int best_worker = -1;
  double best_quality = -1.0;
  for (const auto& [w, q] : em.worker_quality) {
    if (q > best_quality) {
      best_quality = q;
      best_worker = w;
    }
  }
  EXPECT_GE(quality[static_cast<size_t>(best_worker)], mean_quality - 0.1);
}

INSTANTIATE_TEST_SUITE_P(QualityLevels, EmCalibrationTest,
                         ::testing::Values(0.6, 0.7, 0.8, 0.9));

// Fault-robustness property: with perfect workers, a faulty crowd changes
// the answer *schedule* but not the answer *content* — so whenever every
// asked task still reached the effective redundancy (nothing starved,
// nothing fallback-colored), the query result must equal the fault-free
// run's result. When tasks do starve the run must still terminate cleanly
// with all DST invariants intact.
class FaultRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultRobustnessTest, FaultyResultMatchesCleanWhenEvidenceSuffices) {
  const uint64_t seed = GetParam();

  SimCrowdConfig clean;
  clean.seed = seed;
  SimCrowdReport clean_report = RunSimCrowd(clean).value();
  ASSERT_TRUE(clean_report.violations.empty());

  // Rotate through three fault regimes keyed off the seed.
  SimCrowdConfig faulty = clean;
  switch (seed % 3) {
    case 0:  // Abandonment-heavy.
      faulty.fault.abandon_prob = 0.3;
      faulty.fault.task_deadline_ticks = 8;
      break;
    case 1:  // Straggler-heavy: most answers delayed, many past deadline.
      faulty.fault.straggler_prob = 0.5;
      faulty.fault.straggler_delay_ticks = 6;
      faulty.fault.task_deadline_ticks = 5;
      break;
    default:  // Everything at once.
      faulty.fault.abandon_prob = 0.25;
      faulty.fault.straggler_prob = 0.25;
      faulty.fault.straggler_delay_ticks = 4;
      faulty.fault.duplicate_prob = 0.2;
      faulty.fault.no_show_prob = 0.3;
      faulty.fault.task_deadline_ticks = 6;
      break;
  }
  SimCrowdReport faulty_report = RunSimCrowd(faulty).value();
  for (const std::string& violation : faulty_report.violations) {
    ADD_FAILURE() << "seed " << seed << ": " << violation;
  }

  const ExecutionStats& stats = faulty_report.result.stats;
  if (stats.starved_task_ids.empty() && stats.fallback_colored == 0) {
    // Full evidence: perfect workers answered every task at least
    // effective-redundancy times, so inference must land on the truth both
    // times and the tuple sets coincide.
    EXPECT_EQ(faulty_report.result.answers, clean_report.result.answers)
        << "seed " << seed;
    EXPECT_EQ(faulty_report.color_dump, clean_report.color_dump)
        << "seed " << seed;
  }
}

TEST_P(FaultRobustnessTest, NoisyWorkersNeverCrash) {
  SimCrowdConfig config;
  config.seed = GetParam();
  config.worker_quality_mean = 0.75;
  config.worker_quality_stddev = 0.1;
  config.quality_control = (GetParam() % 2) == 0;
  config.fault.abandon_prob = 0.35;
  config.fault.straggler_prob = 0.3;
  config.fault.straggler_delay_ticks = 5;
  config.fault.duplicate_prob = 0.15;
  config.fault.no_show_prob = 0.25;
  config.fault.task_deadline_ticks = 5;
  config.fault.max_task_expiries = 3;
  Result<SimCrowdReport> report = RunSimCrowd(config);
  ASSERT_TRUE(report.ok()) << report.status().message();
  // Inference over noisy answers may disagree with the clean run; only the
  // structural invariants must hold.
  for (const std::string& violation : report->violations) {
    ADD_FAILURE() << violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultRobustnessTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- Session snapshot round-trip properties (exec/session_snapshot.cc) ---
//
// The blob contract: Restore(Snapshot(s)) is the identity (re-snapshotting
// the restored session reproduces the original bytes exactly), the bytes do
// not depend on the optimizer thread count, and every way of damaging a blob
// is a typed Status — never a crash, never a half-restored session.

ExecutorOptions SnapshotCrowd(uint64_t seed, int threads) {
  ExecutorOptions options;
  options.platform.worker_quality_mean = 0.85;
  options.platform.redundancy = 3;
  options.platform.seed = seed;
  options.num_threads = threads;
  options.graph.num_threads = threads;
  options.quality_control = (seed % 2) == 0;
  if (options.quality_control) options.golden_tasks = 3;
  if (seed % 3 == 0) {
    FaultProfile& fault = options.platform.fault;
    fault.abandon_prob = 0.2;
    fault.straggler_prob = 0.15;
    fault.straggler_delay_ticks = 4;
    fault.duplicate_prob = 0.1;
    fault.no_show_prob = 0.1;
    fault.task_deadline_ticks = 8;
  }
  return options;
}

class SnapshotRoundTripTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SnapshotRoundTripTest()
      : dataset_(MakeMiniPaperExample()),
        query_(AnalyzeSelect(
                   std::get<SelectStatement>(
                       ParseStatement(kMiniExampleQuery).value()),
                   dataset_.catalog)
                   .value()),
        truth_(MakeEdgeTruth(&dataset_, &query_)) {}

  // A session advanced a seed-dependent number of phases (so the sweep hits
  // every phase and both empty and loaded round buffers across the suite).
  std::string BlobAfterSteps(int threads, int steps) {
    QuerySession session(&query_, SnapshotCrowd(GetParam(), threads), truth_);
    for (int s = 0; s < steps; ++s) {
      Result<bool> more = session.Step();
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) break;
    }
    return session.Snapshot();
  }

  GeneratedDataset dataset_;
  ResolvedQuery query_;
  EdgeTruthFn truth_;
};

TEST_P(SnapshotRoundTripTest, RestoreThenSnapshotReproducesBytes) {
  const int steps = static_cast<int>(GetParam() % 11);
  const std::string blob = BlobAfterSteps(1, steps);

  QuerySession restored(&query_, SnapshotCrowd(GetParam(), 1), truth_);
  Status status = restored.Restore(blob);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(blob, restored.Snapshot());
}

TEST_P(SnapshotRoundTripTest, BytesStableAcrossThreadCounts) {
  const int steps = static_cast<int>(GetParam() % 11);
  EXPECT_EQ(BlobAfterSteps(1, steps), BlobAfterSteps(8, steps));
}

TEST_P(SnapshotRoundTripTest, TruncatedBlobIsTypedError) {
  const std::string blob = BlobAfterSteps(1, static_cast<int>(GetParam() % 7));
  // Every truncation point: seed-strided to keep the sweep fast, but always
  // including the degenerate 0/1-byte and missing-trailer cases.
  const size_t stride = 1 + GetParam() % 17;
  std::vector<size_t> cuts = {0, 1, blob.size() - 1, blob.size() - 9};
  for (size_t cut = 2; cut + 2 < blob.size(); cut += stride) cuts.push_back(cut);
  for (size_t cut : cuts) {
    QuerySession session(&query_, SnapshotCrowd(GetParam(), 1), truth_);
    Status status = session.Restore(blob.substr(0, cut));
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST_P(SnapshotRoundTripTest, BitFlippedBlobIsTypedError) {
  const std::string blob = BlobAfterSteps(1, static_cast<int>(GetParam() % 7));
  const size_t stride = 1 + (blob.size() / 24);
  for (size_t pos = GetParam() % stride; pos < blob.size(); pos += stride) {
    std::string damaged = blob;
    damaged[pos] = static_cast<char>(damaged[pos] ^ (1 << (GetParam() % 8)));
    QuerySession session(&query_, SnapshotCrowd(GetParam(), 1), truth_);
    Status status = session.Restore(damaged);
    // A flip anywhere (payload or trailer) breaks the checksum.
    EXPECT_FALSE(status.ok()) << "pos=" << pos;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "pos=" << pos;
  }
}

TEST_P(SnapshotRoundTripTest, UnknownVersionIsTypedError) {
  std::string blob = BlobAfterSteps(1, static_cast<int>(GetParam() % 7));
  // Bump the version word (bytes 4..7) and re-seal the checksum so only the
  // version — not integrity — is wrong.
  std::string payload = blob.substr(0, blob.size() - sizeof(uint64_t));
  const uint32_t version = QuerySession::kSnapshotVersion + 1 +
                           static_cast<uint32_t>(GetParam() % 5);
  for (size_t i = 0; i < 4; ++i) {
    payload[4 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
  }
  std::string resealed = payload;
  uint64_t checksum = SnapshotChecksum(resealed);
  for (size_t i = 0; i < 8; ++i) {
    resealed.push_back(static_cast<char>((checksum >> (8 * i)) & 0xff));
  }
  QuerySession session(&query_, SnapshotCrowd(GetParam(), 1), truth_);
  Status status = session.Restore(resealed);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST_P(SnapshotRoundTripTest, RestoreRequiresFreshSession) {
  const std::string blob = BlobAfterSteps(1, 3);
  QuerySession used(&query_, SnapshotCrowd(GetParam(), 1), truth_);
  ASSERT_TRUE(used.Step().value());
  Status status = used.Restore(blob);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTripTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace cdb
