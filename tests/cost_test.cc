#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "cost/budget.h"
#include "cost/ledger.h"
#include "cost/expectation.h"
#include "cost/known_color.h"
#include "cost/sampling.h"
#include "graph/candidates.h"
#include "graph/pruning.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

// ------------------------------------------------------- Known colors ---

// The star rule with `center` as the center relation.
std::vector<EdgeId> StarRule(const QueryGraph& graph, int center,
                             const std::vector<EdgeColor>& colors) {
  const StarCache cache = BuildStarCache(graph, BuildRelGraph(graph), center);
  std::vector<EdgeId> out;
  StarSelection(graph, cache, colors, &out);
  return out;
}

TEST(KnownColorTest, Figure1ChainNeedsOnlyThreeTasks) {
  // The paper's headline example: tuple-level selection asks 3 edges where
  // any tree order asks at least 12 of the 12 edges' worth (9 + 3).
  QueryGraph graph = testing_util::MakeFigure1Chain();
  std::vector<EdgeColor> colors(static_cast<size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    colors[static_cast<size_t>(e)] =
        graph.edge(e).pred == 1 ? EdgeColor::kRed : EdgeColor::kBlue;
  }
  std::vector<EdgeId> tasks = testing_util::SelectKnownColors(graph, colors);
  EXPECT_EQ(tasks.size(), 3u);
}

TEST(KnownColorTest, StarSatisfiedCenterAsksAll) {
  // Star with center 0 and leaves 1, 2. Center tuple 0 has a blue edge to
  // both leaves plus one red each: all 4 edges asked.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}, {true, false, 0, 2}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.9}, {0, 0, 1, 0.4}, {1, 0, 0, 0.9}, {1, 0, 1, 0.4}};
  QueryGraph graph = QueryGraph::MakeSynthetic(3, preds, edges);
  std::vector<EdgeColor> colors = {EdgeColor::kBlue, EdgeColor::kRed,
                                   EdgeColor::kBlue, EdgeColor::kRed};
  std::vector<EdgeId> tasks = StarRule(graph, 0, colors);
  EXPECT_EQ(tasks.size(), 4u);
}

TEST(KnownColorTest, StarUnsatisfiedCenterAsksCheapestRedGroup) {
  // Center tuple with 3 red edges to leaf 1 and 1 red edge to leaf 2:
  // asking the single leaf-2 edge refutes the tuple.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}, {true, false, 0, 2}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.4}, {0, 0, 1, 0.4}, {0, 0, 2, 0.4}, {1, 0, 0, 0.4}};
  QueryGraph graph = QueryGraph::MakeSynthetic(3, preds, edges);
  std::vector<EdgeColor> colors(4, EdgeColor::kRed);
  std::vector<EdgeId> tasks = StarRule(graph, 0, colors);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(graph.edge(tasks[0]).pred, 1);
}

TEST(KnownColorTest, StarMixedBluePathStillRefutedCheaply) {
  // Blue edges to leaf 1 but only red to leaf 2: ask the red leaf-2 group.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}, {true, false, 0, 2}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.9}, {0, 0, 1, 0.9}, {1, 0, 0, 0.4}, {1, 0, 1, 0.4}};
  QueryGraph graph = QueryGraph::MakeSynthetic(3, preds, edges);
  std::vector<EdgeColor> colors = {EdgeColor::kBlue, EdgeColor::kBlue,
                                   EdgeColor::kRed, EdgeColor::kRed};
  std::vector<EdgeId> tasks = StarRule(graph, 0, colors);
  EXPECT_EQ(tasks.size(), 2u);
  for (EdgeId e : tasks) EXPECT_EQ(graph.edge(e).pred, 1);
}

TEST(KnownColorTest, DispatchesOnStructure) {
  // Star graphs route to the star rule; chains route to the min cut. Both
  // must return a non-empty selection when answers exist.
  QueryGraph chain = testing_util::MakeFigure4Neighborhood();
  std::vector<EdgeColor> blue(static_cast<size_t>(chain.num_edges()),
                              EdgeColor::kBlue);
  EXPECT_FALSE(testing_util::SelectKnownColors(chain, blue).empty());
}

// --------------------------------------------------------- Expectation ---

TEST(ExpectationTest, PaperWorkedExample) {
  // E(p1, r1) = (1 - .42)/1 * 2 + (1-.42)(1-.41)(1-.83)/3 * 6 ~= 1.27.
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  Pruner pruner(&graph);
  VertexId r1 = graph.FindVertex(1, 1);
  VertexId p1 = graph.FindVertex(2, 1);
  EdgeId e = FindEdgeBetween(graph, r1, p1, 1);
  ASSERT_NE(e, kNoEdge);
  double expectation = PruningExpectation(graph, pruner, e);
  double expected =
      (1 - 0.42) * 2.0 + (1 - 0.42) * (1 - 0.41) * (1 - 0.83) * 6.0 / 3.0;
  EXPECT_NEAR(expectation, expected, 1e-9);
  EXPECT_NEAR(expectation, 1.27, 0.02);
}

TEST(ExpectationTest, OrderIsDescendingAndComplete) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  Pruner pruner(&graph);
  std::vector<ScoredEdge> order = ExpectationOrder(graph, pruner);
  EXPECT_EQ(order.size(), pruner.RemainingTasks().size());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(order[i - 1].expectation, order[i].expectation);
  }
}

TEST(ExpectationTest, BlueEdgeInGroupZeroesCutTerm) {
  // Once one of p1's R-P edges is BLUE, the beta term vanishes (the group
  // can no longer be fully cut).
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  VertexId r3 = graph.FindVertex(1, 3);
  VertexId p1 = graph.FindVertex(2, 1);
  graph.SetColor(FindEdgeBetween(graph, r3, p1, 1), EdgeColor::kBlue);
  Pruner pruner(&graph);
  VertexId r1 = graph.FindVertex(1, 1);
  EdgeId e = FindEdgeBetween(graph, r1, p1, 1);
  double expectation = PruningExpectation(graph, pruner, e);
  EXPECT_NEAR(expectation, (1 - 0.42) * 2.0, 1e-9);
}

TEST(ExpectationTest, InvalidEdgesAreNotScored) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  // Kill the only P-C edge: everything is invalid, nothing to score.
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (graph.edge(e).pred == 2) graph.SetColor(e, EdgeColor::kRed);
  }
  Pruner pruner(&graph);
  EXPECT_TRUE(ExpectationOrder(graph, pruner).empty());
}

// ------------------------------------------------------------ Sampling ---

TEST(SamplingTest, OrderContainsAllUnknownEdges) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  SamplingOptions options;
  options.num_samples = 20;
  std::vector<EdgeId> order = SampleMinCutOrder(graph, options);
  EXPECT_EQ(order.size(), static_cast<size_t>(graph.num_edges()));
  std::set<EdgeId> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
}

TEST(SamplingTest, SkipsColoredEdges) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  graph.SetColor(0, EdgeColor::kBlue);
  graph.SetColor(1, EdgeColor::kRed);
  SamplingOptions options;
  options.num_samples = 10;
  std::vector<EdgeId> order = SampleMinCutOrder(graph, options);
  EXPECT_EQ(order.size(), static_cast<size_t>(graph.num_edges() - 2));
  for (EdgeId e : order) {
    EXPECT_NE(e, 0);
    EXPECT_NE(e, 1);
  }
}

TEST(SamplingTest, DeterministicGivenSeed) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  SamplingOptions options;
  options.num_samples = 15;
  options.seed = 5;
  EXPECT_EQ(SampleMinCutOrder(graph, options), SampleMinCutOrder(graph, options));
}

TEST(SamplingTest, LikelyRedHighImpactEdgeComesFirst) {
  // In the Figure-1 chain, the pred-1 edges (weight .4, refuting whole
  // chains) should dominate the per-sample cuts and hence lead the order.
  QueryGraph graph = testing_util::MakeFigure1Chain();
  SamplingOptions options;
  options.num_samples = 200;
  std::vector<EdgeId> order = SampleMinCutOrder(graph, options);
  ASSERT_GE(order.size(), 3u);
  int pred1_in_top3 = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (graph.edge(order[i]).pred == 1) ++pred1_in_top3;
  }
  EXPECT_GE(pred1_in_top3, 2);
}

// -------------------------------------------------------------- Budget ---

TEST(BudgetTest, PicksHighestProbabilityCandidateEdges) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  std::vector<EdgeId> batch = BudgetNextBatch(graph);
  // The best candidate is u?-r3-p1-c1 (0.6 * 0.83 * 0.9); batch is its three
  // unknown edges in descending weight.
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_DOUBLE_EQ(graph.edge(batch[0]).weight, 0.9);
  EXPECT_DOUBLE_EQ(graph.edge(batch[1]).weight, 0.83);
  EXPECT_DOUBLE_EQ(graph.edge(batch[2]).weight, 0.6);
}

TEST(BudgetTest, SkipsAskedEdges) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  VertexId p1 = graph.FindVertex(2, 1);
  VertexId c1 = graph.FindVertex(3, 1);
  graph.SetColor(FindEdgeBetween(graph, p1, c1, 2), EdgeColor::kBlue);
  std::vector<EdgeId> batch = BudgetNextBatch(graph);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(graph.edge(batch[0]).weight, 0.83);
}

TEST(BudgetTest, EmptyWhenNothingSurvives) {
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.9, true, EdgeColor::kRed}};
  QueryGraph graph = QueryGraph::MakeSynthetic(2, preds, edges);
  EXPECT_TRUE(BudgetNextBatch(graph).empty());
}

TEST(BudgetLedgerTest, UnlimitedLedgerHasNoRemaining) {
  // Regression for the INT64_MAX sentinel: the unlimited case is nullopt, so
  // "remaining() + slack" arithmetic cannot silently overflow.
  BudgetLedger ledger;
  EXPECT_FALSE(ledger.limited());
  EXPECT_FALSE(ledger.remaining().has_value());
  EXPECT_FALSE(ledger.Exhausted());
  EXPECT_EQ(ledger.TryDebit(1000), 1000);
  EXPECT_FALSE(ledger.remaining().has_value());
  EXPECT_FALSE(ledger.Exhausted());
  EXPECT_EQ(ledger.spent(), 1000);
}

TEST(BudgetLedgerTest, LimitedLedgerClampsAndExhausts) {
  BudgetLedger ledger(10);
  EXPECT_TRUE(ledger.limited());
  EXPECT_EQ(ledger.remaining().value(), 10);
  EXPECT_EQ(ledger.TryDebit(4), 4);
  EXPECT_EQ(ledger.remaining().value(), 6);
  EXPECT_FALSE(ledger.Exhausted());
  EXPECT_EQ(ledger.TryDebit(100), 6);  // Partial grant, clamped at the limit.
  EXPECT_EQ(ledger.remaining().value(), 0);
  EXPECT_TRUE(ledger.Exhausted());
  EXPECT_EQ(ledger.TryDebit(1), 0);
  EXPECT_EQ(ledger.remaining().value(), 0);  // Never negative.
  EXPECT_EQ(ledger.spent(), 10);
}

TEST(BudgetLedgerTest, SpendSaturatesInsteadOfOverflowing) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  BudgetLedger ledger;  // Unlimited grants everything asked.
  EXPECT_EQ(ledger.TryDebit(kMax), kMax);
  EXPECT_EQ(ledger.TryDebit(kMax), kMax);  // Would overflow spent_ if summed.
  EXPECT_EQ(ledger.spent(), kMax);         // Saturated, not wrapped.
}

TEST(BudgetLedgerTest, TrySpendIsAllOrNothing) {
  BudgetLedger ledger(10);
  EXPECT_TRUE(ledger.TrySpend(4));
  EXPECT_EQ(ledger.remaining().value(), 6);
  // Asking for more than remains spends nothing — no partial grant.
  EXPECT_FALSE(ledger.TrySpend(7));
  EXPECT_EQ(ledger.remaining().value(), 6);
  EXPECT_EQ(ledger.spent(), 4);
  // Exactly the remaining amount is grantable.
  EXPECT_TRUE(ledger.TrySpend(6));
  EXPECT_TRUE(ledger.Exhausted());
  EXPECT_FALSE(ledger.TrySpend(1));
  // Zero-cost spends stay legal even on an exhausted ledger.
  EXPECT_TRUE(ledger.TrySpend(0));
  EXPECT_EQ(ledger.spent(), 10);
}

TEST(BudgetLedgerTest, TrySpendUnlimitedAlwaysGrants) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  BudgetLedger ledger;
  EXPECT_TRUE(ledger.TrySpend(kMax));
  EXPECT_TRUE(ledger.TrySpend(kMax));  // Saturates spent_, still granted.
  EXPECT_EQ(ledger.spent(), kMax);
  EXPECT_FALSE(ledger.Exhausted());
}

TEST(BudgetLedgerTest, ConcurrentTrySpendNeverOverspends) {
  // The atomic replacement for Exhausted()-then-debit: with every thread
  // spending through TrySpend, successes times the unit cost must equal the
  // limit exactly — the check-then-act gap this API closes.
  BudgetLedger ledger(600);
  constexpr int kThreads = 8;
  std::vector<int64_t> successes(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, &successes, t] {
      for (int i = 0; i < 200; ++i) {
        if (ledger.TrySpend(3)) ++successes[static_cast<size_t>(t)];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t total = 0;
  for (int64_t s : successes) total += s;
  EXPECT_EQ(total * 3, 600);
  EXPECT_TRUE(ledger.Exhausted());
  EXPECT_EQ(ledger.spent(), 600);
}

TEST(BudgetLedgerTest, ConcurrentDebitsNeverOverspend) {
  // The scheduler debits a shared ledger across sessions; total grants must
  // equal the limit exactly regardless of interleaving.
  BudgetLedger ledger(1000);
  constexpr int kThreads = 8;
  std::vector<int64_t> granted(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, &granted, t] {
      for (int i = 0; i < 500; ++i) granted[static_cast<size_t>(t)] += ledger.TryDebit(1);
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t total = 0;
  for (int64_t g : granted) total += g;
  EXPECT_EQ(total, 1000);
  EXPECT_TRUE(ledger.Exhausted());
  EXPECT_EQ(ledger.spent(), 1000);
}

}  // namespace
}  // namespace cdb
