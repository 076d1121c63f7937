#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/candidates.h"
#include "graph/pruning.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

// A copy of the (v, p) incidence list, for the cut simulations.
std::vector<EdgeId> IncidentCopy(const QueryGraph& graph, VertexId v, int p) {
  const EdgeSpan edges = graph.IncidentEdges(v, p);
  return std::vector<EdgeId>(edges.begin(), edges.end());
}

TEST(PrunerTest, AllValidInitially) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  Pruner pruner(&graph);
  EXPECT_TRUE(pruner.group_graph_acyclic());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_TRUE(pruner.EdgeValid(e)) << "edge " << e;
  }
  EXPECT_EQ(pruner.RemainingTasks().size(), static_cast<size_t>(graph.num_edges()));
}

TEST(PrunerTest, RedEdgeCascades) {
  // The paper's running example: asking (p1, c1) RED invalidates all eight
  // edges upstream of p1 (Section 4.1).
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  EdgeId p1c1 = kNoEdge;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (graph.edge(e).pred == 2) p1c1 = e;
  }
  ASSERT_NE(p1c1, kNoEdge);
  graph.SetColor(p1c1, EdgeColor::kRed);
  Pruner pruner(&graph);
  pruner.Recompute();
  // Every edge is now invalid: the chain cannot reach relation 3.
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_FALSE(pruner.EdgeValid(e)) << "edge " << e;
  }
  EXPECT_TRUE(pruner.RemainingTasks().empty());
}

TEST(PrunerTest, BlueEdgesStayValidButAreNotTasks) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  graph.SetColor(0, EdgeColor::kBlue);
  Pruner pruner(&graph);
  pruner.Recompute();
  EXPECT_TRUE(pruner.EdgeValid(0));
  for (EdgeId e : pruner.RemainingTasks()) EXPECT_NE(e, 0);
}

TEST(PrunerTest, SimulateCutMatchesPaperAlphaBeta) {
  // Worked example of Section 5.1.2: for edge (p1, r1), cutting r1's single
  // R-P edge invalidates alpha = 2 edges; cutting p1's three R-P edges
  // invalidates beta = 6 edges.
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  Pruner pruner(&graph);
  VertexId r1 = graph.FindVertex(1, 1);
  VertexId p1 = graph.FindVertex(2, 1);
  ASSERT_NE(r1, kNoVertex);
  ASSERT_NE(p1, kNoVertex);

  std::vector<EdgeId> r1_cut = IncidentCopy(graph, r1, 1);
  ASSERT_EQ(r1_cut.size(), 1u);
  EXPECT_EQ(pruner.SimulateCutInvalidation(r1_cut), 2);

  std::vector<EdgeId> p1_cut = IncidentCopy(graph, p1, 1);
  ASSERT_EQ(p1_cut.size(), 3u);
  EXPECT_EQ(pruner.SimulateCutInvalidation(p1_cut), 6);
}

TEST(PrunerTest, SimulationRollsBack) {
  QueryGraph graph = testing_util::MakeFigure4Neighborhood();
  Pruner pruner(&graph);
  VertexId p1 = graph.FindVertex(2, 1);
  std::vector<EdgeId> cut = IncidentCopy(graph, p1, 1);
  size_t before = pruner.RemainingTasks().size();
  // Run the simulation multiple times; results must be stable and state
  // restored each time.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pruner.SimulateCutInvalidation(cut), 6);
    EXPECT_EQ(pruner.RemainingTasks().size(), before);
  }
}

TEST(PrunerTest, SimulateCutOfEverythingIsZeroExtra) {
  // Cutting an edge that disconnects nothing extra reports 0.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.5}, {0, 0, 1, 0.5}, {0, 1, 0, 0.5}};
  QueryGraph graph = QueryGraph::MakeSynthetic(2, preds, edges);
  Pruner pruner(&graph);
  EXPECT_EQ(pruner.SimulateCutInvalidation({0}), 0);
}

TEST(PrunerTest, ParallelPredicatesRequireBothEdges) {
  // Two predicates between the same relations: a tuple pair lacking one of
  // the two edges can never be in a candidate, so its lone edge is invalid.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}, {true, false, 0, 1}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.5},  // pair (0,0) has pred-0 edge...
      {1, 0, 0, 0.5},  // ...and pred-1 edge: complete.
      {0, 1, 1, 0.5},  // pair (1,1) has only the pred-0 edge: invalid.
  };
  QueryGraph graph = QueryGraph::MakeSynthetic(2, preds, edges);
  Pruner pruner(&graph);
  EXPECT_TRUE(pruner.EdgeValid(0));
  EXPECT_TRUE(pruner.EdgeValid(1));
  EXPECT_FALSE(pruner.EdgeValid(2));
}

// Property: on random acyclic (chain) graphs with random colorings, the
// pruner's arc-consistency validity agrees exactly with the brute-force
// Definition-3 check.
class PrunerExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunerExactnessTest, MatchesExactValidityOnChains) {
  Rng rng(GetParam());
  // Random 3-relation chain with 4 rows per relation.
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}, {true, false, 1, 2}};
  std::vector<QueryGraph::SyntheticEdge> edges;
  for (int p = 0; p < 2; ++p) {
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        if (rng.Bernoulli(0.45)) {
          edges.push_back({p, a, b, rng.Uniform(0.3, 1.0)});
        }
      }
    }
  }
  if (edges.empty()) return;
  QueryGraph graph = QueryGraph::MakeSynthetic(3, preds, edges);
  // Random partial coloring.
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    double roll = rng.Uniform();
    if (roll < 0.25) {
      graph.SetColor(e, EdgeColor::kRed);
    } else if (roll < 0.5) {
      graph.SetColor(e, EdgeColor::kBlue);
    }
  }
  Pruner pruner(&graph);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_EQ(pruner.EdgeValid(e), EdgeValidExact(graph, e)) << "edge " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChains, PrunerExactnessTest,
                         ::testing::Range<uint64_t>(0, 20));

// A random graph over `num_relations` relations of 5 rows each: each
// predicate joins a row pair with probability `density`.
QueryGraph RandomGraph(Rng& rng, int num_relations,
                       const std::vector<std::pair<int, int>>& rel_pairs,
                       double density) {
  std::vector<PredicateInfo> preds;
  for (const auto& [left, right] : rel_pairs) {
    preds.push_back({true, false, left, right});
  }
  std::vector<QueryGraph::SyntheticEdge> edges;
  for (int p = 0; p < static_cast<int>(preds.size()); ++p) {
    for (int a = 0; a < 5; ++a) {
      for (int b = 0; b < 5; ++b) {
        if (rng.Bernoulli(density)) {
          edges.push_back({p, a, b, rng.Uniform(0.3, 1.0)});
        }
      }
    }
  }
  return QueryGraph::MakeSynthetic(num_relations, preds, edges);
}

// A pruner recomputed after each batch of color changes agrees with one
// built fresh over the same colors. Batches color unknown edges RED or
// BLUE (the incremental path), and now and then flip or uncolor a colored
// edge (a RED edge losing its color forces the full fixpoint).
TEST(PrunerTest, IncrementalMatchesFresh) {
  const std::vector<std::vector<std::pair<int, int>>> shapes = {
      {{0, 1}, {1, 2}, {2, 3}},          // Chain.
      {{0, 1}, {0, 2}, {0, 3}},          // Star.
      {{0, 1}, {0, 1}, {1, 2}},          // Parallel predicates.
      {{0, 1}, {1, 2}, {2, 0}},          // Cyclic group graph.
  };
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (size_t shape = 0; shape < shapes.size(); ++shape) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " shape " +
                   std::to_string(shape));
      Rng rng(seed * 31 + shape);
      QueryGraph graph = RandomGraph(rng, shape == 2 ? 3 : 4, shapes[shape],
                                     shape == 2 ? 0.8 : 0.5);
      if (graph.num_edges() == 0) continue;
      Pruner pruner(&graph);
      EXPECT_EQ(pruner.group_graph_acyclic(), shape != 3);
      for (int batch = 0; batch < 12; ++batch) {
        for (EdgeId e = 0; e < graph.num_edges(); ++e) {
          const double roll = rng.Uniform();
          if (graph.edge_color(e) == EdgeColor::kUnknown) {
            if (roll < 0.08) graph.SetColor(e, EdgeColor::kRed);
            if (roll > 0.9) graph.SetColor(e, EdgeColor::kBlue);
          } else if (roll < 0.01) {
            graph.UncolorEdge(e);
          } else if (roll < 0.02) {
            graph.RecolorEdge(e, graph.edge_color(e) == EdgeColor::kRed
                                     ? EdgeColor::kBlue
                                     : EdgeColor::kRed);
          }
        }
        pruner.Recompute();
        Pruner fresh(&graph);
        for (VertexId v = 0; v < graph.num_vertices(); ++v) {
          ASSERT_EQ(pruner.VertexAlive(v), fresh.VertexAlive(v))
              << "batch " << batch << " vertex " << v;
        }
        for (EdgeId e = 0; e < graph.num_edges(); ++e) {
          ASSERT_EQ(pruner.EdgeValid(e), fresh.EdgeValid(e))
              << "batch " << batch << " edge " << e;
        }
        ASSERT_EQ(pruner.RemainingTasks(), fresh.RemainingTasks());
        for (int c = 0; c < 8; ++c) {
          std::vector<EdgeId> cut;
          if (c % 2 == 0) {
            const EdgeId e = static_cast<EdgeId>(
                rng.UniformInt(0, graph.num_edges() - 1));
            cut = IncidentCopy(graph, graph.edge(e).u, graph.edge(e).pred);
          } else {
            for (int k = rng.UniformInt(1, 3); k > 0; --k) {
              cut.push_back(static_cast<EdgeId>(
                  rng.UniformInt(0, graph.num_edges() - 1)));
            }
          }
          ASSERT_EQ(pruner.SimulateCutInvalidation(cut),
                    fresh.SimulateCutInvalidation(cut))
              << "batch " << batch << " cut " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cdb
