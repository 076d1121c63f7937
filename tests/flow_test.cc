#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "flow/dinic.h"
#include "flow/min_cut.h"
#include "graph/candidates.h"
#include "graph/structure.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

TEST(DinicTest, SingleArc) {
  MaxFlow flow(2);
  flow.AddArc(0, 1, 7);
  EXPECT_EQ(flow.Compute(0, 1), 7);
}

TEST(DinicTest, Bottleneck) {
  // 0 -> 1 -> 2 with capacities 5 and 3.
  MaxFlow flow(3);
  flow.AddArc(0, 1, 5);
  flow.AddArc(1, 2, 3);
  EXPECT_EQ(flow.Compute(0, 2), 3);
  std::vector<uint8_t> side;
  flow.SourceSideInto(0, &side);
  EXPECT_EQ(side, (std::vector<uint8_t>{1, 1, 0}));
}

TEST(DinicTest, ClassicNetwork) {
  // A standard max-flow example with value 19.
  MaxFlow flow(6);
  flow.AddArc(0, 1, 10);
  flow.AddArc(0, 2, 10);
  flow.AddArc(1, 2, 2);
  flow.AddArc(1, 3, 4);
  flow.AddArc(1, 4, 8);
  flow.AddArc(2, 4, 9);
  flow.AddArc(4, 3, 6);
  flow.AddArc(3, 5, 10);
  flow.AddArc(4, 5, 10);
  EXPECT_EQ(flow.Compute(0, 5), 19);
}

TEST(DinicTest, DisconnectedIsZero) {
  MaxFlow flow(4);
  flow.AddArc(0, 1, 5);
  flow.AddArc(2, 3, 5);
  EXPECT_EQ(flow.Compute(0, 3), 0);
}

TEST(DinicTest, ParallelArcsAdd) {
  MaxFlow flow(2);
  flow.AddArc(0, 1, 2);
  flow.AddArc(0, 1, 3);
  EXPECT_EQ(flow.Compute(0, 1), 5);
}

// --- Lemma-1 chain selection ---

std::vector<EdgeColor> AllColors(const QueryGraph& graph, EdgeColor color) {
  return std::vector<EdgeColor>(static_cast<size_t>(graph.num_edges()), color);
}

// The Lemma-1 selection split by color: the BLUE edges it asks lie on
// complete blue chains, the RED ones form the minimum cut.
struct SplitSelection {
  std::set<EdgeId> blue_chain;
  std::set<EdgeId> cut;
};

// The Lemma-1 selection in emission order.
std::vector<EdgeId> ChainSelection(const QueryGraph& graph,
                                   const std::vector<EdgeColor>& colors) {
  const MinCutCache cache =
      BuildMinCutCache(graph, BuildRelGraph(graph), BuildChainPlan(graph));
  FlowArena arena;
  std::vector<EdgeId> selected;
  ChainMinCutSelection(graph, cache, colors, &arena, &selected);
  return selected;
}

SplitSelection ChainSelect(const QueryGraph& graph,
                           const std::vector<EdgeColor>& colors) {
  SplitSelection out;
  for (EdgeId e : ChainSelection(graph, colors)) {
    std::set<EdgeId>& side =
        colors[static_cast<size_t>(e)] == EdgeColor::kBlue ? out.blue_chain
                                                           : out.cut;
    EXPECT_TRUE(side.insert(e).second) << "edge " << e << " asked twice";
  }
  return out;
}

TEST(ChainMinCutTest, Figure1OptimalThreeAsks) {
  // The motivating example: the 3 pred-1 edges are RED; cutting them saves
  // all 9 pred-0 edges.
  QueryGraph graph = testing_util::MakeFigure1Chain();
  std::vector<EdgeColor> colors(static_cast<size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    colors[static_cast<size_t>(e)] =
        graph.edge(e).pred == 1 ? EdgeColor::kRed : EdgeColor::kBlue;
  }
  SplitSelection sel = ChainSelect(graph, colors);
  EXPECT_TRUE(sel.blue_chain.empty());  // No complete blue chain.
  EXPECT_EQ(sel.cut.size(), 3u);
  for (EdgeId e : sel.cut) EXPECT_EQ(graph.edge(e).pred, 1);
}

TEST(ChainMinCutTest, AllBlueAsksEverythingOnChains) {
  QueryGraph graph = testing_util::MakeFigure1Chain();
  SplitSelection sel = ChainSelect(graph, AllColors(graph, EdgeColor::kBlue));
  // Every edge participates in a complete blue chain here (T2 row 0 carries
  // all pred-1 edges; rows 1,2 of T2 have no pred-1 edge so their pred-0
  // edges are NOT on blue chains).
  const std::set<EdgeId>& blue = sel.blue_chain;
  int pred0_on_chain = 0;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const GraphEdge& edge = graph.edge(e);
    // Only T2 row 0 has pred-1 edges, so blue chains are exactly those
    // passing through it: all pred-1 edges plus pred-0 edges into T2 row 0.
    bool expected_on_chain =
        edge.pred == 1 || (edge.pred == 0 && graph.vertex(edge.v).row == 0);
    EXPECT_EQ(blue.count(e) > 0, expected_on_chain) << "edge " << e;
    if (edge.pred == 0 && blue.count(e)) ++pred0_on_chain;
  }
  EXPECT_EQ(pred0_on_chain, 3);
  EXPECT_TRUE(sel.cut.empty());  // Nothing red to cut.
}

TEST(ChainMinCutTest, MixedFigure5Style) {
  // Figure-5 flavored: one complete blue chain plus red deviations; the
  // selection must contain the blue chain and a minimum red cut, and the
  // total must refute every alternative chain.
  //
  // Layout (chain A-B-C): blue chain a0-b0-c0; deviations a1-b0 (red),
  // b0-c1 (red), a0-b1 (red), b1-c0 (red).
  std::vector<PredicateInfo> preds = {{true, false, 0, 1}, {true, false, 1, 2}};
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, 0, 0, 0.9},  // a0-b0 blue-chain
      {1, 0, 0, 0.9},  // b0-c0 blue-chain
      {0, 1, 0, 0.4},  // a1-b0 red
      {1, 0, 1, 0.4},  // b0-c1 red
      {0, 0, 1, 0.4},  // a0-b1 red
      {1, 1, 0, 0.4},  // b1-c0 red
  };
  QueryGraph graph = QueryGraph::MakeSynthetic(3, preds, edges);
  std::vector<EdgeColor> colors = {EdgeColor::kBlue, EdgeColor::kBlue,
                                   EdgeColor::kRed,  EdgeColor::kRed,
                                   EdgeColor::kRed,  EdgeColor::kRed};
  SplitSelection sel = ChainSelect(graph, colors);
  EXPECT_EQ(sel.blue_chain, (std::set<EdgeId>{0, 1}));
  // Red deviations through b0 (edges 2 and 3) each form their own s-t path
  // via the split blue vertex; the b1 path needs one of {4, 5}. Min cut = 3.
  const std::set<EdgeId>& cut = sel.cut;
  EXPECT_EQ(cut.size(), 3u);
  EXPECT_TRUE(cut.count(2));
  EXPECT_TRUE(cut.count(3));
  // Of the two minimum cuts the source-closest one is reported, whatever
  // the max-flow algorithm: every maximum flow saturates a0-b1, so s reaches
  // a1 and the outgoing copies of a0, b0 and c0 but never b1. Edge 4 is cut,
  // never edge 5; the blue-chain edges come first, then the cut in pair
  // order.
  EXPECT_EQ(ChainSelection(graph, colors),
            (std::vector<EdgeId>{0, 1, 4, 2, 3}));
}

TEST(ChainMinCutTest, SelectionIsSound) {
  // Property: for random colorings of the Figure-1 graph, the selected edges
  // are always enough to determine all answers — i.e. every complete BLUE
  // chain consists of selected blue edges, and every non-blue chain contains
  // a selected RED edge.
  QueryGraph graph = testing_util::MakeFigure1Chain();
  for (uint64_t mask = 0; mask < 64; ++mask) {
    // Color the 3 pred-1 edges and 3 of the pred-0 edges from the mask.
    std::vector<EdgeColor> colors(static_cast<size_t>(graph.num_edges()),
                                  EdgeColor::kBlue);
    int bit = 0;
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (graph.edge(e).pred == 1 || graph.vertex(graph.edge(e).u).row == 0) {
        if (bit < 6) {
          colors[static_cast<size_t>(e)] =
              (mask >> bit) & 1 ? EdgeColor::kBlue : EdgeColor::kRed;
          ++bit;
        }
      }
    }
    SplitSelection sel = ChainSelect(graph, colors);
    std::set<EdgeId> selected = sel.blue_chain;
    selected.insert(sel.cut.begin(), sel.cut.end());
    // Enumerate all chains (t1, t2, t3) and check coverage.
    for (int64_t a = 0; a < 3; ++a) {
      for (int64_t b = 0; b < 3; ++b) {
        for (int64_t c = 0; c < 3; ++c) {
          VertexId va = graph.FindVertex(0, a);
          VertexId vb = graph.FindVertex(1, b);
          VertexId vc = graph.FindVertex(2, c);
          EdgeId e0 = FindEdgeBetween(graph, va, vb, 0);
          EdgeId e1 = vb == kNoVertex || vc == kNoVertex
                          ? kNoEdge
                          : FindEdgeBetween(graph, vb, vc, 1);
          if (e0 == kNoEdge || e1 == kNoEdge) continue;
          bool all_blue = colors[static_cast<size_t>(e0)] == EdgeColor::kBlue &&
                          colors[static_cast<size_t>(e1)] == EdgeColor::kBlue;
          if (all_blue) {
            EXPECT_TRUE(selected.count(e0) && selected.count(e1))
                << "answer chain not fully asked, mask=" << mask;
          } else {
            bool refuted =
                (selected.count(e0) && colors[static_cast<size_t>(e0)] == EdgeColor::kRed) ||
                (selected.count(e1) && colors[static_cast<size_t>(e1)] == EdgeColor::kRed);
            EXPECT_TRUE(refuted) << "non-answer chain not refuted, mask=" << mask;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cdb
