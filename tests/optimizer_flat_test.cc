// Checks of the optimizer data layouts and the known-color selection
// (`ctest -L optimizer`):
//
//   * the CSR incidence index and SoA edge columns of QueryGraph agree with
//     the edge accessor,
//   * the known-color selection (StructureCache skeletons, FlowArena/Dinic
//     scratch) is sufficient on every join shape and minimum on chains,
//     stars and chains with parallel predicates, against brute force over
//     every edge subset of small graphs,
//   * the Lemma-1 selection equals the cut read off the full flow network
//     by an Edmonds–Karp reference, on graphs of up to 40 tuples per
//     relation,
//   * the selections, the SampleMinCutOrder order and whole sessions equal
//     digests recorded from the rebuild-per-call selection the cached path
//     replaced, at 1 and 8 threads. Tests that compare with those
//     recordings keep that selection's "legacy" name.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util/metrics.h"
#include "common/random.h"
#include "cost/known_color.h"
#include "cost/sampling.h"
#include "cost/structure_cache.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "exec/session.h"
#include "flow/dinic.h"
#include "flow/min_cut.h"
#include "graph/query_graph.h"
#include "graph/structure.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

enum class Shape {
  kChain,
  kStar,
  kStarParallel,
  kTree,
  kCyclic,
  kChainParallel
};

// The shapes the recorded digests cover (indexed by enum value).
const Shape kAllShapes[] = {Shape::kChain, Shape::kStar, Shape::kStarParallel,
                            Shape::kTree, Shape::kCyclic};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kChain:
      return "chain";
    case Shape::kStar:
      return "star";
    case Shape::kStarParallel:
      return "star-parallel";
    case Shape::kTree:
      return "tree";
    case Shape::kCyclic:
      return "cyclic";
    case Shape::kChainParallel:
      return "chain-parallel";
  }
  return "?";
}

// A random synthetic graph of the given relation-level shape: every
// predicate gets a random bipartite edge set (each tuple pair an edge with
// probability `density`) with weights in [0.3, 0.95). Deterministic in
// (shape, seed, size, density).
QueryGraph MakeShapeGraph(Shape shape, uint64_t seed, int size,
                          double density = 0.5) {
  std::vector<PredicateInfo> preds;
  switch (shape) {
    case Shape::kChain:
      preds = {{true, false, 0, 1}, {true, false, 1, 2}, {true, false, 2, 3}};
      break;
    case Shape::kStar:
      preds = {{true, false, 0, 1}, {true, false, 0, 2}, {true, false, 0, 3}};
      break;
    case Shape::kStarParallel:
      // Two parallel predicates on the 0-1 pair exercise the multi-member
      // units of the star rule. Parallel predicates collapse into one group,
      // so three distinct leaves are needed to stay a star (two groups would
      // classify as a chain).
      preds = {{true, false, 0, 1},
               {true, false, 0, 1},
               {true, false, 0, 2},
               {true, false, 0, 3}};
      break;
    case Shape::kTree:
      preds = {{true, false, 0, 1},
               {true, false, 1, 2},
               {true, false, 2, 3},
               {true, false, 2, 4}};
      break;
    case Shape::kCyclic:
      preds = {{true, false, 0, 1}, {true, false, 1, 2}, {true, false, 2, 0}};
      break;
    case Shape::kChainParallel:
      // Two parallel predicates on the 1-2 pair: one group, so still a
      // chain, whose layer pairs have two member edges.
      preds = {{true, false, 0, 1},
               {true, false, 1, 2},
               {true, false, 1, 2},
               {true, false, 2, 3}};
      break;
  }
  Rng rng(seed, static_cast<uint64_t>(shape));
  std::vector<QueryGraph::SyntheticEdge> edges;
  for (int p = 0; p < static_cast<int>(preds.size()); ++p) {
    bool any = false;
    for (int a = 0; a < size; ++a) {
      for (int b = 0; b < size; ++b) {
        if (!rng.Bernoulli(density)) continue;
        any = true;
        edges.push_back({p, a, b, rng.Uniform(0.3, 0.95)});
      }
    }
    // Every predicate needs at least one edge so the relation-level shape is
    // the intended one.
    if (!any) edges.push_back({p, 0, 0, rng.Uniform(0.3, 0.95)});
  }
  int num_rels = 0;
  for (const PredicateInfo& info : preds) {
    num_rels = std::max({num_rels, info.left_rel + 1, info.right_rel + 1});
  }
  return QueryGraph::MakeSynthetic(num_rels, preds, edges);
}

// Adds one edge sequence (its length, then the ids in order) to `digest`.
void AddEdges(testing_util::BitDigest& digest,
              const std::vector<EdgeId>& edges) {
  digest.Add(static_cast<int64_t>(edges.size()));
  for (EdgeId e : edges) digest.Add(static_cast<int64_t>(e));
}

std::vector<EdgeColor> RandomFullColoring(const QueryGraph& graph, Rng& rng) {
  std::vector<EdgeColor> colors(static_cast<size_t>(graph.num_edges()));
  for (auto& c : colors) {
    c = rng.Bernoulli(0.5) ? EdgeColor::kBlue : EdgeColor::kRed;
  }
  return colors;
}

TEST(ShapeGraphTest, ClassifiesAsIntended) {
  auto classify = [](Shape shape) {
    QueryGraph graph = MakeShapeGraph(shape, 7, 5);
    return Classify(BuildRelGraph(graph));
  };
  EXPECT_EQ(classify(Shape::kChain), JoinStructure::kChain);
  EXPECT_EQ(classify(Shape::kStar), JoinStructure::kStar);
  EXPECT_EQ(classify(Shape::kStarParallel), JoinStructure::kStar);
  EXPECT_EQ(classify(Shape::kChainParallel), JoinStructure::kChain);
  EXPECT_EQ(classify(Shape::kTree), JoinStructure::kTree);
  EXPECT_EQ(classify(Shape::kCyclic), JoinStructure::kCyclic);
}

// --- CSR incidence invariants -------------------------------------------

// The CSR postings must reproduce the legacy nested-vector emission order:
// per (vertex, predicate) slot, ascending edge id (AddEdge appended ids in
// increasing order), and each edge appears in exactly its two endpoint
// slots.
TEST(QueryGraphFlatTest, CsrIncidenceMatchesLegacyEmissionOrder) {
  for (Shape shape : kAllShapes) {
    SCOPED_TRACE(ShapeName(shape));
    QueryGraph graph = MakeShapeGraph(shape, 11, 6);
    int64_t total_postings = 0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (int p = 0; p < graph.num_predicates(); ++p) {
        // Brute-force expectation from the SoA columns, in edge-id order —
        // the order the legacy incident_[v][p] push_backs produced.
        std::vector<EdgeId> expected;
        for (EdgeId e = 0; e < graph.num_edges(); ++e) {
          if (graph.edge_pred(e) != p) continue;
          if (graph.edge_u(e) == v) expected.push_back(e);
          if (graph.edge_v(e) == v) expected.push_back(e);
        }
        EdgeSpan span = graph.IncidentEdges(v, p);
        ASSERT_EQ(std::vector<EdgeId>(span.begin(), span.end()), expected);
        total_postings += static_cast<int64_t>(span.size());
      }
    }
    EXPECT_EQ(total_postings, 2 * static_cast<int64_t>(graph.num_edges()));
  }
}

TEST(QueryGraphFlatTest, AppendIncidentEdgesMatchesAllIncidentEdges) {
  QueryGraph graph = MakeShapeGraph(Shape::kTree, 3, 6);
  std::vector<EdgeId> buffer = {kNoEdge};  // Pre-existing content survives.
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    std::vector<EdgeId> fresh = graph.AllIncidentEdges(v);
    // AllIncidentEdges is the concatenation over predicates.
    std::vector<EdgeId> concat;
    for (int p = 0; p < graph.num_predicates(); ++p) {
      EdgeSpan span = graph.IncidentEdges(v, p);
      concat.insert(concat.end(), span.begin(), span.end());
    }
    EXPECT_EQ(fresh, concat);
    size_t before = buffer.size();
    graph.AppendIncidentEdges(v, &buffer);
    EXPECT_EQ(std::vector<EdgeId>(buffer.begin() + before, buffer.end()),
              fresh);
  }
  EXPECT_EQ(buffer.front(), kNoEdge);
}

TEST(QueryGraphFlatTest, RelationPositionMatchesVertexLists) {
  for (Shape shape : kAllShapes) {
    QueryGraph graph = MakeShapeGraph(shape, 5, 6);
    for (int rel = 0; rel < graph.num_relations(); ++rel) {
      const std::vector<VertexId>& vs = graph.relation_vertices(rel);
      for (size_t i = 0; i < vs.size(); ++i) {
        EXPECT_EQ(graph.relation_position(vs[i]), static_cast<int32_t>(i));
        EXPECT_EQ(graph.vertex(vs[i]).rel, rel);
      }
    }
  }
}

TEST(QueryGraphFlatTest, SoAColumnsAgreeWithEdgeAccessor) {
  QueryGraph graph = MakeShapeGraph(Shape::kCyclic, 17, 6);
  graph.SetColor(0, EdgeColor::kRed);
  graph.SetColor(1, EdgeColor::kBlue);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const GraphEdge& edge = graph.edge(e);
    EXPECT_EQ(edge.u, graph.edge_u(e));
    EXPECT_EQ(edge.v, graph.edge_v(e));
    EXPECT_EQ(edge.pred, graph.edge_pred(e));
    EXPECT_EQ(edge.weight, graph.edge_weight(e));
    EXPECT_EQ(edge.color, graph.edge_color(e));
    EXPECT_EQ(edge.is_crowd, graph.edge_is_crowd(e));
    EXPECT_EQ(static_cast<EdgeColor>(graph.edge_colors()[e]), edge.color);
    EXPECT_EQ(graph.edge_weights()[e], edge.weight);
  }
}

// --- Known-color selection: recorded legacy outputs ---------------------

TEST(StructureCacheTest, SelectTasksKnownColorsMatchesLegacy) {
  // Digest of the 25 trials' selections per shape (rows, kAllShapes order)
  // and seed (columns: 1, 2, 3), recorded from the legacy selection.
  constexpr uint64_t kGoldens[5][3] = {
      {0xf9df2cf119e32969ULL, 0x746ebb7e31dc4e3aULL, 0x6f1868278bb44157ULL},
      {0xc51cda1db51ed897ULL, 0xcaec6e500ac38d68ULL, 0xc4807a02699ca654ULL},
      {0x8ad087fa4669aed0ULL, 0x9477b97a71fd9eceULL, 0x33735a53c8f7fca7ULL},
      {0x1076a4ef30d532d0ULL, 0xf9ed48d69c6efce8ULL, 0xc69718daf8cdacffULL},
      {0x49ad85cede783497ULL, 0xa3624131f7e622acULL, 0x02c218d803ed27e0ULL},
  };
  for (Shape shape : kAllShapes) {
    SCOPED_TRACE(ShapeName(shape));
    for (uint64_t seed : {1u, 2u, 3u}) {
      QueryGraph graph = MakeShapeGraph(shape, seed, 6);
      StructureCache cache = StructureCache::Build(graph);
      SelectionArena arena;
      Rng rng(seed, 99);
      testing_util::BitDigest digest;
      for (int trial = 0; trial < 25; ++trial) {
        std::vector<EdgeColor> colors = RandomFullColoring(graph, rng);
        std::vector<EdgeId> cached;
        SelectTasksKnownColors(graph, colors, cache, &arena, &cached);
        AddEdges(digest, cached);
      }
      EXPECT_EQ(digest.value(),
                kGoldens[static_cast<int>(shape)][seed - 1])
          << "seed=" << seed << std::hex << " digest 0x" << digest.value();
    }
  }
}

TEST(StructureCacheTest, StarCacheMatchesLegacyStarSelection) {
  for (Shape shape : {Shape::kStar, Shape::kStarParallel}) {
    SCOPED_TRACE(ShapeName(shape));
    QueryGraph graph = MakeShapeGraph(shape, 21, 7);
    RelGraph rel_graph = BuildRelGraph(graph);
    const int center = StarCenter(rel_graph);
    StarCache cache = BuildStarCache(graph, rel_graph, center);
    Rng rng(21, 3);
    std::vector<EdgeId> cached;
    testing_util::BitDigest digest;
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<EdgeColor> colors = RandomFullColoring(graph, rng);
      StarSelection(graph, cache, colors, &cached);
      AddEdges(digest, cached);
    }
    EXPECT_EQ(digest.value(), shape == Shape::kStar ? 0x450311512c075ab5ULL
                                                    : 0x845e4ee3a656031bULL)
        << std::hex << "digest 0x" << digest.value();
  }
}

// The same arena reused across many colorings produces exactly what a fresh
// arena produces — the reset-not-rebuild contract.
TEST(StructureCacheTest, ArenaResetEqualsFresh) {
  for (Shape shape : {Shape::kChain, Shape::kTree, Shape::kCyclic}) {
    SCOPED_TRACE(ShapeName(shape));
    QueryGraph graph = MakeShapeGraph(shape, 31, 6);
    StructureCache cache = StructureCache::Build(graph);
    SelectionArena reused;
    Rng rng(31, 5);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<EdgeColor> colors = RandomFullColoring(graph, rng);
      std::vector<EdgeId> from_reused;
      SelectTasksKnownColors(graph, colors, cache, &reused, &from_reused);
      SelectionArena fresh;
      std::vector<EdgeId> from_fresh;
      SelectTasksKnownColors(graph, colors, cache, &fresh, &from_fresh);
      ASSERT_EQ(from_reused, from_fresh) << "trial=" << trial;
    }
  }
}

TEST(StructureCacheTest, ChainMinCutCachedMatchesLegacyOrdering) {
  for (Shape shape : {Shape::kChain, Shape::kTree, Shape::kCyclic}) {
    SCOPED_TRACE(ShapeName(shape));
    QueryGraph graph = MakeShapeGraph(shape, 41, 6);
    RelGraph rel_graph = BuildRelGraph(graph);
    ChainPlan plan = BuildChainPlan(graph);
    MinCutCache cache = BuildMinCutCache(graph, rel_graph, plan);
    FlowArena arena;
    Rng rng(41, 9);
    testing_util::BitDigest digest;
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<EdgeColor> colors = RandomFullColoring(graph, rng);
      std::vector<EdgeId> cached;
      ChainMinCutSelection(graph, cache, colors, &arena, &cached);
      AddEdges(digest, cached);
    }
    const uint64_t golden = shape == Shape::kChain  ? 0x792c80b2270428d4ULL
                            : shape == Shape::kTree ? 0xeb93db5e0eb8e148ULL
                                                    : 0xdd2cbe65235cafbcULL;
    EXPECT_EQ(digest.value(), golden)
        << std::hex << "digest 0x" << digest.value();
  }
}

// --- Known-color selection vs brute force --------------------------------
//
// The reference shares no code with the selection: it enumerates every
// candidate (one vertex per relation, with an edge for every predicate)
// from the edge columns and searches edge subsets directly.

// One candidate as bitmasks over edge ids: all its edges, and its RED ones.
struct CandidateMask {
  uint32_t edges = 0;
  uint32_t red = 0;
};

std::vector<CandidateMask> CandidateMasks(
    const QueryGraph& graph, const std::vector<EdgeColor>& colors) {
  std::map<std::tuple<int, VertexId, VertexId>, EdgeId> edge_at;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    edge_at[{graph.edge_pred(e), graph.edge_u(e), graph.edge_v(e)}] = e;
  }
  std::vector<CandidateMask> out;
  std::vector<VertexId> pick(static_cast<size_t>(graph.num_relations()));
  std::function<void(int)> extend = [&](int rel) {
    if (rel == graph.num_relations()) {
      CandidateMask candidate;
      for (int p = 0; p < graph.num_predicates(); ++p) {
        const PredicateInfo& info = graph.predicate(p);
        auto it = edge_at.find({p, pick[info.left_rel], pick[info.right_rel]});
        if (it == edge_at.end()) return;
        const uint32_t bit = uint32_t{1} << it->second;
        candidate.edges |= bit;
        if (colors[it->second] == EdgeColor::kRed) candidate.red |= bit;
      }
      out.push_back(candidate);
      return;
    }
    for (VertexId v : graph.relation_vertices(rel)) {
      pick[rel] = v;
      extend(rel + 1);
    }
  };
  extend(0);
  return out;
}

// Asking `asked` settles the answers: every edge of an all-BLUE candidate
// is asked, and every other candidate contains an asked RED edge.
bool Sufficient(const std::vector<CandidateMask>& candidates, uint32_t asked) {
  for (const CandidateMask& c : candidates) {
    if (c.red == 0 ? (c.edges & ~asked) != 0 : (c.red & asked) == 0) {
      return false;
    }
  }
  return true;
}

// Size of a smallest sufficient edge set. Every answer edge must be asked
// and asking a BLUE edge refutes nothing, so a smallest set is the answer
// edges plus a smallest set of RED edges meeting every other candidate; the
// search tries every subset of the RED edges that lie in candidates.
int MinimumSufficientSize(const std::vector<CandidateMask>& candidates) {
  uint32_t answer_edges = 0;
  uint32_t red_edges = 0;
  for (const CandidateMask& c : candidates) {
    if (c.red == 0) answer_edges |= c.edges;
    red_edges |= c.red;
  }
  int best = std::popcount(red_edges);
  for (uint32_t subset = red_edges;; subset = (subset - 1) & red_edges) {
    if (std::popcount(subset) < best &&
        Sufficient(candidates, answer_edges | subset)) {
      best = std::popcount(subset);
    }
    if (subset == 0) break;
  }
  return std::popcount(answer_edges) + best;
}

// Lemma 1 proves the chain min cut optimal, and the star rule picks the
// cheapest all-RED leaf group, so both must hit the brute-force minimum.
// Trees and cycles go through the chain transformation, which duplicates
// relation occurrences, and the star rule with parallel predicates asks
// edges outside every candidate: for those the selection must only be
// sufficient. The selection has no thread knob; it runs serially.
TEST(KnownColorReferenceTest, SufficientOnEveryShapeMinimumOnChainsAndStars) {
  struct ShapeCase {
    Shape shape;
    bool minimum;
  };
  const ShapeCase cases[] = {
      {Shape::kChain, true},
      {Shape::kStar, true},
      {Shape::kChainParallel, true},
      {Shape::kStarParallel, false},
      {Shape::kTree, false},
      {Shape::kCyclic, false},
  };
  for (const ShapeCase& c : cases) {
    SCOPED_TRACE(ShapeName(c.shape));
    int checked = 0;
    for (uint64_t seed = 1; seed <= 400; ++seed) {
      QueryGraph graph = MakeShapeGraph(c.shape, seed, seed % 2 == 0 ? 2 : 3);
      if (graph.num_edges() > 16) continue;
      Rng rng(seed, 5);
      const double blue = 0.3 + 0.2 * static_cast<double>(seed % 3);
      std::vector<EdgeColor> colors(static_cast<size_t>(graph.num_edges()));
      for (EdgeColor& color : colors) {
        color = rng.Bernoulli(blue) ? EdgeColor::kBlue : EdgeColor::kRed;
      }
      const std::vector<EdgeId> selected =
          testing_util::SelectKnownColors(graph, colors);
      uint32_t asked = 0;
      for (EdgeId e : selected) asked |= uint32_t{1} << e;
      ASSERT_EQ(static_cast<size_t>(std::popcount(asked)), selected.size())
          << "duplicate edge, seed=" << seed;
      const std::vector<CandidateMask> candidates =
          CandidateMasks(graph, colors);
      EXPECT_TRUE(Sufficient(candidates, asked)) << "seed=" << seed;
      if (c.minimum) {
        EXPECT_EQ(std::popcount(asked), MinimumSufficientSize(candidates))
            << "seed=" << seed;
      }
      ++checked;
    }
    EXPECT_GE(checked, 200);
  }
}

// --- Lemma-1 selection vs the full network -------------------------------
//
// The reference shares no code with MinCutCache or MaxFlow. It enumerates
// the layer pairs from the chain plan, builds the whole Lemma-1 network of
// one coloring (an occurrence on a complete all-BLUE chain split into an
// incoming and an outgoing node, wired to t and from s; layer 0 wired from
// s and the last layer to t; every pair off the blue chains an arc of
// capacity 1 if RED and infinite otherwise), and solves it with its own
// Edmonds–Karp. Every maximum flow leaves the same nodes reachable from s,
// so the reported cut is fixed whatever the algorithm.

// Edmonds–Karp on adjacency lists; arc i's residual twin is arc i ^ 1.
class EdmondsKarp {
 public:
  explicit EdmondsKarp(int num_nodes) : out_(static_cast<size_t>(num_nodes)) {}

  void AddArc(int from, int to, int64_t capacity) {
    out_[static_cast<size_t>(from)].push_back(arcs_.size());
    arcs_.push_back({to, capacity});
    out_[static_cast<size_t>(to)].push_back(arcs_.size());
    arcs_.push_back({from, 0});
  }

  // Augments along shortest residual paths until t is cut off, then returns
  // the nodes reachable from s in the residual network.
  std::vector<uint8_t> MinCutSourceSide(int s, int t) {
    while (true) {
      const std::vector<size_t> via = ResidualBfs(s);
      if (via[static_cast<size_t>(t)] == kUnreached) {
        std::vector<uint8_t> side(via.size());
        for (size_t v = 0; v < via.size(); ++v) side[v] = via[v] != kUnreached;
        return side;
      }
      int64_t push = std::numeric_limits<int64_t>::max();
      for (int v = t; v != s; v = arcs_[via[static_cast<size_t>(v)] ^ 1].to) {
        push = std::min(push, arcs_[via[static_cast<size_t>(v)]].capacity);
      }
      for (int v = t; v != s; v = arcs_[via[static_cast<size_t>(v)] ^ 1].to) {
        arcs_[via[static_cast<size_t>(v)]].capacity -= push;
        arcs_[via[static_cast<size_t>(v)] ^ 1].capacity += push;
      }
    }
  }

 private:
  struct Arc {
    int to;
    int64_t capacity;
  };
  static constexpr size_t kUnreached = std::numeric_limits<size_t>::max();
  static constexpr size_t kRoot = kUnreached - 1;

  // Per node: the residual arc it was first reached by (kRoot for s).
  std::vector<size_t> ResidualBfs(int s) const {
    std::vector<size_t> via(out_.size(), kUnreached);
    std::vector<int> queue = {s};
    via[static_cast<size_t>(s)] = kRoot;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (size_t a : out_[static_cast<size_t>(queue[head])]) {
        const size_t to = static_cast<size_t>(arcs_[a].to);
        if (arcs_[a].capacity > 0 && via[to] == kUnreached) {
          via[to] = a;
          queue.push_back(arcs_[a].to);
        }
      }
    }
    return via;
  }

  std::vector<std::vector<size_t>> out_;
  std::vector<Arc> arcs_;
};

// The Lemma-1 selection from the full network: edges of the pairs on
// complete all-BLUE chains, then the first RED member of every RED pair that
// leaves the residual source side, each list in pair order, each edge once.
std::vector<EdgeId> FullNetworkSelection(const QueryGraph& graph,
                                         const std::vector<EdgeColor>& colors) {
  const RelGraph rel_graph = BuildRelGraph(graph);
  const ChainPlan plan = BuildChainPlan(graph);
  const size_t m = plan.occ_rel.size();
  if (m < 2) return {};
  // Occurrence (layer i, tuple position k) is index occ_start[i] + k.
  std::vector<size_t> occ_start = {0};
  for (int rel : plan.occ_rel) {
    occ_start.push_back(occ_start.back() + graph.relation_vertices(rel).size());
  }
  const size_t num_occ = occ_start.back();

  // Layer pairs: per boundary, the tuple pairs realizing every predicate of
  // the group, by ascending positions, members in predicate order.
  struct Pair {
    size_t layer;
    size_t a;  // Occurrence in layer `layer`.
    size_t b;  // Occurrence in layer `layer + 1`.
    std::vector<EdgeId> members;
    EdgeId red = kNoEdge;  // First RED member.
  };
  std::vector<Pair> pairs;
  for (size_t i = 0; i + 1 < m; ++i) {
    const std::vector<int>& preds = rel_graph.groups[plan.occ_group[i]].preds;
    std::map<std::pair<size_t, size_t>, std::vector<EdgeId>> by_pos;
    for (int p : preds) {
      for (VertexId v : graph.relation_vertices(plan.occ_rel[i])) {
        for (EdgeId e : graph.IncidentEdges(v, p)) {
          by_pos[{static_cast<size_t>(graph.relation_position(v)),
                  static_cast<size_t>(
                      graph.relation_position(graph.Opposite(e, v)))}]
              .push_back(e);
        }
      }
    }
    for (const auto& [pos, members] : by_pos) {
      if (members.size() != preds.size()) continue;
      Pair pair{i, occ_start[i] + pos.first, occ_start[i + 1] + pos.second,
                members};
      for (EdgeId e : members) {
        if (colors[e] == EdgeColor::kRed) {
          pair.red = e;
          break;
        }
      }
      pairs.push_back(pair);
    }
  }

  // Occurrences reached from layer 0 and reaching layer m - 1 over
  // all-BLUE pairs; an occurrence with both lies on a complete blue chain.
  std::vector<uint8_t> from_first(num_occ, 0);
  std::vector<uint8_t> to_last(num_occ, 0);
  std::fill(from_first.begin(), from_first.begin() + occ_start[1], 1);
  std::fill(to_last.begin() + occ_start[m - 1], to_last.end(), 1);
  for (const Pair& pair : pairs) {
    if (pair.red == kNoEdge && from_first[pair.a]) from_first[pair.b] = 1;
  }
  for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
    if (it->red == kNoEdge && to_last[it->b]) to_last[it->a] = 1;
  }
  auto on_chain = [&](size_t o) { return from_first[o] && to_last[o]; };

  std::vector<EdgeId> out;
  std::vector<uint8_t> taken(static_cast<size_t>(graph.num_edges()), 0);
  auto emit = [&](EdgeId e) {
    if (!taken[e]) {
      taken[e] = 1;
      out.push_back(e);
    }
  };
  std::vector<uint8_t> is_b(pairs.size(), 0);
  int64_t num_red = 0;
  for (size_t pid = 0; pid < pairs.size(); ++pid) {
    const Pair& pair = pairs[pid];
    num_red += pair.red != kNoEdge;
    if (pair.red == kNoEdge && from_first[pair.a] && to_last[pair.b]) {
      is_b[pid] = 1;
      for (EdgeId e : pair.members) emit(e);
    }
  }

  // Nodes: s = 0, t = 1, then per occurrence an incoming node and, on a
  // blue chain, a separate outgoing node.
  const int64_t inf = num_red + 1;
  std::vector<int> in_node(num_occ);
  std::vector<int> out_node(num_occ);
  int num_nodes = 2;
  for (size_t o = 0; o < num_occ; ++o) {
    in_node[o] = num_nodes++;
    out_node[o] = on_chain(o) ? num_nodes++ : in_node[o];
  }
  EdmondsKarp network(num_nodes);
  for (size_t i = 0; i < m; ++i) {
    for (size_t o = occ_start[i]; o < occ_start[i + 1]; ++o) {
      if (i == 0 || on_chain(o)) network.AddArc(0, out_node[o], inf);
      if (i == m - 1 || on_chain(o)) network.AddArc(in_node[o], 1, inf);
    }
  }
  for (size_t pid = 0; pid < pairs.size(); ++pid) {
    const Pair& pair = pairs[pid];
    if (is_b[pid]) continue;
    network.AddArc(out_node[pair.a], in_node[pair.b],
                   pair.red != kNoEdge ? 1 : inf);
  }
  const std::vector<uint8_t> side = network.MinCutSourceSide(0, 1);
  for (size_t pid = 0; pid < pairs.size(); ++pid) {
    const Pair& pair = pairs[pid];
    if (pair.red != kNoEdge && side[static_cast<size_t>(out_node[pair.a])] &&
        !side[static_cast<size_t>(in_node[pair.b])]) {
      emit(pair.red);
    }
  }
  return out;
}

// Graphs far beyond the brute force's 16 edges: every non-star shape at
// 3 to 40 tuples per relation, sparse to dense, mostly RED to mostly BLUE.
TEST(KnownColorReferenceTest, ChainMinCutEqualsFullNetworkReference) {
  const Shape shapes[] = {Shape::kChain, Shape::kChainParallel, Shape::kTree,
                          Shape::kCyclic};
  for (Shape shape : shapes) {
    SCOPED_TRACE(ShapeName(shape));
    int64_t cut_edges = 0;
    for (int size : {3, 8, 20, 40}) {
      for (double density : {0.05, 0.2, 0.5}) {
        for (uint64_t seed = 1; seed <= 10; ++seed) {
          const QueryGraph graph = MakeShapeGraph(shape, seed, size, density);
          const MinCutCache cache = BuildMinCutCache(
              graph, BuildRelGraph(graph), BuildChainPlan(graph));
          FlowArena arena;  // Reused across the colorings.
          Rng rng(seed, static_cast<uint64_t>(size));
          for (double blue : {0.05, 0.5, 0.95}) {
            std::vector<EdgeColor> colors(
                static_cast<size_t>(graph.num_edges()));
            for (EdgeColor& color : colors) {
              color = rng.Bernoulli(blue) ? EdgeColor::kBlue : EdgeColor::kRed;
            }
            std::vector<EdgeId> selected;
            ChainMinCutSelection(graph, cache, colors, &arena, &selected);
            const std::vector<EdgeId> expected =
                FullNetworkSelection(graph, colors);
            ASSERT_EQ(selected, expected)
                << "size=" << size << " density=" << density
                << " seed=" << seed << " blue=" << blue;
            for (EdgeId e : expected) cut_edges += colors[e] == EdgeColor::kRed;
          }
        }
      }
    }
    // The sweep reaches networks whose minimum cuts are not trivial.
    EXPECT_GT(cut_edges, 10000);
  }
}

// --- Dinic reset-not-rebuild --------------------------------------------

TEST(MaxFlowTest, ResetReusesBuffersWithIdenticalResults) {
  // Two different small networks through one reused instance vs fresh ones.
  auto build = [](MaxFlow& flow, int variant) {
    const int s = flow.AddNode();
    const int t = flow.AddNode();
    const int a = flow.AddNode();
    const int b = flow.AddNode();
    flow.AddArc(s, a, 3);
    flow.AddArc(s, b, variant == 0 ? 2 : 5);
    flow.AddArc(a, b, 1);
    flow.AddArc(a, t, 2);
    flow.AddArc(b, t, 4);
    return std::make_pair(s, t);
  };
  MaxFlow reused(0);
  for (int variant : {0, 1, 0, 1}) {
    reused.Reset(0);
    auto [s, t] = build(reused, variant);
    MaxFlow fresh(0);
    auto [fs, ft] = build(fresh, variant);
    EXPECT_EQ(reused.Compute(s, t), fresh.Compute(fs, ft));
    std::vector<uint8_t> reused_side;
    std::vector<uint8_t> fresh_side;
    reused.SourceSideInto(s, &reused_side);
    fresh.SourceSideInto(fs, &fresh_side);
    EXPECT_EQ(reused_side, fresh_side);
  }
}

// --- Sampler: recorded legacy orders, serial vs parallel ----------------

TEST(SamplerIdentityTest, LegacyVsFlatAcrossShapesSeedsThreads) {
  // Digest of the sampler's order per shape (rows, kAllShapes order) and
  // seed (columns: 1, 7), recorded from the legacy selection.
  constexpr uint64_t kGoldens[5][2] = {
      {0xb81c8f29e7d6bc18ULL, 0xf3164a26643e319fULL},
      {0xc80f1bca9455cfd6ULL, 0x6fa910f826977702ULL},
      {0x8566a12d8c89ae43ULL, 0xd34bad7b14bc8c87ULL},
      {0x02945178116bc512ULL, 0xfa397eace6a22ad6ULL},
      {0xc7c97c424fe4ce22ULL, 0xb411c2f2576ac3faULL},
  };
  for (Shape shape : kAllShapes) {
    SCOPED_TRACE(ShapeName(shape));
    for (uint64_t seed : {1u, 7u}) {
      QueryGraph graph = MakeShapeGraph(shape, seed, 6);
      // Pre-color a few edges so samples mix known and unknown colors.
      if (graph.num_edges() >= 4) {
        graph.SetColor(0, EdgeColor::kBlue);
        graph.SetColor(graph.num_edges() / 2, EdgeColor::kRed);
      }
      for (int threads : {1, 8}) {
        SamplingOptions options;
        options.num_samples = 40;
        options.seed = seed * 1000 + 17;
        options.num_threads = threads;
        std::vector<EdgeId> order = SampleMinCutOrder(graph, options);
        // A caller-built cache changes nothing.
        StructureCache cache = StructureCache::Build(graph);
        ASSERT_EQ(SampleMinCutOrder(graph, options, &cache), order);
        testing_util::BitDigest digest;
        AddEdges(digest, order);
        EXPECT_EQ(digest.value(),
                  kGoldens[static_cast<int>(shape)][seed == 1 ? 0 : 1])
            << "threads=" << threads << " seed=" << seed << std::hex
            << " digest 0x" << digest.value();
      }
    }
  }
}

// --- Session-level recorded outcomes ------------------------------------

std::string ColorDump(const QueryGraph& graph) {
  std::string out;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    switch (graph.edge(e).color) {
      case EdgeColor::kBlue:
        out += 'B';
        break;
      case EdgeColor::kRed:
        out += 'R';
        break;
      default:
        out += '?';
        break;
    }
  }
  return out;
}

ResolvedQuery ResolveQuery(const GeneratedDataset& ds, const std::string& cql) {
  Statement stmt = ParseStatement(cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), ds.catalog).value();
}

// What a session run is pinned to: digests of the color dump, the answers
// and the round sizes, plus the task and round counts.
struct SessionGolden {
  uint64_t colors;
  uint64_t answers;
  int64_t tasks;
  int64_t rounds;
  uint64_t round_sizes;
};

testing_util::BitDigest AnswersDigest(const std::vector<QueryAnswer>& answers) {
  testing_util::BitDigest digest;
  digest.Add(static_cast<int64_t>(answers.size()));
  for (const QueryAnswer& answer : answers) {
    digest.Add(static_cast<int64_t>(answer.rows.size()));
    for (int64_t row : answer.rows) digest.Add(row);
  }
  return digest;
}

// Full pipeline: a sampling session ends in the colors, answers and round
// structure recorded from runs whose sampler used the legacy
// rebuild-per-sample selection — clean and hostile crowds, 1 and 8 threads.
TEST(SamplerIdentityTest, SessionColorOutcomesLegacyVsFlat) {
  // Clean crowd, then hostile crowd.
  constexpr SessionGolden kGoldens[2] = {
      {0xa77557b818711b17ULL, 0xc4e2fabc96363d2aULL, 27, 2,
       0xeed9190a05061fdeULL},
      {0xddfa13786c621d1aULL, 0x8941fdf3de3e5043ULL, 34, 3,
       0xa79502db6fb30039ULL},
  };
  GeneratedDataset dataset = MakeMiniPaperExample();
  ResolvedQuery query = ResolveQuery(dataset, kMiniExampleQuery);
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  for (bool hostile : {false, true}) {
    SCOPED_TRACE(hostile ? "hostile" : "clean");
    for (int threads : {1, 8}) {
      ExecutorOptions options;
      options.cost_method = CostMethod::kSampling;
      options.sampling_samples = 30;
      options.platform.worker_quality_mean = 0.85;
      options.platform.redundancy = 3;
      options.platform.seed = 99;
      options.num_threads = threads;
      options.graph.num_threads = threads;
      if (hostile) {
        FaultProfile& fault = options.platform.fault;
        fault.abandon_prob = 0.25;
        fault.straggler_prob = 0.2;
        fault.straggler_delay_ticks = 6;
        fault.duplicate_prob = 0.1;
        fault.no_show_prob = 0.15;
        fault.task_deadline_ticks = 8;
      }

      QuerySession session(&query, options, truth);
      ExecutionResult result = session.RunToCompletion().value();

      const SessionGolden& golden = kGoldens[hostile ? 1 : 0];
      testing_util::BitDigest colors;
      colors.Add(ColorDump(session.graph()));
      testing_util::BitDigest round_sizes;
      for (int64_t size : result.stats.round_sizes) round_sizes.Add(size);
      EXPECT_EQ(colors.value(), golden.colors)
          << "threads=" << threads << std::hex << " digest 0x"
          << colors.value();
      EXPECT_EQ(AnswersDigest(result.answers).value(), golden.answers)
          << "threads=" << threads << std::hex << " digest 0x"
          << AnswersDigest(result.answers).value();
      EXPECT_EQ(result.stats.tasks_asked, golden.tasks)
          << "threads=" << threads;
      EXPECT_EQ(result.stats.rounds, golden.rounds) << "threads=" << threads;
      EXPECT_EQ(round_sizes.value(), golden.round_sizes)
          << "threads=" << threads << std::hex << " digest 0x"
          << round_sizes.value();
    }
  }
}

}  // namespace
}  // namespace cdb
