// Shared fixtures for the CDB test suite: hand-built graphs mirroring the
// paper's worked examples, and truth oracles for synthetic graphs.
#ifndef CDB_TESTS_TEST_UTIL_H_
#define CDB_TESTS_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cost/structure_cache.h"
#include "exec/executor.h"
#include "graph/query_graph.h"

namespace cdb {
namespace testing_util {

// FNV-1a 64 over 64-bit words: the digest golden tests pin outputs with.
class BitDigest {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const std::string& s) {
    for (char c : s) Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// A chain query U(0) - R(1) - P(2) - C(3) with predicates
//   pred 0: U-R, pred 1: R-P, pred 2: P-C,
// reproducing the local neighborhood of the paper's Figure 4 around paper
// p1: edges (u1,r1) (u2,r1) (u1,r2) (u2,r2) (u3,r3), (r1,p1) w=.42,
// (r2,p1) w=.41, (r3,p1) w=.83, and (p1,c1) w=.9.
inline QueryGraph MakeFigure4Neighborhood() {
  std::vector<PredicateInfo> preds = {
      {true, false, 0, 1},  // U-R
      {true, false, 1, 2},  // R-P
      {true, false, 2, 3},  // P-C
  };
  std::vector<QueryGraph::SyntheticEdge> edges = {
      {0, /*u*/ 1, /*r*/ 1, 0.6},  {0, 2, 1, 0.6}, {0, 1, 2, 0.6},
      {0, 2, 2, 0.6},              {0, 3, 3, 0.6},
      {1, /*r*/ 1, /*p*/ 1, 0.42}, {1, 2, 1, 0.41}, {1, 3, 1, 0.83},
      {2, /*p*/ 1, /*c*/ 1, 0.9},
  };
  return QueryGraph::MakeSynthetic(4, preds, edges);
}

// The Figure-1 motivating example shape: a 3-table chain T1-T2-T3 where the
// cross-table pairs are dense but only a few edges are truly BLUE, so
// tuple-level selection can refute everything with a handful of RED asks
// while any table-level order asks many more.
//
// Layout: T1 has 3 rows, T2 has 3 rows, T3 has 3 rows; pred 0 joins T1-T2
// fully (9 edges), pred 1 joins T2-T3 with edges only from T2 row 0 to all
// of T3 (3 edges). Truth: pred-1 edges all RED => no answers; the optimal
// strategy asks the 3 pred-1 edges.
inline QueryGraph MakeFigure1Chain() {
  std::vector<PredicateInfo> preds = {
      {true, false, 0, 1},
      {true, false, 1, 2},
  };
  std::vector<QueryGraph::SyntheticEdge> edges;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) edges.push_back({0, a, b, 0.6});
  }
  for (int c = 0; c < 3; ++c) edges.push_back({1, 0, c, 0.4});
  return QueryGraph::MakeSynthetic(3, preds, edges);
}

// One-shot known-color selection through a freshly built StructureCache.
inline std::vector<EdgeId> SelectKnownColors(
    const QueryGraph& graph, const std::vector<EdgeColor>& colors) {
  const StructureCache cache = StructureCache::Build(graph);
  SelectionArena arena;
  std::vector<EdgeId> out;
  SelectTasksKnownColors(graph, colors, cache, &arena, &out);
  return out;
}

// Truth oracle for synthetic graphs: edges listed in `blue` (as
// (pred, left_row, right_row) triples) are true matches, everything else is
// false.
inline EdgeTruthFn TruthFromSet(
    std::set<std::tuple<int, int64_t, int64_t>> blue) {
  return [blue = std::move(blue)](const QueryGraph& graph, EdgeId e) {
    const GraphEdge& edge = graph.edge(e);
    return blue.count({edge.pred, graph.vertex(edge.u).row,
                       graph.vertex(edge.v).row}) > 0;
  };
}

// Truth oracle that colors every edge by a fixed vector (index = EdgeId).
inline EdgeTruthFn TruthFromColors(std::vector<EdgeColor> colors) {
  return [colors = std::move(colors)](const QueryGraph&, EdgeId e) {
    return colors[static_cast<size_t>(e)] == EdgeColor::kBlue;
  };
}

}  // namespace testing_util
}  // namespace cdb

#endif  // CDB_TESTS_TEST_UTIL_H_
