// Dinic's max-flow algorithm. Used to compute the min cut of the Lemma-1
// flow network (Section 5.1.1): blue edges get infinite capacity, red edges
// capacity 1, so the min cut is the smallest set of RED edges refuting every
// alternative chain.
//
// Arcs live in a flat array and per-node adjacency is a CSR index built
// count-then-fill on first Compute(). The blocking-flow DFS walks each
// node's arcs in reverse insertion order. Which maximum flow it finds does
// not change the reported min cut: every maximum flow leaves the same nodes
// reachable from s in the residual network (SourceSideInto). Reset() and
// the CSR build, BFS and source-side passes reuse every buffer's capacity,
// so a caller running many flows of similar size (the per-sample selection
// loop) allocates only on the first.
#ifndef CDB_FLOW_DINIC_H_
#define CDB_FLOW_DINIC_H_

#include <cstdint>
#include <vector>

namespace cdb {

class MaxFlow {
 public:
  explicit MaxFlow(int num_nodes = 0) : num_nodes_(num_nodes) {}

  // Drops all nodes and arcs and starts over with `num_nodes` nodes, keeping
  // the underlying buffer capacity (reset-not-rebuild).
  void Reset(int num_nodes);

  int num_nodes() const { return num_nodes_; }

  // Adds a node and returns its id.
  int AddNode() { return num_nodes_++; }

  // Adds a directed arc with the given capacity; returns the arc id. The
  // reverse (residual) arc is id ^ 1.
  int AddArc(int from, int to, int64_t capacity);

  // Runs Dinic from s to t; returns the max-flow value. May be called once
  // per Reset().
  int64_t Compute(int s, int t);

  // After Compute: marks the nodes reachable from s in the residual network
  // in a caller-reused buffer, resized to num_nodes with values 0/1. The set
  // is the source side of the minimum cut closest to s, the same for every
  // maximum flow.
  void SourceSideInto(int s, std::vector<uint8_t>* reachable);

  int arc_from(int id) const { return arcs_[id ^ 1].to; }
  int arc_to(int id) const { return arcs_[id].to; }
  int64_t arc_capacity(int id) const { return arcs_[id].original_capacity; }
  int64_t arc_flow(int id) const {
    return arcs_[id].original_capacity - arcs_[id].capacity;
  }

 private:
  struct Arc {
    int to = 0;
    int64_t capacity = 0;
    int64_t original_capacity = 0;
  };

  // Builds the CSR adjacency (arc ids per node, insertion order).
  void BuildIndex();
  [[nodiscard]] bool Bfs(int s, int t);
  int64_t Dfs(int v, int t, int64_t limit);

  int num_nodes_ = 0;
  bool indexed_ = false;
  std::vector<Arc> arcs_;
  // CSR: arc ids out of node v are csr_arcs_[node_offsets_[v] ..
  // node_offsets_[v + 1]), ascending id = insertion order. The DFS walks
  // them descending to match the legacy head-inserted list.
  std::vector<uint32_t> node_offsets_;
  std::vector<int32_t> csr_arcs_;
  std::vector<uint32_t> cursor_;  // Per-node fill position during the build.
  std::vector<int32_t> level_;
  // Per-node DFS cursor: absolute index into csr_arcs_, walked downward.
  std::vector<int32_t> iter_;
  std::vector<int32_t> queue_;  // BFS queue of Bfs and SourceSideInto.
};

}  // namespace cdb

#endif  // CDB_FLOW_DINIC_H_
