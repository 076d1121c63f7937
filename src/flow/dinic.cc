#include "flow/dinic.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cdb {

void MaxFlow::Reset(int num_nodes) {
  num_nodes_ = num_nodes;
  indexed_ = false;
  arcs_.clear();
}

int MaxFlow::AddArc(int from, int to, int64_t capacity) {
  CDB_DCHECK(from >= 0 && from < num_nodes_);
  CDB_DCHECK(to >= 0 && to < num_nodes_);
  CDB_DCHECK(capacity >= 0);
  CDB_DCHECK(!indexed_);
  int id = static_cast<int>(arcs_.size());
  arcs_.push_back(Arc{to, capacity, capacity});
  arcs_.push_back(Arc{from, 0, 0});
  return id;
}

void MaxFlow::BuildIndex() {
  // Count-then-fill; filling in ascending arc id keeps each node's arcs in
  // insertion order.
  node_offsets_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  for (size_t id = 0; id < arcs_.size(); ++id) {
    ++node_offsets_[static_cast<size_t>(arcs_[id ^ 1].to) + 1];
  }
  for (int v = 0; v < num_nodes_; ++v) {
    node_offsets_[v + 1] += node_offsets_[v];
  }
  csr_arcs_.resize(arcs_.size());
  cursor_.assign(node_offsets_.begin(), node_offsets_.end() - 1);
  for (size_t id = 0; id < arcs_.size(); ++id) {
    csr_arcs_[cursor_[arcs_[id ^ 1].to]++] = static_cast<int32_t>(id);
  }
  indexed_ = true;
}

bool MaxFlow::Bfs(int s, int t) {
  level_.assign(num_nodes_, -1);
  queue_.clear();
  queue_.push_back(s);
  level_[s] = 0;
  for (size_t headi = 0; headi < queue_.size(); ++headi) {
    int v = queue_[headi];
    for (uint32_t i = node_offsets_[v]; i < node_offsets_[v + 1]; ++i) {
      const Arc& arc = arcs_[csr_arcs_[i]];
      if (arc.capacity > 0 && level_[arc.to] == -1) {
        level_[arc.to] = level_[v] + 1;
        queue_.push_back(arc.to);
      }
    }
  }
  return level_[t] != -1;
}

int64_t MaxFlow::Dfs(int v, int t, int64_t limit) {
  if (v == t) return limit;
  // Walk arcs in reverse insertion order (legacy head-inserted list order).
  // On a successful push the cursor stays on the arc so it is retried first
  // next time, exactly as the legacy `for (int& a = iter_[v]; ...)` loop
  // returned without advancing.
  for (int32_t& i = iter_[v]; i >= static_cast<int32_t>(node_offsets_[v]); --i) {
    const int a = csr_arcs_[i];
    Arc& arc = arcs_[a];
    if (arc.capacity <= 0 || level_[arc.to] != level_[v] + 1) continue;
    int64_t pushed = Dfs(arc.to, t, std::min(limit, arc.capacity));
    if (pushed > 0) {
      arc.capacity -= pushed;
      arcs_[a ^ 1].capacity += pushed;
      return pushed;
    }
  }
  return 0;
}

int64_t MaxFlow::Compute(int s, int t) {
  CDB_CHECK_NE(s, t);
  if (!indexed_) BuildIndex();
  int64_t flow = 0;
  while (Bfs(s, t)) {
    iter_.resize(num_nodes_);
    for (int v = 0; v < num_nodes_; ++v) {
      iter_[v] = static_cast<int32_t>(node_offsets_[v + 1]) - 1;
    }
    while (true) {
      int64_t pushed = Dfs(s, t, std::numeric_limits<int64_t>::max());
      if (pushed == 0) break;
      flow += pushed;
    }
  }
  return flow;
}

void MaxFlow::SourceSideInto(int s, std::vector<uint8_t>* reachable) {
  CDB_DCHECK(indexed_);
  reachable->assign(num_nodes_, 0);
  queue_.clear();
  queue_.push_back(s);
  (*reachable)[s] = 1;
  for (size_t headi = 0; headi < queue_.size(); ++headi) {
    int v = queue_[headi];
    for (uint32_t i = node_offsets_[v]; i < node_offsets_[v + 1]; ++i) {
      const Arc& arc = arcs_[csr_arcs_[i]];
      if (arc.capacity > 0 && !(*reachable)[arc.to]) {
        (*reachable)[arc.to] = 1;
        queue_.push_back(arc.to);
      }
    }
  }
}

}  // namespace cdb
