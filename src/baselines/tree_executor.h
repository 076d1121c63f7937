// The tree (table-level) query model used by CrowdDB, Qurk, Deco and the
// OptTree oracle: predicates execute in a chosen order; each predicate asks
// every pair of semi-join-surviving tuples in one crowdsourcing round, so the
// number of rounds equals the number of predicates. This is the
// coarse-grained model the paper's graph model is compared against.
#ifndef CDB_BASELINES_TREE_EXECUTOR_H_
#define CDB_BASELINES_TREE_EXECUTOR_H_

#include "baselines/join_order.h"
#include "exec/session.h"

namespace cdb {

struct TreeExecutorOptions {
  TreePolicy policy = TreePolicy::kDeco;
  GraphOptions graph;
  PlatformOptions platform;
};

class TreeModelExecutor {
 public:
  TreeModelExecutor(const ResolvedQuery* query,
                    const TreeExecutorOptions& options, EdgeTruthFn truth);

  Result<ExecutionResult> Run();

  const QueryGraph& graph() const { return graph_; }

 private:
  const ResolvedQuery* query_;
  TreeExecutorOptions options_;
  EdgeTruthFn truth_;
  QueryGraph graph_;
};

}  // namespace cdb

#endif  // CDB_BASELINES_TREE_EXECUTOR_H_
