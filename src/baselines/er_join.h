// Crowdsourced entity-resolution join baselines (Section 6.1):
//   Trans [Wang et al., SIGMOD'13] — exploits transitivity in both
//     directions: tuples in one cluster match; clusters recorded as
//     non-matching stay apart. Saves many questions but one wrong answer
//     poisons whole clusters, so quality degrades sharply.
//   ACD [Wang et al., SIGMOD'15] — correlation-clustering flavored: only
//     positive transitivity is trusted; non-matches are always verified with
//     the crowd. Costs more than Trans, errs less.
//
// Both process one join at a time (ordered by the cost-based policy) through
// ResolveByTransitivity (graph/propagation.h) and need several rounds per
// join, because a pair can only be asked once the answers that might infer
// it are in — the paper observes ~5x the rounds of the graph-based methods.
#ifndef CDB_BASELINES_ER_JOIN_H_
#define CDB_BASELINES_ER_JOIN_H_

#include "baselines/join_order.h"
#include "exec/session.h"

namespace cdb {

enum class ErMethod { kTrans, kAcd };

const char* ErMethodName(ErMethod method);

struct ErExecutorOptions {
  ErMethod method = ErMethod::kTrans;
  GraphOptions graph;
  PlatformOptions platform;
};

class ErJoinExecutor {
 public:
  ErJoinExecutor(const ResolvedQuery* query, const ErExecutorOptions& options,
                 EdgeTruthFn truth);

  Result<ExecutionResult> Run();

  const QueryGraph& graph() const { return graph_; }

 private:
  const ResolvedQuery* query_;
  ErExecutorOptions options_;
  EdgeTruthFn truth_;
  QueryGraph graph_;
};

}  // namespace cdb

#endif  // CDB_BASELINES_ER_JOIN_H_
