// The budget baseline of Section 6.3.3: pick the highest-probability edge
// out of the first table (with respect to the best table order) and extend
// it depth-first, always following the highest-weight remaining edge, asking
// each edge as it is traversed, until the budget runs out. Compared against
// CDB's candidate-expectation budget mode in Figures 18-19.
#ifndef CDB_BASELINES_BUDGET_BASELINE_H_
#define CDB_BASELINES_BUDGET_BASELINE_H_

#include "exec/session.h"

namespace cdb {

struct BudgetBaselineOptions {
  int64_t budget = 100;
  GraphOptions graph;
  PlatformOptions platform;
};

class BudgetBaselineExecutor {
 public:
  BudgetBaselineExecutor(const ResolvedQuery* query,
                         const BudgetBaselineOptions& options,
                         EdgeTruthFn truth);

  Result<ExecutionResult> Run();

  const QueryGraph& graph() const { return graph_; }

 private:
  const ResolvedQuery* query_;
  BudgetBaselineOptions options_;
  EdgeTruthFn truth_;
  QueryGraph graph_;
};

}  // namespace cdb

#endif  // CDB_BASELINES_BUDGET_BASELINE_H_
