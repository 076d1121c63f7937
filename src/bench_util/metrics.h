// Evaluation metrics (Section 6.1): cost is #tasks, latency is #rounds, and
// quality is the F-measure of returned tuples against the ground truth
// computed directly from entity links (independent of the graph and its
// epsilon pruning, so similarity-threshold misses count against recall).
#ifndef CDB_BENCH_UTIL_METRICS_H_
#define CDB_BENCH_UTIL_METRICS_H_

#include <vector>

#include "cql/analyzer.h"
#include "datagen/dataset.h"
#include "exec/session.h"

namespace cdb {

struct PrecisionRecall {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  int64_t returned = 0;
  int64_t correct = 0;
  int64_t truth = 0;
};

PrecisionRecall ComputeF1(const std::vector<QueryAnswer>& returned,
                          const std::vector<QueryAnswer>& truth);

// Evaluates the query purely on ground-truth entity links (exact hash joins
// over entity ids): the reference answer set.
std::vector<QueryAnswer> TrueAnswers(const GeneratedDataset& dataset,
                                     const ResolvedQuery& query);

// The simulation oracle for executors: an edge's task is truly "yes" iff the
// entities behind the two cells agree (or, for selections, the cell's entity
// is the constant's entity).
EdgeTruthFn MakeEdgeTruth(const GeneratedDataset* dataset,
                          const ResolvedQuery* query);

}  // namespace cdb

#endif  // CDB_BENCH_UTIL_METRICS_H_
