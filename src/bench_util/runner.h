// Runs one of the nine evaluated methods (Section 6.1's competitor list) on
// a CQL query over a generated dataset, with a simulated crowd, and reports
// the paper's three metrics averaged over repetitions.
#ifndef CDB_BENCH_UTIL_RUNNER_H_
#define CDB_BENCH_UTIL_RUNNER_H_

#include <optional>
#include <string>
#include <vector>

#include "bench_util/metrics.h"
#include "common/status.h"
#include "datagen/dataset.h"
#include "exec/session.h"
#include "graph/query_graph.h"
#include "latency/scheduler.h"

namespace cdb {

enum class Method {
  kCrowdDb,
  kQurk,
  kDeco,
  kOptTree,
  kTrans,
  kAcd,
  kMinCut,
  kCdb,
  kCdbPlus,
};

const char* MethodName(Method method);
std::vector<Method> AllMethods();

struct RunConfig {
  double worker_quality = 0.8;
  LatencyMode latency_mode = LatencyMode::kVertexGreedy;
  double worker_quality_stddev = 0.1;
  int num_workers = 50;
  int redundancy = 5;
  int repetitions = 3;  // The paper averages 1000 runs; scale to taste.
  GraphOptions graph;
  int sampling_samples = 100;
  std::optional<int64_t> budget;
  std::optional<int> round_limit;
  uint64_t seed = 1;
  // Answer propagation (CDB family only): deduce colors by transitive
  // closure between rounds instead of asking the crowd. Off by default so
  // existing benches keep the legacy task counts.
  PropagationOptions propagation;
  // Optimizer thread count (<= 0 = all hardware threads, 1 = serial); metric
  // outputs are bit-identical either way, only selection_ms moves.
  int num_threads = 0;
  // Observability sinks (borrowed, may be null = disabled); wired into the
  // executor (CDB family) or the baseline's platform so every repetition
  // publishes into the same registry/tracer.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

struct RunOutcome {
  double tasks = 0.0;
  double rounds = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double selection_ms = 0.0;
  double answers = 0.0;
  // Full stats of the last repetition — per-phase counters and platform
  // accounting for benches that break the run down by session phase.
  ExecutionStats sample_stats;
};

// Parses + analyzes `cql` against the dataset's catalog and executes it with
// the given method `config.repetitions` times (distinct seeds), averaging
// the metrics.
Result<RunOutcome> RunMethod(Method method, const GeneratedDataset& dataset,
                             const std::string& cql, const RunConfig& config);

}  // namespace cdb

#endif  // CDB_BENCH_UTIL_RUNNER_H_
