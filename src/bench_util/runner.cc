#include "bench_util/runner.h"

#include "baselines/budget_baseline.h"
#include "baselines/er_join.h"
#include "baselines/tree_executor.h"
#include "common/logging.h"
#include "cql/parser.h"
#include "exec/session.h"

namespace cdb {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kCrowdDb:
      return "CrowdDB";
    case Method::kQurk:
      return "Qurk";
    case Method::kDeco:
      return "Deco";
    case Method::kOptTree:
      return "OptTree";
    case Method::kTrans:
      return "Trans";
    case Method::kAcd:
      return "ACD";
    case Method::kMinCut:
      return "MinCut";
    case Method::kCdb:
      return "CDB";
    case Method::kCdbPlus:
      return "CDB+";
  }
  return "?";
}

std::vector<Method> AllMethods() {
  return {Method::kQurk,    Method::kCrowdDb, Method::kDeco,
          Method::kOptTree, Method::kAcd,     Method::kTrans,
          Method::kMinCut,  Method::kCdb,     Method::kCdbPlus};
}

namespace {

PlatformOptions MakePlatform(const RunConfig& config, uint64_t seed) {
  PlatformOptions platform;
  platform.num_workers = config.num_workers;
  platform.worker_quality_mean = config.worker_quality;
  platform.worker_quality_stddev = config.worker_quality_stddev;
  platform.redundancy = config.redundancy;
  platform.seed = seed;
  platform.metrics = config.metrics;
  platform.tracer = config.tracer;
  return platform;
}

Result<ExecutionResult> RunOnce(Method method, const ResolvedQuery& query,
                                const RunConfig& config, EdgeTruthFn truth,
                                uint64_t seed) {
  switch (method) {
    case Method::kCrowdDb:
    case Method::kQurk:
    case Method::kDeco:
    case Method::kOptTree: {
      TreeExecutorOptions options;
      options.policy = method == Method::kCrowdDb  ? TreePolicy::kCrowdDb
                       : method == Method::kQurk   ? TreePolicy::kQurk
                       : method == Method::kDeco   ? TreePolicy::kDeco
                                                   : TreePolicy::kOptTree;
      options.graph = config.graph;
      options.platform = MakePlatform(config, seed);
      return TreeModelExecutor(&query, options, truth).Run();
    }
    case Method::kTrans:
    case Method::kAcd: {
      ErExecutorOptions options;
      options.method = method == Method::kTrans ? ErMethod::kTrans : ErMethod::kAcd;
      options.graph = config.graph;
      options.platform = MakePlatform(config, seed);
      return ErJoinExecutor(&query, options, truth).Run();
    }
    case Method::kMinCut:
    case Method::kCdb:
    case Method::kCdbPlus: {
      ExecutorOptions options;
      options.cost_method =
          method == Method::kMinCut ? CostMethod::kSampling : CostMethod::kExpectation;
      options.quality_control = method == Method::kCdbPlus;
      options.latency_mode = config.latency_mode;
      options.graph = config.graph;
      options.platform = MakePlatform(config, seed);
      options.sampling_samples = config.sampling_samples;
      options.budget = config.budget;
      options.round_limit = config.round_limit;
      options.propagation = config.propagation;
      options.num_threads = config.num_threads;
      options.graph.num_threads = config.num_threads;
      options.metrics = config.metrics;
      options.tracer = config.tracer;
      return QuerySession(&query, options, truth).RunToCompletion();
    }
  }
  return Status::InvalidArgument("unknown method");
}

}  // namespace

Result<RunOutcome> RunMethod(Method method, const GeneratedDataset& dataset,
                             const std::string& cql, const RunConfig& config) {
  CDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(cql));
  const SelectStatement* select = std::get_if<SelectStatement>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("runner needs a SELECT statement");
  }
  CDB_ASSIGN_OR_RETURN(ResolvedQuery query,
                       AnalyzeSelect(*select, dataset.catalog));
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  std::vector<QueryAnswer> reference = TrueAnswers(dataset, query);

  RunOutcome total;
  CDB_CHECK(config.repetitions > 0);
  for (int rep = 0; rep < config.repetitions; ++rep) {
    uint64_t seed = config.seed + 7919ULL * static_cast<uint64_t>(rep);
    CDB_ASSIGN_OR_RETURN(ExecutionResult result,
                         RunOnce(method, query, config, truth, seed));
    PrecisionRecall pr = ComputeF1(result.answers, reference);
    total.tasks += static_cast<double>(result.stats.tasks_asked);
    total.rounds += static_cast<double>(result.stats.rounds);
    total.precision += pr.precision;
    total.recall += pr.recall;
    total.f1 += pr.f1;
    total.selection_ms += result.stats.selection_ms;
    total.answers += static_cast<double>(result.answers.size());
    if (rep + 1 == config.repetitions) total.sample_stats = result.stats;
  }
  const double n = static_cast<double>(config.repetitions);
  total.tasks /= n;
  total.rounds /= n;
  total.precision /= n;
  total.recall /= n;
  total.f1 /= n;
  total.selection_ms /= n;
  total.answers /= n;
  return total;
}

}  // namespace cdb
