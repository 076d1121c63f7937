// Multi-query execution: the five Table-4 queries over the paper dataset,
// run sequentially (one QuerySession per query, each with a private crowd
// platform) versus concurrently through MultiQueryScheduler (one shared
// platform, rounds merged into shared HITs, identical tasks asked once and
// fanned out). The queries overlap heavily — 3J contains 2J's join, the
// selection variants share their join edges — so cross-query dedup should
// make the concurrent run publish strictly fewer tasks at the same answer
// quality.
#include <memory>

#include "bench/bench_common.h"
#include "bench_util/metrics.h"
#include "cql/parser.h"
#include "exec/scheduler.h"

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchArgs args = ParseArgs(argc, argv, /*default_scale=*/0.3, /*default_reps=*/1);
  GeneratedDataset dataset = MakePaper(args);
  RunConfig config = BaseConfig(args, /*worker_quality=*/0.95);
  BenchObservability obs = MakeObservability(args);

  // Resolve the workload once; the scheduler and the solo executors run the
  // exact same ResolvedQuery objects. unique_ptr keeps addresses stable for
  // the truth closures.
  struct Workload {
    std::string label;
    ResolvedQuery query;
    EdgeTruthFn truth;
    std::vector<QueryAnswer> reference;
  };
  std::vector<std::unique_ptr<Workload>> workloads;
  for (const BenchmarkQuery& bq : PaperQueries()) {
    auto w = std::make_unique<Workload>();
    w->label = bq.label;
    Statement stmt = ParseStatement(bq.cql).value();
    const SelectStatement* select = std::get_if<SelectStatement>(&stmt);
    CDB_CHECK(select != nullptr);
    w->query = AnalyzeSelect(*select, dataset.catalog).value();
    w->truth = MakeEdgeTruth(&dataset, &w->query);
    w->reference = TrueAnswers(dataset, w->query);
    workloads.push_back(std::move(w));
  }

  PlatformOptions platform;
  platform.num_workers = config.num_workers;
  platform.worker_quality_mean = config.worker_quality;
  platform.worker_quality_stddev = config.worker_quality_stddev;
  platform.redundancy = config.redundancy;
  platform.seed = config.seed;
  ExecutorOptions options;
  options.graph = config.graph;
  options.platform = platform;
  options.num_threads = config.num_threads;
  options.graph.num_threads = config.num_threads;
  options.metrics = obs.registry.get();
  options.tracer = obs.tracer.get();

  // Sequential: each query pays for its own tasks on a fresh platform.
  std::vector<ExecutionResult> solo;
  PlatformStats solo_platform{};
  for (const auto& w : workloads) {
    ExecutionResult result =
        QuerySession(&w->query, options, w->truth).RunToCompletion().value();
    solo_platform.tasks_published += result.stats.platform.tasks_published;
    solo_platform.answers_collected += result.stats.platform.answers_collected;
    solo_platform.hits_published += result.stats.platform.hits_published;
    solo_platform.micro_dollars_spent += result.stats.platform.micro_dollars_spent;
    solo.push_back(std::move(result));
  }

  // Concurrent: one scheduler, one shared platform.
  MultiQueryOptions mq;
  mq.platform = platform;
  mq.metrics = obs.registry.get();
  mq.tracer = obs.tracer.get();
  MultiQueryScheduler scheduler(mq);
  for (const auto& w : workloads) {
    scheduler.AddQuery(&w->query, options, w->truth);
  }
  std::vector<ExecutionResult> shared = scheduler.RunAll().value();

  std::printf("Multi-query execution: 5 paper queries, sequential vs "
              "concurrent (scale %.2f)\n", args.scale);
  TablePrinter printer({"query", "tasks seq", "tasks conc", "saved",
                        "F1 seq", "F1 conc"});
  int64_t seq_tasks = 0;
  int64_t conc_tasks = 0;
  int64_t seq_rounds = 0;
  double seq_f1 = 0.0;
  double conc_f1 = 0.0;
  for (size_t i = 0; i < workloads.size(); ++i) {
    PrecisionRecall f1_seq = ComputeF1(solo[i].answers, workloads[i]->reference);
    PrecisionRecall f1_conc =
        ComputeF1(shared[i].answers, workloads[i]->reference);
    int64_t saved = shared[i].stats.dedup_tasks_saved;
    seq_tasks += solo[i].stats.tasks_asked;
    conc_tasks += shared[i].stats.tasks_asked - saved;
    seq_rounds += solo[i].stats.rounds;
    seq_f1 += f1_seq.f1;
    conc_f1 += f1_conc.f1;
    printer.AddRow({workloads[i]->label,
                    std::to_string(solo[i].stats.tasks_asked),
                    std::to_string(shared[i].stats.tasks_asked - saved),
                    std::to_string(saved), FormatDouble(f1_seq.f1, 3),
                    FormatDouble(f1_conc.f1, 3)});
  }
  seq_f1 /= static_cast<double>(workloads.size());
  conc_f1 /= static_cast<double>(workloads.size());
  printer.AddRow({"mean", "", "", "", FormatDouble(seq_f1, 3),
                  FormatDouble(conc_f1, 3)});
  printer.Print();

  const MultiQueryStats& stats = scheduler.stats();
  PlatformStats shared_platform = scheduler.platform_stats();
  std::printf("\n");
  TablePrinter totals({"metric", "sequential", "concurrent"});
  totals.AddRow({"tasks asked", std::to_string(seq_tasks),
                 std::to_string(conc_tasks)});
  totals.AddRow({"tasks published",
                 std::to_string(solo_platform.tasks_published),
                 std::to_string(shared_platform.tasks_published)});
  totals.AddRow({"platform rounds", std::to_string(seq_rounds),
                 std::to_string(stats.merged_rounds)});
  totals.AddRow({"HITs", std::to_string(solo_platform.hits_published),
                 std::to_string(shared_platform.hits_published)});
  totals.AddRow({"dollars", FormatDouble(solo_platform.dollars_spent(), 2),
                 FormatDouble(shared_platform.dollars_spent(), 2)});
  totals.Print();
  std::printf("\ndedup: %lld same-round hits, %lld cache hits, "
              "%lld shared HITs, %lld tasks saved total\n",
              static_cast<long long>(stats.dedup_hits),
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(shared_platform.shared_hits),
              static_cast<long long>(seq_tasks - conc_tasks));
  CDB_CHECK_MSG(shared_platform.tasks_published <
                    solo_platform.tasks_published,
                "concurrent run must publish strictly fewer tasks");
  // Per-query F1 wobbles with the platform RNG sequence; the workload mean
  // must not regress beyond noise.
  CDB_CHECK_MSG(conc_f1 + 0.02 >= seq_f1,
                "concurrent F1 regressed beyond noise");
  obs.Flush();
  return 0;
}
