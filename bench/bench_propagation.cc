// Answer-propagation bench: crowd tasks and F1 of the CDB executor with the
// deduction layer off vs on, over the ten representative queries (paper and
// award datasets), written to the --out file in the BENCH_propagation.json
// format. Without --out nothing is written, so a scaled-down run from the
// repository root cannot replace the checked-in golden.
//
// Each workload runs the same query twice from the same seed: once with the
// legacy executor (propagation off — the byte-identical pre-existing path)
// and once with ExecutorOptions::propagation enabled, which deduces edge
// colors by transitivity/anti-transitivity between rounds instead of asking
// the crowd. The JSON records the task counts, the deduction counters, and
// the F1 of both runs; tools/check_bench.py compares every field but the
// trajectory against the checked-in golden exactly (they are deterministic
// in --seed) and enforces the acceptance bar: propagation never asks more
// tasks on a workload, saves tasks in aggregate, and keeps every F1.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace cdb {
namespace bench {
namespace {

struct WorkloadRow {
  std::string name;
  RunOutcome off;
  RunOutcome on;
};

void RunDataset(const char* dataset_name, const GeneratedDataset& dataset,
                const std::vector<BenchmarkQuery>& queries,
                const RunConfig& base, std::vector<WorkloadRow>* rows) {
  for (const BenchmarkQuery& q : queries) {
    WorkloadRow row;
    row.name = std::string(dataset_name) + "/" + q.label;
    RunConfig off = base;
    off.propagation.enabled = false;
    row.off = MustRun(Method::kCdb, dataset, q.cql, off);
    RunConfig on = base;
    on.propagation.enabled = true;
    row.on = MustRun(Method::kCdb, dataset, q.cql, on);
    rows->push_back(std::move(row));
  }
}

int Run(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_scale=*/0.2,
                             /*default_reps=*/1);
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  // One repetition, serial optimizer: every reported counter is a pure
  // function of --seed, so the checker can demand exact golden equality.
  RunConfig config = BaseConfig(args, /*worker_quality=*/1.0);
  config.worker_quality_stddev = 0.0;
  config.repetitions = 1;
  config.num_threads = 1;

  std::vector<WorkloadRow> rows;
  GeneratedDataset paper = MakePaper(args);
  RunDataset("paper", paper, PaperQueries(), config, &rows);
  GeneratedDataset award = MakeAward(args);
  RunDataset("award", award, AwardQueries(), config, &rows);

  TablePrinter printer({"workload", "tasks off", "tasks on", "saved",
                        "deduced", "invalidated", "f1 off", "f1 on"});
  double total_off = 0.0;
  double total_on = 0.0;
  std::string json = "{\n  \"schema\": \"cdb-bench-propagation-v1\",\n";
  json += "  \"seed\": " + std::to_string(args.seed) + ",\n";
  json += "  \"workloads\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const WorkloadRow& row = rows[i];
    total_off += row.off.tasks;
    total_on += row.on.tasks;
    const ExecutionStats& stats = row.on.sample_stats;
    printer.AddRow({row.name, FormatCount(row.off.tasks),
                    FormatCount(row.on.tasks),
                    FormatCount(row.off.tasks - row.on.tasks),
                    std::to_string(stats.deduced_edges),
                    std::to_string(stats.deduction_invalidations),
                    FormatDouble(row.off.f1, 3), FormatDouble(row.on.f1, 3)});
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"name\": \"%s\", \"tasks_off\": %.0f, \"tasks_on\": %.0f, "
        "\"dollars_off\": %.2f, \"dollars_on\": %.2f, "
        "\"deduced_edges\": %lld, \"deduction_invalidations\": %lld, "
        "\"f1_off\": %.6f, \"f1_on\": %.6f}%s\n",
        row.name.c_str(), row.off.tasks, row.on.tasks,
        row.off.sample_stats.dollars_spent, stats.dollars_spent,
        static_cast<long long>(stats.deduced_edges),
        static_cast<long long>(stats.deduction_invalidations), row.off.f1,
        row.on.f1, i + 1 < rows.size() ? "," : "");
    json += buffer;
  }
  json += "  ]\n}\n";

  std::printf("Answer propagation: crowd tasks off vs on (seed %llu)\n",
              static_cast<unsigned long long>(args.seed));
  printer.Print();
  std::printf("total tasks: off %.0f, on %.0f (saved %.0f)\n", total_off,
              total_on, total_off - total_on);

  if (!out_path.empty()) {
    std::FILE* file = std::fopen(out_path.c_str(), "w");
    CDB_CHECK_MSG(file != nullptr, "cannot open --out file");
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cdb

int main(int argc, char** argv) { return cdb::bench::Run(argc, argv); }
