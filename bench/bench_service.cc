// Service-layer bench: sustained multi-tenant session throughput with
// admission control engaged, reported in the BENCH_simjoin.json trajectory
// format as BENCH_service.json.
//
// The workload submits --sessions mini-example queries (default 1200) across
// 8 tenants against a CdbService whose live cap, queue bound, and per-tenant
// budgets are sized so every admission-control path fires: the queue pushes
// back mid-burst (submitters retry after a wave, as a real client would), a
// greedy tenant overruns its budget and is rejected with a typed status, and
// the live set peaks above 1000 concurrent sessions. Periodic checkpoints
// run throughout, so the reported throughput already pays the snapshot tax.
//
// All counters in the emitted JSON are deterministic in --seed;
// tools/check_bench.py compares them against the checked-in golden exactly
// and gates the wall-clock fields (sessions/sec, p99 step latency) by
// floor/ceiling only.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "exec/service.h"

namespace cdb {
namespace bench {
namespace {

ResolvedQuery Resolve(const GeneratedDataset& ds, const std::string& cql) {
  Statement stmt = ParseStatement(cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), ds.catalog).value();
}

ExecutorOptions SessionConfig(uint64_t seed) {
  ExecutorOptions options;
  options.platform.num_workers = 20;
  options.platform.worker_quality_mean = 0.9;
  options.platform.redundancy = 2;
  options.platform.seed = seed;
  options.num_threads = 1;  // Parallelism lives in the service wave.
  options.graph.num_threads = 1;
  return options;
}

// Weighted p99: each wave contributes its average per-session step latency,
// weighted by how many sessions it stepped.
int64_t P99StepMicros(std::vector<std::pair<double, int64_t>> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  int64_t total = 0;
  for (const auto& [micros, weight] : samples) total += weight;
  int64_t seen = 0;
  for (const auto& [micros, weight] : samples) {
    seen += weight;
    if (seen * 100 >= total * 99) return static_cast<int64_t>(micros);
  }
  return static_cast<int64_t>(samples.back().first);
}

int Run(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  int sessions = 1200;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sessions=", 11) == 0)
      sessions = std::atoi(argv[i] + 11);
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  GeneratedDataset dataset = MakeMiniPaperExample();
  ResolvedQuery query = Resolve(dataset, kMiniExampleQuery);
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);

  constexpr int kTenants = 8;
  ServiceOptions service_options;
  service_options.max_live_sessions = std::min(sessions, 1100);
  service_options.max_pending = std::max(64, sessions / 2);
  service_options.tenant_budget = sessions / kTenants + 20;
  service_options.checkpoint_interval = 10;
  service_options.num_threads = args.threads;
  CdbService service(service_options);

  WallTimer wall;
  // Submit burst. A queue-full rejection is backpressure, not failure: the
  // client runs one wave (draining the queue into the live set) and retries.
  int64_t submit_retries = 0;
  for (int i = 0; i < sessions; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i % kTenants);
    ExecutorOptions options = SessionConfig(args.seed * 1000 + i);
    while (true) {
      Result<int64_t> id = service.Submit(tenant, &query, options, truth);
      if (id.ok()) break;
      CDB_CHECK_MSG(id.status().code() == StatusCode::kResourceExhausted,
                    "unexpected submit failure");
      ++submit_retries;
      service.StepWave();
    }
  }
  // A greedy tenant overruns its budget: a queue-full rejection is retried
  // after a wave (backpressure), but a budget rejection is terminal for the
  // query — the tenant's fair share is spent.
  int64_t greedy_rejected = 0;
  for (int i = 0; i < 40; ++i) {
    while (true) {
      const int64_t budget_rejections = service.stats().rejected_budget;
      Result<int64_t> id = service.Submit(
          "tenant-0", &query, SessionConfig(args.seed * 2000 + i), truth);
      if (id.ok()) break;
      CDB_CHECK_MSG(id.status().code() == StatusCode::kResourceExhausted,
                    "unexpected submit failure");
      if (service.stats().rejected_budget > budget_rejections) {
        ++greedy_rejected;
        break;
      }
      service.StepWave();
    }
  }

  int64_t peak_live = 0;
  std::vector<std::pair<double, int64_t>> wave_samples;
  while (service.HasWork()) {
    WallTimer wave_timer;
    // `stepped` counts the sessions live during this wave — the concurrency
    // actually sustained, measured before completions retire.
    const int64_t stepped = service.StepWave();
    peak_live = std::max(peak_live, stepped);
    if (stepped > 0) {
      wave_samples.emplace_back(
          static_cast<double>(wave_timer.ElapsedMicros()) /
              static_cast<double>(stepped),
          stepped);
    }
  }
  const double wall_ms =
      static_cast<double>(wall.ElapsedMicros()) / 1000.0;

  const ServiceStats stats = service.stats();
  const double sessions_per_sec =
      wall_ms > 0 ? 1000.0 * static_cast<double>(stats.completed) / wall_ms
                  : 0.0;
  const int64_t p99 = P99StepMicros(std::move(wave_samples));

  std::printf("bench_service: %lld submitted, %lld completed, %lld failed\n",
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.failed));
  std::printf("  admission: %lld queue rejections (%lld retries), "
              "%lld budget rejections (greedy saw %lld)\n",
              static_cast<long long>(stats.rejected_queue),
              static_cast<long long>(submit_retries),
              static_cast<long long>(stats.rejected_budget),
              static_cast<long long>(greedy_rejected));
  std::printf("  peak live sessions: %lld; %lld waves, %lld steps\n",
              static_cast<long long>(peak_live),
              static_cast<long long>(stats.waves),
              static_cast<long long>(stats.steps));
  std::printf("  checkpoints: %lld (%lld bytes)\n",
              static_cast<long long>(stats.checkpoints),
              static_cast<long long>(stats.checkpoint_bytes));
  std::printf("  wall: %.1f ms, %.1f sessions/sec, p99 step %lld us\n",
              wall_ms, sessions_per_sec, static_cast<long long>(p99));

  if (!out_path.empty()) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    CDB_CHECK_MSG(f != nullptr, "cannot open --out file");
    std::fprintf(f, "{\n  \"schema\": \"cdb-bench-service-v1\",\n");
    std::fprintf(f, "  \"threads\": %d,\n  \"workloads\": [\n", args.threads);
    std::fprintf(
        f,
        "    {\"name\": \"mini_multi_tenant\", \"sessions\": %d, "
        "\"tenants\": %d,\n"
        "     \"submitted\": %lld, \"rejected_queue\": %lld, "
        "\"rejected_budget\": %lld,\n"
        "     \"admitted\": %lld, \"completed\": %lld, \"failed\": %lld,\n"
        "     \"peak_live_sessions\": %lld, \"waves\": %lld, "
        "\"steps\": %lld,\n"
        "     \"checkpoints\": %lld, \"checkpoint_bytes\": %lld,\n"
        "     \"wall_ms\": %.3f, \"sessions_per_sec\": %.1f, "
        "\"p99_step_micros\": %lld}\n",
        sessions, kTenants, static_cast<long long>(stats.submitted),
        static_cast<long long>(stats.rejected_queue),
        static_cast<long long>(stats.rejected_budget),
        static_cast<long long>(stats.admitted),
        static_cast<long long>(stats.completed),
        static_cast<long long>(stats.failed),
        static_cast<long long>(peak_live),
        static_cast<long long>(stats.waves),
        static_cast<long long>(stats.steps),
        static_cast<long long>(stats.checkpoints),
        static_cast<long long>(stats.checkpoint_bytes), wall_ms,
        sessions_per_sec, static_cast<long long>(p99));
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cdb

int main(int argc, char** argv) { return cdb::bench::Run(argc, argv); }
