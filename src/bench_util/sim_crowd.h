// SimCrowd: a FoundationDB-style deterministic simulation harness for the
// unreliable-crowd stack. One call = one fully seeded end-to-end run of the
// CDB executor over the paper's mini example with a FaultProfile injected,
// followed by an invariant sweep:
//   - termination (the executor returned instead of spinning),
//   - no double-spend (dollars_spent == hits_published * kPricePerHit),
//   - lease conservation (leases == on-time non-duplicate answers + abandons
//     + late answers; expiries <= abandons + late answers),
//   - answers-per-task >= effective redundancy for every non-starved task,
//   - budget bounds (tasks published and dollars spent never exceed it).
// Everything (worker behavior, fault schedule, executor decisions) derives
// from SimCrowdConfig::seed, so two runs with the same config are
// byte-identical — the determinism tests compare stats_dump/color_dump
// across repeated runs and thread counts.
#ifndef CDB_BENCH_UTIL_SIM_CROWD_H_
#define CDB_BENCH_UTIL_SIM_CROWD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/session.h"

namespace cdb {

struct SimCrowdConfig {
  uint64_t seed = 1;
  FaultProfile fault;
  int num_workers = 30;
  int redundancy = 3;
  // Perfect workers by default: under faults the answer *schedule* differs
  // from a clean run, so result-equality checks need accuracy noise off.
  double worker_quality_mean = 1.0;
  double worker_quality_stddev = 0.0;
  bool quality_control = false;     // CDB+ (EM + entropy assignment).
  CostMethod cost_method = CostMethod::kExpectation;
  int num_threads = 1;              // Optimizer threads (EM, sampling).
  std::optional<int64_t> budget;    // Budget-aware mode (Section 5.1.3).
  RetryOptions retry;               // Requester-side repost policy.
  PropagationOptions propagation;   // Answer-propagation deduction layer.
  // Observability sinks (borrowed, may be null): the determinism tests point
  // these at a registry/tracer and byte-compare MetricsDump()/DumpJson()
  // across thread counts, exactly like stats_dump/color_dump.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

struct SimCrowdReport {
  ExecutionResult result;
  // Canonical byte dumps for determinism comparisons.
  std::string stats_dump;  // PlatformStatsDump of the final platform stats.
  std::string color_dump;  // One "e=<B|R|U>" line per graph edge.
  // Human-readable invariant violations; empty means the run is sound.
  std::vector<std::string> violations;
};

// Runs the executor once under `config` and sweeps the invariants. Returns
// an error only when the executor itself fails (e.g. clean-crowd
// exhaustion); invariant breaks are reported in `violations` so tests can
// print all of them at once.
Result<SimCrowdReport> RunSimCrowd(const SimCrowdConfig& config);

}  // namespace cdb

#endif  // CDB_BENCH_UTIL_SIM_CROWD_H_
