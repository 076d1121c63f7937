#include "bench_util/sim_crowd.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <variant>

#include "bench_util/metrics.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "graph/propagation.h"
#include "graph/pruning.h"

namespace cdb {
namespace {

void Violate(std::vector<std::string>* violations, std::string message) {
  violations->push_back(std::move(message));
}

std::string FormatInt(const char* what, int64_t a, int64_t b) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s: %lld vs %lld", what,
                static_cast<long long>(a), static_cast<long long>(b));
  return buffer;
}

}  // namespace

Result<SimCrowdReport> RunSimCrowd(const SimCrowdConfig& config) {
  GeneratedDataset dataset = MakeMiniPaperExample();
  CDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(kMiniExampleQuery));
  CDB_ASSIGN_OR_RETURN(
      ResolvedQuery query,
      AnalyzeSelect(std::get<SelectStatement>(stmt), dataset.catalog));

  ExecutorOptions options;
  options.cost_method = config.cost_method;
  options.quality_control = config.quality_control;
  options.num_threads = config.num_threads;
  options.budget = config.budget;
  options.retry = config.retry;
  options.propagation = config.propagation;
  options.platform.seed = config.seed;
  options.platform.num_workers = config.num_workers;
  options.platform.redundancy = config.redundancy;
  options.platform.worker_quality_mean = config.worker_quality_mean;
  options.platform.worker_quality_stddev = config.worker_quality_stddev;
  options.platform.fault = config.fault;
  options.metrics = config.metrics;
  options.tracer = config.tracer;

  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  QuerySession session(&query, options, truth);
  CDB_ASSIGN_OR_RETURN(ExecutionResult result, session.RunToCompletion());

  SimCrowdReport report;
  report.result = result;
  const ExecutionStats& stats = result.stats;
  const PlatformStats& ps = stats.platform;
  report.stats_dump = PlatformStatsDump(ps);
  std::vector<std::string>* v = &report.violations;

  // Canonical edge-color dump (the graph's edge order is deterministic).
  const QueryGraph& graph = session.graph();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    char line[32];
    char c = graph.edge(e).color == EdgeColor::kBlue
                 ? 'B'
                 : graph.edge(e).color == EdgeColor::kRed ? 'R' : 'U';
    std::snprintf(line, sizeof(line), "%d=%c\n", e, c);
    report.color_dump += line;
  }

  // --- Termination: the executor must leave no valid edge uncolored.
  // Budget mode legitimately stops early (Section 5.1.3 returns the best
  // partial result), so the check applies only to unbounded runs. ---
  if (!config.budget) {
    Pruner pruner(const_cast<QueryGraph*>(&graph));
    if (!pruner.RemainingTasks().empty()) {
      Violate(v,
              FormatInt("uncolored valid edges remain",
                        static_cast<int64_t>(pruner.RemainingTasks().size()),
                        0));
    }
  }

  // --- Color integrity: non-crowd (traditional-predicate) edges are colored
  // from birth and must stay colored — late-answer reconciliation flipping
  // or resurrecting one would desync the pruner. ---
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (!graph.edge(e).is_crowd &&
        graph.edge(e).color == EdgeColor::kUnknown) {
      Violate(v, FormatInt("non-crowd edge left uncolored", e, 0));
    }
  }

  // --- No double-spend: pricing is a pure function of HITs, checked in
  // exact integer micro-dollars. ---
  int64_t expected_micro = ps.hits_published * MicroDollars(kPricePerHit);
  if (ps.micro_dollars_spent != expected_micro) {
    Violate(v, FormatInt("double-spend: micro_dollars_spent vs hits * price",
                         ps.micro_dollars_spent, expected_micro));
  }

  // --- Lease conservation (faulty markets only; a clean market counts no
  // leases). Every granted lease is settled exactly once: an on-time
  // non-duplicate delivery, an abandonment, or a late delivery. ---
  if (config.fault.Active()) {
    int64_t settled =
        (ps.answers_collected - ps.duplicates) + ps.abandons + ps.late_answers;
    if (ps.leases_granted != settled) {
      Violate(v, FormatInt("lease conservation: granted vs settled",
                           ps.leases_granted, settled));
    }
    if (ps.expiries > ps.abandons + ps.late_answers) {
      Violate(v, FormatInt("expiries exceed abandons + late answers",
                           ps.expiries, ps.abandons + ps.late_answers));
    }
    if (ps.dead_lettered < static_cast<int64_t>(0)) {
      Violate(v, FormatInt("negative dead-letter count", ps.dead_lettered, 0));
    }
  }

  // --- Redundancy floor: every asked task must have reached the effective
  // redundancy unless the executor explicitly recorded it as starved (the
  // retry budget ran out) or never retried at all. ---
  if (config.retry.enabled) {
    int64_t floor = std::min(static_cast<int64_t>(config.redundancy),
                             static_cast<int64_t>(config.num_workers));
    for (const auto& [task, count] : stats.unique_answers_per_task) {
      if (task < 0) continue;  // Golden warm-up tasks.
      bool starved =
          std::find(stats.starved_task_ids.begin(),
                    stats.starved_task_ids.end(),
                    task) != stats.starved_task_ids.end();
      if (!starved && count < floor) {
        Violate(v, FormatInt("task below effective redundancy", task, count));
      }
    }
  }

  // --- Budget bounds: published tasks (first posts + reposts) and dollars
  // never exceed the task budget. Golden warm-up tasks are outside it. ---
  if (config.budget) {
    int64_t cap = *config.budget;
    if (ps.tasks_published > cap) {
      Violate(v, FormatInt("tasks published exceed budget", ps.tasks_published,
                           cap));
    }
    int64_t micro_cap = cap * MicroDollars(kPricePerHit);
    if (ps.micro_dollars_spent > micro_cap) {
      Violate(v, FormatInt("micro-dollars exceed budget cap",
                           ps.micro_dollars_spent, micro_cap));
    }
  }

  // --- Answer accounting: the executor's observation counts can never
  // exceed what the platform says it delivered. ---
  int64_t unique_total = 0;
  for (const auto& [task, count] : stats.unique_answers_per_task) {
    unique_total += count;
  }
  if (unique_total > ps.answers_collected + ps.late_answers) {
    Violate(v, FormatInt("unique observations exceed deliveries", unique_total,
                         ps.answers_collected + ps.late_answers));
  }

  // --- Cluster consistency (answer propagation): rebuild every predicate's
  // match clusters from the crowd-evidenced colors alone and check each
  // deduced color against them — no pair may end up both matched and
  // non-matched. Noise-free crowds only: noisy majority votes can already be
  // mutually inconsistent before any deduction happens. ---
  if (config.propagation.enabled && config.worker_quality_mean == 1.0 &&
      config.worker_quality_stddev == 0.0) {
    std::map<int, MatchClusters> domains;
    auto domain = [&](int pred) -> MatchClusters& {
      return domains.try_emplace(pred, graph.num_vertices()).first->second;
    };
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const GraphEdge& edge = graph.edge(e);
      if (!edge.is_crowd ||
          session.edge_provenance(e) != EdgeProvenance::kAsked) {
        continue;
      }
      if (edge.color == EdgeColor::kBlue) {
        domain(edge.pred).Union(edge.u, edge.v);
      } else if (edge.color == EdgeColor::kRed) {
        domain(edge.pred).AddNonMatch(edge.u, edge.v);
      }
    }
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const GraphEdge& edge = graph.edge(e);
      if (!edge.is_crowd ||
          session.edge_provenance(e) != EdgeProvenance::kDeduced) {
        continue;
      }
      MatchClusters& d = domain(edge.pred);
      if (edge.color == EdgeColor::kBlue && !d.SameCluster(edge.u, edge.v)) {
        Violate(v, FormatInt("deduced match outside its cluster", e, 0));
      }
      if (edge.color == EdgeColor::kRed &&
          (d.SameCluster(edge.u, edge.v) ||
           !d.KnownNonMatch(edge.u, edge.v))) {
        Violate(v, FormatInt("deduced non-match contradicts clusters", e, 0));
      }
    }
  }

  return report;
}

}  // namespace cdb
