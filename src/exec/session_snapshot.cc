// QuerySession::Snapshot()/Restore(): the durable checkpoint format behind
// the service layer (exec/service.h).
//
// Layout (version 2, all little-endian, FNV-1a 64 trailer over everything
// before it):
//
//   magic u32 | version u32 | phase u8
//   graph_built bool | [num_edges u32 | color u8 ... | provenance u8 ...]
//   sampling_order | all_observations | worker_quality | posteriors
//   budget spent i64
//   ordered | round_edges | round_tasks | inference
//   answers_received i64 (the sum of the phase answer counters, checked on
//   restore) | result (answers + full ExecutionStats)
//   owned_platform bool | [platform state (crowd/platform.cc)]
//   checksum u64
//
// The graph itself is deliberately NOT serialized: QueryGraph::Build is
// deterministic given (query, options), so Restore() rebuilds it and
// re-applies only the snapshot's edge colors. That keeps blobs a few KB for
// graphs with tens of thousands of edges, and it is what ties the snapshot
// to its query — an edge-count or color mismatch is a typed error.
//
// Doubles (posteriors, worker qualities, stats) travel as IEEE-754 bit
// patterns, and observation order is preserved exactly: EM folds floats in
// observation order, so a reordered restore would be numerically different.
// Restore-then-run being byte-identical to run-straight-through (colors,
// MetricsDump, PlatformStatsDump) is asserted by the crash-point sweep in
// tests/service_test.cc.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/serialize.h"
#include "exec/session.h"

namespace cdb {
namespace {

constexpr uint32_t kSessionSnapshotMagic = 0x43444253U;  // "CDBS".

void PutEdgeList(ByteWriter& writer, const std::vector<EdgeId>& edges) {
  writer.PutU32(static_cast<uint32_t>(edges.size()));
  for (EdgeId e : edges) writer.PutI32(e);
}

Status GetEdgeList(ByteReader& reader, std::vector<EdgeId>* edges) {
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  edges->assign(n, kNoEdge);
  for (uint32_t i = 0; i < n; ++i) {
    CDB_RETURN_IF_ERROR(reader.GetI32(&(*edges)[i]));
  }
  return Status::Ok();
}

void PutInt64List(ByteWriter& writer, const std::vector<int64_t>& values) {
  writer.PutU32(static_cast<uint32_t>(values.size()));
  for (int64_t v : values) writer.PutI64(v);
}

Status GetInt64List(ByteReader& reader, std::vector<int64_t>* values) {
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  values->assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    CDB_RETURN_IF_ERROR(reader.GetI64(&(*values)[i]));
  }
  return Status::Ok();
}

void PutObservations(ByteWriter& writer,
                     const std::vector<ChoiceObservation>& obs) {
  writer.PutU32(static_cast<uint32_t>(obs.size()));
  for (const ChoiceObservation& o : obs) {
    writer.PutI64(o.task);
    writer.PutI32(o.worker);
    writer.PutI32(o.choice);
  }
}

Status GetObservations(ByteReader& reader,
                       std::vector<ChoiceObservation>* obs) {
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  obs->assign(n, ChoiceObservation{});
  for (uint32_t i = 0; i < n; ++i) {
    ChoiceObservation& o = (*obs)[i];
    CDB_RETURN_IF_ERROR(reader.GetI64(&o.task));
    CDB_RETURN_IF_ERROR(reader.GetI32(&o.worker));
    CDB_RETURN_IF_ERROR(reader.GetI32(&o.choice));
  }
  return Status::Ok();
}

void PutWorkerQuality(ByteWriter& writer, const std::map<int, double>& wq) {
  writer.PutU32(static_cast<uint32_t>(wq.size()));
  for (const auto& [worker, quality] : wq) {
    writer.PutI32(worker);
    writer.PutDouble(quality);
  }
}

Status GetWorkerQuality(ByteReader& reader, std::map<int, double>* wq) {
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  wq->clear();
  for (uint32_t i = 0; i < n; ++i) {
    int32_t worker = 0;
    double quality = 0.0;
    CDB_RETURN_IF_ERROR(reader.GetI32(&worker));
    CDB_RETURN_IF_ERROR(reader.GetDouble(&quality));
    (*wq)[worker] = quality;
  }
  return Status::Ok();
}

void PutPosteriors(ByteWriter& writer,
                   const std::map<TaskId, std::vector<double>>& posteriors) {
  writer.PutU32(static_cast<uint32_t>(posteriors.size()));
  for (const auto& [task, dist] : posteriors) {
    writer.PutI64(task);
    writer.PutU32(static_cast<uint32_t>(dist.size()));
    for (double p : dist) writer.PutDouble(p);
  }
}

Status GetPosteriors(ByteReader& reader,
                     std::map<TaskId, std::vector<double>>* posteriors) {
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  posteriors->clear();
  for (uint32_t i = 0; i < n; ++i) {
    TaskId task = 0;
    uint32_t len = 0;
    CDB_RETURN_IF_ERROR(reader.GetI64(&task));
    CDB_RETURN_IF_ERROR(reader.GetU32(&len));
    std::vector<double> dist(len);
    for (uint32_t j = 0; j < len; ++j) {
      CDB_RETURN_IF_ERROR(reader.GetDouble(&dist[j]));
    }
    (*posteriors)[task] = std::move(dist);
  }
  return Status::Ok();
}

void PutTask(ByteWriter& writer, const Task& task) {
  writer.PutI64(task.id);
  writer.PutU8(static_cast<uint8_t>(task.type));
  writer.PutString(task.question);
  writer.PutU32(static_cast<uint32_t>(task.choices.size()));
  for (const std::string& choice : task.choices) writer.PutString(choice);
  writer.PutI64(task.payload);
  writer.PutI32(task.redundancy_override);
  writer.PutI32(task.batch_tag);
}

Status GetTask(ByteReader& reader, Task* task) {
  CDB_RETURN_IF_ERROR(reader.GetI64(&task->id));
  uint8_t type = 0;
  CDB_RETURN_IF_ERROR(reader.GetU8(&type));
  if (type > static_cast<uint8_t>(TaskType::kCollection)) {
    return Status::DataLoss("session snapshot: unknown task type " +
                            std::to_string(type));
  }
  task->type = static_cast<TaskType>(type);
  CDB_RETURN_IF_ERROR(reader.GetString(&task->question));
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  task->choices.assign(n, std::string());
  for (uint32_t i = 0; i < n; ++i) {
    CDB_RETURN_IF_ERROR(reader.GetString(&task->choices[i]));
  }
  CDB_RETURN_IF_ERROR(reader.GetI64(&task->payload));
  CDB_RETURN_IF_ERROR(reader.GetI32(&task->redundancy_override));
  CDB_RETURN_IF_ERROR(reader.GetI32(&task->batch_tag));
  return Status::Ok();
}

void PutStats(ByteWriter& writer, const ExecutionStats& stats) {
  writer.PutI64(stats.tasks_asked);
  writer.PutI64(stats.rounds);
  writer.PutI64(stats.worker_answers);
  writer.PutI64(stats.hits_published);
  writer.PutDouble(stats.dollars_spent);
  // selection_ms is deliberately absent: it is a wall-clock profiling
  // accumulator, the one ExecutionStats field that differs between two runs
  // of equal state. Serializing it would break the blob's determinism;
  // a restored session accumulates its own process's timing instead.
  PutInt64List(writer, stats.round_sizes);
  writer.PutI64(stats.reposted_tasks);
  writer.PutI64(stats.late_answers);
  writer.PutI64(stats.recolored_edges);
  writer.PutI64(stats.fallback_colored);
  PutInt64List(writer, stats.starved_task_ids);
  writer.PutU32(static_cast<uint32_t>(stats.unique_answers_per_task.size()));
  for (const auto& [task, n] : stats.unique_answers_per_task) {
    writer.PutI64(task);
    writer.PutI64(n);
  }
  for (const PhaseCounters& pc : stats.phases) {
    writer.PutI64(pc.steps);
    writer.PutI64(pc.tasks);
    writer.PutI64(pc.answers);
  }
  writer.PutI64(stats.dedup_tasks_saved);
  writer.PutI64(stats.deduced_edges);
  writer.PutI64(stats.deduction_invalidations);
  SnapshotPlatformStats(writer, stats.platform);
}

Status GetStats(ByteReader& reader, ExecutionStats* stats) {
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->tasks_asked));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->rounds));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->worker_answers));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->hits_published));
  CDB_RETURN_IF_ERROR(reader.GetDouble(&stats->dollars_spent));
  CDB_RETURN_IF_ERROR(GetInt64List(reader, &stats->round_sizes));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->reposted_tasks));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->late_answers));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->recolored_edges));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->fallback_colored));
  CDB_RETURN_IF_ERROR(GetInt64List(reader, &stats->starved_task_ids));
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  stats->unique_answers_per_task.clear();
  for (uint32_t i = 0; i < n; ++i) {
    int64_t task = 0;
    int64_t count = 0;
    CDB_RETURN_IF_ERROR(reader.GetI64(&task));
    CDB_RETURN_IF_ERROR(reader.GetI64(&count));
    stats->unique_answers_per_task[task] = count;
  }
  for (PhaseCounters& pc : stats->phases) {
    CDB_RETURN_IF_ERROR(reader.GetI64(&pc.steps));
    CDB_RETURN_IF_ERROR(reader.GetI64(&pc.tasks));
    CDB_RETURN_IF_ERROR(reader.GetI64(&pc.answers));
  }
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->dedup_tasks_saved));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->deduced_edges));
  CDB_RETURN_IF_ERROR(reader.GetI64(&stats->deduction_invalidations));
  CDB_RETURN_IF_ERROR(RestorePlatformStats(reader, &stats->platform));
  return Status::Ok();
}

}  // namespace

std::string QuerySession::Snapshot() const {
  CDB_CHECK_MSG(!waiting_for_answers(),
                "Snapshot() while the scheduler owes this session a round of "
                "answers; snapshot between scheduling rounds instead");
  ByteWriter writer;
  writer.PutU32(kSessionSnapshotMagic);
  writer.PutU32(kSnapshotVersion);
  writer.PutU8(static_cast<uint8_t>(phase_));

  // Graph colors only; structure rebuilds from the query (file comment).
  const bool graph_built = phase_ != SessionPhase::kBuildGraph;
  writer.PutBool(graph_built);
  if (graph_built) {
    writer.PutU32(static_cast<uint32_t>(graph_.num_edges()));
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      writer.PutU8(static_cast<uint8_t>(graph_.edge(e).color));
    }
    // Color provenance rides next to the colors: a restored session must
    // know which colors are deductions (invalidatable) and which are crowd
    // evidence (the deduction domains' rebuild inputs).
    for (uint8_t provenance : edge_provenance_) writer.PutU8(provenance);
  }

  PutEdgeList(writer, sampling_order_);
  PutObservations(writer, all_observations_);
  PutWorkerQuality(writer, worker_quality_);
  PutPosteriors(writer, posteriors_);
  writer.PutI64(budget_.spent());
  PutEdgeList(writer, ordered_);
  PutEdgeList(writer, round_edges_);
  writer.PutU32(static_cast<uint32_t>(round_tasks_.size()));
  for (const Task& task : round_tasks_) PutTask(writer, task);
  PutPosteriors(writer, inference_.posteriors);
  PutWorkerQuality(writer, inference_.worker_quality);
  writer.PutI64(AnswersReceived());

  writer.PutU32(static_cast<uint32_t>(result_.answers.size()));
  for (const QueryAnswer& answer : result_.answers) {
    PutInt64List(writer, answer.rows);
  }
  PutStats(writer, result_.stats);

  // Standalone sessions own their platform; its rng/clock/lease state rides
  // in the same blob. Scheduler-mode sessions publish through a shared
  // platform the scheduler checkpoints itself.
  writer.PutBool(!external_publish_);
  if (!external_publish_) {
    owned_publisher_->SnapshotState(writer);
  }

  writer.PutU64(SnapshotChecksum(writer.data()));
  return writer.Take();
}

Status QuerySession::Restore(std::string_view blob) {
  if (phase_ != SessionPhase::kBuildGraph || !all_observations_.empty()) {
    return Status::FailedPrecondition(
        "Restore() requires a freshly-constructed session");
  }
  if (blob.size() < sizeof(uint64_t)) {
    return Status::DataLoss("session snapshot shorter than its checksum");
  }
  std::string_view payload = blob.substr(0, blob.size() - sizeof(uint64_t));
  ByteReader trailer(blob.substr(payload.size()));
  uint64_t checksum = 0;
  CDB_RETURN_IF_ERROR(trailer.GetU64(&checksum));
  if (checksum != SnapshotChecksum(payload)) {
    return Status::DataLoss("session snapshot checksum mismatch");
  }

  ByteReader reader(payload);
  uint32_t magic = 0;
  uint32_t version = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&magic));
  CDB_RETURN_IF_ERROR(reader.GetU32(&version));
  if (magic != kSessionSnapshotMagic) {
    return Status::DataLoss("session snapshot magic mismatch");
  }
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "session snapshot version " + std::to_string(version) +
        " not supported (expected " + std::to_string(kSnapshotVersion) + ")");
  }
  uint8_t phase_byte = 0;
  CDB_RETURN_IF_ERROR(reader.GetU8(&phase_byte));
  if (phase_byte >= kNumSessionPhases) {
    return Status::DataLoss("session snapshot: phase byte " +
                            std::to_string(phase_byte) + " out of range");
  }

  // Rebuild the graph the same way StepBuildGraph does, minus its side
  // effects: no golden warm-up republish (those answers are in the
  // observation set below), no sim_metrics sink (the registry snapshot
  // already holds the build-time funnel counters — routing them again would
  // double-count), and no re-derived sampling order (restored verbatim, so
  // selection_ms is not double-charged either). When the options carry a
  // join cache (CdbService wires its own), the rebuild's crowd joins are
  // served from it; a join the cache runs counts in the cache's registry.
  bool graph_built = false;
  CDB_RETURN_IF_ERROR(reader.GetBool(&graph_built));
  if (graph_built) {
    GraphOptions graph_options = options_.graph;
    graph_options.sim_metrics = nullptr;
    CDB_ASSIGN_OR_RETURN(graph_, QueryGraph::Build(*query_, graph_options));
    uint32_t num_edges = 0;
    CDB_RETURN_IF_ERROR(reader.GetU32(&num_edges));
    if (num_edges != static_cast<uint32_t>(graph_.num_edges())) {
      return Status::FailedPrecondition(
          "session snapshot edge count " + std::to_string(num_edges) +
          " does not match the rebuilt graph (" +
          std::to_string(graph_.num_edges()) +
          " edges); snapshot belongs to a different query");
    }
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      uint8_t color_byte = 0;
      CDB_RETURN_IF_ERROR(reader.GetU8(&color_byte));
      if (color_byte > static_cast<uint8_t>(EdgeColor::kRed)) {
        return Status::DataLoss("session snapshot: edge color byte " +
                                std::to_string(color_byte) + " out of range");
      }
      EdgeColor want = static_cast<EdgeColor>(color_byte);
      EdgeColor have = graph_.edge(e).color;
      if (want == have) continue;
      if (have != EdgeColor::kUnknown) {
        return Status::FailedPrecondition(
            "session snapshot colors disagree with the rebuilt graph's "
            "born-colored edge " + std::to_string(e));
      }
      graph_.SetColor(e, want);
    }
    edge_provenance_.assign(static_cast<size_t>(graph_.num_edges()),
                            static_cast<uint8_t>(EdgeProvenance::kNone));
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      uint8_t provenance = 0;
      CDB_RETURN_IF_ERROR(reader.GetU8(&provenance));
      if (provenance > static_cast<uint8_t>(EdgeProvenance::kFallback)) {
        return Status::DataLoss("session snapshot: edge provenance byte " +
                                std::to_string(provenance) + " out of range");
      }
      edge_provenance_[static_cast<size_t>(e)] = provenance;
    }
    pruner_.emplace(&graph_);
    pruner_->Recompute();
    // The deduction domains are transient: re-observing the crowd-evidenced
    // colors in ascending edge order rebuilds the same partition and fact
    // set the snapshotted session held (both are order-independent in the
    // observed set). Deduced colors are already in the restored graph, so no
    // re-deduction sweep runs — and none is needed, the restored state was
    // already a closure.
    if (options_.propagation.enabled) {
      deduction_.emplace(&graph_);
      for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
        if (edge_provenance_[static_cast<size_t>(e)] ==
            static_cast<uint8_t>(EdgeProvenance::kAsked)) {
          deduction_->Observe(e, graph_.edge_color(e));
        }
      }
    }
    // The optimizer's structure cache is transient: rebuilt from the graph
    // under the same conditions StepBuildGraph uses, never serialized.
    if (!options_.budget && options_.cost_method == CostMethod::kSampling) {
      structure_cache_.emplace(StructureCache::Build(graph_));
    }
  }

  CDB_RETURN_IF_ERROR(GetEdgeList(reader, &sampling_order_));
  CDB_RETURN_IF_ERROR(GetObservations(reader, &all_observations_));
  CDB_RETURN_IF_ERROR(GetWorkerQuality(reader, &worker_quality_));
  CDB_RETURN_IF_ERROR(GetPosteriors(reader, &posteriors_));
  int64_t budget_spent = 0;
  CDB_RETURN_IF_ERROR(reader.GetI64(&budget_spent));
  if (budget_spent < 0) {
    return Status::DataLoss("session snapshot: negative budget spend");
  }
  // Replay the spend through the ledger's own primitive; a fresh ledger with
  // the same limit grants it in full.
  if (budget_.TryDebit(budget_spent) != budget_spent) {
    return Status::FailedPrecondition(
        "session snapshot budget spend exceeds this session's budget limit");
  }
  CDB_RETURN_IF_ERROR(GetEdgeList(reader, &ordered_));
  CDB_RETURN_IF_ERROR(GetEdgeList(reader, &round_edges_));
  uint32_t num_tasks = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&num_tasks));
  round_tasks_.assign(num_tasks, Task{});
  for (uint32_t i = 0; i < num_tasks; ++i) {
    CDB_RETURN_IF_ERROR(GetTask(reader, &round_tasks_[i]));
  }
  CDB_RETURN_IF_ERROR(GetPosteriors(reader, &inference_.posteriors));
  CDB_RETURN_IF_ERROR(GetWorkerQuality(reader, &inference_.worker_quality));
  int64_t answers_received = 0;
  CDB_RETURN_IF_ERROR(reader.GetI64(&answers_received));

  uint32_t num_answers = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&num_answers));
  result_.answers.assign(num_answers, QueryAnswer{});
  for (uint32_t i = 0; i < num_answers; ++i) {
    CDB_RETURN_IF_ERROR(GetInt64List(reader, &result_.answers[i].rows));
  }
  CDB_RETURN_IF_ERROR(GetStats(reader, &result_.stats));
  if (answers_received != AnswersReceived()) {
    return Status::DataLoss(
        "session snapshot: answers-received slot disagrees with the phase "
        "answer counters");
  }
  // The registry's owner restores what was published before the snapshot;
  // from here on only growth is published.
  stats_mirror_.Rebase(result_.stats);
  for (size_t p = 0; p < phase_mirrors_.size(); ++p) {
    phase_mirrors_[p].Rebase(result_.stats.phases[p]);
  }

  bool owned_platform = false;
  CDB_RETURN_IF_ERROR(reader.GetBool(&owned_platform));
  if (owned_platform != !external_publish_) {
    return Status::FailedPrecondition(
        "session snapshot publisher mode (standalone vs scheduler) does not "
        "match this session");
  }
  if (owned_platform) {
    CDB_RETURN_IF_ERROR(owned_publisher_->RestoreState(reader));
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("session snapshot has trailing bytes");
  }

  // Derived state: the dedup guard is a pure index over the observation log.
  seen_observations_.clear();
  for (const ChoiceObservation& o : all_observations_) {
    seen_observations_.insert({o.task, o.worker});
  }
  // The assigner's score memo is transient: re-open the restored round over
  // the restored posteriors.
  if (options_.quality_control) assigner_.BeginRound(round_tasks_);
  // publisher_ already points at owned_publisher_ (standalone) or the
  // scheduler's channel (external); only the phase advances.
  phase_ = static_cast<SessionPhase>(phase_byte);
  return Status::Ok();
}

}  // namespace cdb
