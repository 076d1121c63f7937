// QuerySession::Snapshot()/Restore(): the durable checkpoint format behind
// the service layer (exec/service.h).
//
// Layout (version 2, all little-endian, FNV-1a 64 trailer over everything
// before it):
//
//   magic u32 | version u32 | phase u8
//   graph_built bool | [num_edges u32 | color u8 ... | provenance u8 ...]
//   sampling_order | observations | worker_quality | posteriors
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
// Each layout is written once, as a walk over the codec of
// common/serialize.h: the struct walks below (static, in namespace cdb where
// argument-dependent lookup finds them) and WalkState for the state after
// the colors. SealBlob/OpenBlob add the magic, version and checksum.
// Restore() keeps what only a restore needs: the graph rebuild, the color,
// provenance, edge-id, answer-choice, posterior-row and answers-received
// checks, the budget replay and the mirror rebase.
//
// Doubles (posteriors, worker qualities, stats) travel as IEEE-754 bit
// patterns, and observation order is preserved exactly: EM folds floats in
// observation order, so a reordered restore would be numerically different.
// Restore-then-run being byte-identical to run-straight-through (colors,
// MetricsDump, PlatformStatsDump) is asserted by the crash-point sweep in
// tests/service_test.cc.
#include <string>
#include <type_traits>
#include <vector>

#include "common/serialize.h"
#include "exec/session.h"

namespace cdb {

constexpr BlobFormat kSessionBlob = {"session snapshot", 0x43444253U,  // CDBS
                                     QuerySession::kSnapshotVersion};

template <typename Io>
static Status Walk(Io& io, CodecRef<Io, ChoiceObservation> observation) {
  return io(observation.task, observation.worker, observation.choice);
}

// The log travels as its observations in arrival order; decoding rebuilds
// the rows, and every task counts as grown for the next majority Infer.
template <typename Io>
static Status Walk(Io& io, CodecRef<Io, ObservationLog> log) {
  if constexpr (std::is_same_v<Io, ByteWriter>) {
    return io(log.observations());
  } else {
    std::vector<ChoiceObservation> observations;
    CDB_RETURN_IF_ERROR(io(observations));
    log = ObservationLog(observations);
    return Status::Ok();
  }
}

template <typename Io>
static Status Walk(Io& io, CodecRef<Io, Task> task) {
  return io(task.id, InRange{task.type, TaskType::kCollection}, task.question,
            task.choices, task.payload, task.redundancy_override,
            task.batch_tag);
}

template <typename Io>
static Status Walk(Io& io, CodecRef<Io, QueryAnswer> answer) {
  return io(answer.rows);
}

template <typename Io>
static Status Walk(Io& io, CodecRef<Io, PhaseCounters> counters) {
  return io(counters.steps, counters.tasks, counters.answers);
}

template <typename Io>
static Status Walk(Io& io, CodecRef<Io, ExecutionStats> stats) {
  // selection_ms is deliberately absent: it is a wall-clock profiling
  // accumulator, the one ExecutionStats field that differs between two runs
  // of equal state. Serializing it would break the blob's determinism;
  // a restored session accumulates its own process's timing instead.
  return io(stats.tasks_asked, stats.rounds, stats.worker_answers,
            stats.hits_published, stats.dollars_spent, stats.round_sizes,
            stats.reposted_tasks, stats.late_answers, stats.recolored_edges,
            stats.fallback_colored, stats.starved_task_ids,
            stats.unique_answers_per_task, stats.phases,
            stats.dedup_tasks_saved, stats.deduced_edges,
            stats.deduction_invalidations, stats.platform);
}

template <typename Io, typename Self>
Status QuerySession::WalkState(Io& io, Self& self,
                               CodecRef<Io, int64_t> budget_spent,
                               CodecRef<Io, int64_t> answers_received) {
  return io(self.sampling_order_, self.observations_, self.worker_quality_,
            self.posteriors_, budget_spent, self.ordered_, self.round_edges_,
            self.round_tasks_, self.inference_.posteriors,
            self.inference_.worker_quality, answers_received,
            self.result_.answers, self.result_.stats);
}

std::string QuerySession::Snapshot() const {
  // Encoding never fails: the writer's Status results are always Ok.
  return SealBlob(kSessionBlob, [this](ByteWriter& writer) {
    // Graph colors only; structure rebuilds from the query (file comment).
    const bool graph_built = phase_ != SessionPhase::kBuildGraph;
    (void)writer(InRange{phase_, SessionPhase::kDone}, graph_built);
    if (graph_built) {
      (void)writer(static_cast<uint32_t>(graph_.num_edges()));
      for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
        (void)writer(static_cast<uint8_t>(graph_.edge(e).color));
      }
      // Color provenance rides next to the colors: a restored session must
      // know which colors are deductions (invalidatable) and which are crowd
      // evidence (the deduction domains' rebuild inputs).
      for (uint8_t provenance : edge_provenance_) (void)writer(provenance);
    }
    (void)WalkState(writer, *this, budget_.spent(), AnswersReceived());

    // Standalone sessions own their platform; its rng/clock/lease state
    // rides in the same blob. Scheduler-mode sessions publish through the
    // scheduler's shared platform, which this blob does not hold.
    (void)writer(owned_publisher_ != nullptr);
    if (owned_publisher_ != nullptr) owned_publisher_->SnapshotState(writer);
  });
}

Status QuerySession::Restore(std::string_view blob) {
  if (phase_ != SessionPhase::kBuildGraph || !observations_.empty()) {
    return Status::FailedPrecondition(
        "Restore() requires a freshly-constructed session");
  }
  CDB_ASSIGN_OR_RETURN(ByteReader reader, OpenBlob(blob, kSessionBlob));
  SessionPhase phase = SessionPhase::kBuildGraph;
  bool graph_built = false;
  CDB_RETURN_IF_ERROR(reader(InRange{phase, SessionPhase::kDone}, graph_built));
  // Every phase after kBuildGraph holds the graph (and the pruner Step()
  // dereferences); the build phase holds neither.
  if (graph_built != (phase != SessionPhase::kBuildGraph)) {
    return Status::DataLoss("session snapshot: graph flag " +
                            std::to_string(graph_built) +
                            " disagrees with phase " +
                            SessionPhaseName(phase));
  }

  // Rebuild the graph the same way StepBuildGraph does, minus its side
  // effects: no golden warm-up republish (those answers are in the
  // observation set below), no sim_metrics sink (the registry snapshot
  // already holds the build-time funnel counters — routing them again would
  // double-count), and no re-derived sampling order (restored verbatim, so
  // selection_ms is not double-charged either). When the options carry a
  // join cache (CdbService wires its own), the rebuild's crowd joins are
  // served from it; a join the cache runs counts in the cache's registry.
  if (graph_built) {
    GraphOptions graph_options = options_.graph;
    graph_options.sim_metrics = nullptr;
    CDB_ASSIGN_OR_RETURN(graph_, QueryGraph::Build(*query_, graph_options));
    uint32_t num_edges = 0;
    CDB_RETURN_IF_ERROR(reader(num_edges));
    if (num_edges != static_cast<uint32_t>(graph_.num_edges())) {
      return Status::FailedPrecondition(
          "session snapshot edge count " + std::to_string(num_edges) +
          " does not match the rebuilt graph (" +
          std::to_string(graph_.num_edges()) +
          " edges); snapshot belongs to a different query");
    }
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      EdgeColor want = EdgeColor::kUnknown;
      CDB_RETURN_IF_ERROR(reader(InRange{want, EdgeColor::kRed}));
      EdgeColor have = graph_.edge(e).color;
      if (want == have) continue;
      if (have != EdgeColor::kUnknown) {
        return Status::FailedPrecondition(
            "session snapshot colors disagree with the rebuilt graph's "
            "born-colored edge " + std::to_string(e));
      }
      graph_.SetColor(e, want);
    }
    edge_provenance_.assign(num_edges,
                            static_cast<uint8_t>(EdgeProvenance::kNone));
    for (uint8_t& slot : edge_provenance_) {
      EdgeProvenance provenance = EdgeProvenance::kNone;
      CDB_RETURN_IF_ERROR(
          reader(InRange{provenance, EdgeProvenance::kFallback}));
      slot = static_cast<uint8_t>(provenance);
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

  int64_t budget_spent = 0;
  int64_t answers_received = 0;
  CDB_RETURN_IF_ERROR(
      WalkState(reader, *this, budget_spent, answers_received));
  if (budget_spent < 0) {
    return Status::DataLoss("session snapshot: negative budget spend");
  }
  // Replay the spend through the ledger's own primitive; a fresh ledger with
  // the same limit grants it in full.
  if (budget_.TryDebit(budget_spent) != budget_spent) {
    return Status::FailedPrecondition(
        "session snapshot budget spend exceeds this session's budget limit");
  }
  // Every edge id must name an edge of the rebuilt graph (none before the
  // build); a negative task payload marks a golden task.
  for (const std::vector<EdgeId>* edges :
       {&sampling_order_, &ordered_, &round_edges_}) {
    for (EdgeId e : *edges) {
      if (e < 0 || e >= graph_.num_edges()) {
        return Status::DataLoss("session snapshot: edge id " +
                                std::to_string(e) + " out of range");
      }
    }
  }
  // Every task is a yes/no question (MakeYesNoTask's shape): single-choice
  // with two choices, answers are choice 0 or 1, and StepBatchRound writes
  // two-entry posterior rows. The simulated worker, EM and the assigner
  // rely on all three.
  for (const Task& task : round_tasks_) {
    if (task.payload >= graph_.num_edges()) {
      return Status::DataLoss("session snapshot: task payload " +
                              std::to_string(task.payload) + " out of range");
    }
    if (task.type != TaskType::kSingleChoice || task.choices.size() != 2) {
      return Status::DataLoss("session snapshot: round task " +
                              std::to_string(task.id) +
                              " is not a yes/no question");
    }
  }
  for (const ChoiceObservation& o : observations_.observations()) {
    if (o.choice != 0 && o.choice != 1) {
      return Status::DataLoss("session snapshot: observation choice " +
                              std::to_string(o.choice) + " is not 0 or 1");
    }
  }
  for (const auto& [task, row] : posteriors_) {
    if (row.size() != 2) {
      return Status::DataLoss("session snapshot: posterior row of task " +
                              std::to_string(task) + " has " +
                              std::to_string(row.size()) + " entries, not 2");
    }
  }
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
  CDB_RETURN_IF_ERROR(reader(owned_platform));
  if (owned_platform != (owned_publisher_ != nullptr)) {
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

  // The assigner's score memo is transient: re-open the restored round over
  // the restored posteriors.
  if (options_.quality_control) assigner_.BeginRound(round_tasks_);
  // publisher_ already points at owned_publisher_ (standalone) or the
  // scheduler's channel (external); only the phase advances.
  phase_ = phase;
  return Status::Ok();
}

}  // namespace cdb
