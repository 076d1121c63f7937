// Multi-query execution against one shared crowd platform (Section 2.2: CDB
// as a system serving many requesters).
//
// MultiQueryScheduler steps N QuerySessions concurrently, through Step()
// alone. Each scheduling round it advances every live session until it
// either finishes or parks at kPublish, then merges all parked sessions'
// pending tasks into one shared publish (MergeRoundBatches interleaves them
// so HITs mix queries), executes it, fans the answers out into per-session
// inboxes, and steps each parked session once: the session's own Publish
// call, made through its channel, returns its inbox. Three things happen at
// the merge barrier:
//
//  - Cross-query dedup: tasks with the same question (same tuple pair / same
//    fill cell) are asked once; every subscribed (session, local-task) pair
//    receives a copy of each answer. Answers are cached, so a later query
//    asking an already-answered question pays nothing — the transitive-reuse
//    idea of Wang et al. applied across queries.
//  - Shared batching: one platform round serves every ready session, so the
//    round count of the slowest query bounds the whole workload instead of
//    the sum of all queries' rounds (Marcus et al.'s shared HITs).
//  - Global budget: a BudgetLedger shared by all sessions caps the total
//    tasks published; asks denied by the ledger are dropped and the owning
//    session falls back to similarity-prior coloring for those edges.
//
// Golden warm-up tasks and Collect-phase retry reposts bypass the barrier
// (they are private to one session) but still go through the scheduler's
// channel. The merged rounds and the channel both publish through the
// scheduler's one-market PlatformPublisher (crowd/platform.h), the same
// deployment type a standalone session owns and checkpoints.
#ifndef CDB_EXEC_SCHEDULER_H_
#define CDB_EXEC_SCHEDULER_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/session.h"

namespace cdb {

struct MultiQueryOptions {
  // The shared market every session publishes into.
  PlatformOptions platform;
  // Cap on total tasks published across all sessions (merged rounds, golden
  // warm-up, and reposts alike); unset = unlimited.
  std::optional<int64_t> global_budget;
  // Observability sinks (borrowed, may be null = disabled). Propagated into
  // the shared platform and every added session; the scheduler itself
  // publishes MultiQueryStats as `scheduler.*` counters when RunAll()
  // returns (see kSchedulerStatFields) and emits one
  // `scheduler.merged_round` span per merge barrier.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

struct MultiQueryStats {
  int64_t merged_rounds = 0;    // Shared platform rounds executed.
  int64_t tasks_requested = 0;  // Round tasks the sessions asked for.
  int64_t tasks_published = 0;  // Unique tasks actually published in merges.
  int64_t direct_tasks = 0;     // Golden warm-up + repost tasks published.
  int64_t dedup_hits = 0;       // Asks served by a same-round identical ask.
  int64_t cache_hits = 0;       // Asks served from an earlier round's answers.
  int64_t budget_denied = 0;    // Asks dropped by the global ledger.
  // Shared tasks whose answer fan-out was skipped because the subscriber
  // session had already deduced that edge's color (answer propagation):
  // counted once per (task, session), instead of double-charging the ledger
  // with an answer the session can no longer use.
  int64_t dedup_tasks_saved = 0;
};

// Every MultiQueryStats field, under the name of its `scheduler.<name>`
// counter.
inline constexpr StatField<MultiQueryStats> kSchedulerStatFields[] = {
    {"merged_rounds", &MultiQueryStats::merged_rounds},
    {"tasks_requested", &MultiQueryStats::tasks_requested},
    {"tasks_published", &MultiQueryStats::tasks_published},
    {"direct_tasks", &MultiQueryStats::direct_tasks},
    {"dedup_hits", &MultiQueryStats::dedup_hits},
    {"cache_hits", &MultiQueryStats::cache_hits},
    {"budget_denied", &MultiQueryStats::budget_denied},
    {"dedup_tasks_saved", &MultiQueryStats::dedup_tasks_saved},
};
static_assert(sizeof(MultiQueryStats) ==
                  std::size(kSchedulerStatFields) * sizeof(int64_t),
              "every MultiQueryStats field needs a kSchedulerStatFields row");

// Thread affinity: driver-serial. The scheduler, its sessions, and the
// shared platform all run on the one driver thread that calls Run()/Step();
// no member is locked and none may be touched concurrently. The only
// cross-thread state it participates in is the shared BudgetLedger (its own
// capability, see cost/ledger.h) — spends go through the ledger's atomic
// TrySpend/TryDebit primitives, never through a remaining()/Exhausted()
// check followed by a spend.
class MultiQueryScheduler {
 public:
  explicit MultiQueryScheduler(const MultiQueryOptions& options);
  ~MultiQueryScheduler();
  MultiQueryScheduler(const MultiQueryScheduler&) = delete;
  MultiQueryScheduler& operator=(const MultiQueryScheduler&) = delete;

  // Registers a query; returns its index. All queries must be added before
  // RunAll(). Per-session options are honored (budget, retry, quality
  // control, ...) except platform/markets, which the shared platform
  // replaces.
  size_t AddQuery(const ResolvedQuery* query, const ExecutorOptions& options,
                  EdgeTruthFn truth);

  // Steps every session to completion, merging rounds at each barrier.
  // Results are indexed like AddQuery.
  Result<std::vector<ExecutionResult>> RunAll();

  const MultiQueryStats& stats() const { return stats_; }
  PlatformStats platform_stats() const;
  // The session for query `i` (e.g. to inspect its graph after RunAll).
  const QuerySession& session(size_t i) const { return *sessions_.at(i); }
  size_t num_sessions() const { return sessions_.size(); }

 private:
  class Channel;

  // RunAll's round loop: steps and merges until no session parks.
  Status RunRounds();
  bool Parked(size_t session) const {
    return sessions_[session]->phase() == SessionPhase::kPublish;
  }
  // Maps (session, local task) onto the shared id space, registering the
  // subscription; reuses the global id of an identical earlier ask.
  TaskId ResolveGlobal(size_t session, const Task& task, bool* existed);
  std::string DedupKey(size_t session, const Task& task) const;
  // Publishes session-private tasks (golden warm-up, reposts) immediately,
  // returning this session's translated answers; extra copies for other
  // subscribers land in their late queues.
  Result<std::vector<Answer>> DirectPublish(size_t session,
                                            const std::vector<Task>& tasks);
  // The one answer fan-out: caches each answer under its global id and
  // hands every subscriber a copy under its local id, skipping a subscriber
  // that deduced the edge unless it is `asker`. The asker's copies, and at
  // the merge barrier those of sessions parked at kPublish, go to the
  // subscriber's inbox; every other copy goes to its late queue.
  void FanOut(const std::vector<Answer>& answers, std::optional<size_t> asker,
              bool at_barrier);
  TaskTruth GlobalTaskTruth(const Task& task) const;

  MultiQueryOptions options_;
  // The shared market, built from options_.platform.
  PlatformPublisher platform_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<QuerySession>> sessions_;
  BudgetLedger global_budget_;
  MultiQueryStats stats_;
  StatsMirror<MultiQueryStats> mirror_;  // stats_ as `scheduler.*`.
  bool ran_ = false;

  TaskId next_global_id_ = 0;
  std::map<std::string, TaskId> key_to_global_;
  // Global id -> the first (session, task) that asked it; serves truth
  // lookups for the shared platform.
  std::map<TaskId, std::pair<size_t, Task>> global_owner_;
  // Global id -> (session, local id) pairs that want its answers.
  std::map<TaskId, std::vector<std::pair<size_t, TaskId>>> subscribers_;
  // Global id -> every answer seen so far (serves later duplicate asks).
  std::map<TaskId, std::vector<Answer>> answer_cache_;
  // (global task, session) pairs already counted under dedup_tasks_saved, so
  // each redundant answer stream is a single saving, not one per answer.
  std::set<std::pair<TaskId, size_t>> deduced_fanout_counted_;
};

}  // namespace cdb

#endif  // CDB_EXEC_SCHEDULER_H_
