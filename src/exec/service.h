// CdbService: the long-running, multi-tenant crowd-query service.
//
// The session layer (session.h) makes one query resumable; the scheduler
// (scheduler.h) merges a handful of queries onto one shared platform. The
// service is the layer above both: it ADMITS queries asynchronously, parks
// thousands of standalone sessions, and steps the runnable ones in waves on
// the shared ThreadPool, with per-tenant budgets deciding who gets in and a
// bounded queue pushing back when submitters outrun the stepper.
//
// Admission control (every rejection is a typed kResourceExhausted, never a
// crash or a silent drop — with two exceptions, both kInvalidArgument and
// both refused before the queue or any ledger is touched: a service whose
// max_live_sessions or max_pending is below 1 could never admit anything,
// and a negative query cost or tenant_budget is no budget at all):
//   - bounded submit queue: Submit() fails once max_pending entries wait;
//   - per-tenant budget: each tenant owns a BudgetLedger over crowd tasks,
//     and a query is admitted only if its declared cost fits (TrySpend —
//     all-or-nothing, so one tenant cannot strand a partial grant);
//   - live cap: admitted queries leave the queue only while fewer than
//     max_live_sessions sessions are live, which bounds memory.
//
// Fairness: each wave steps live sessions in tenant round-robin order (one
// session per tenant per turn), so a tenant with 1 query makes the same
// per-wave progress as one with 900.
//
// Shared joins: the service owns one JoinCache (similarity/join_cache.h) and
// wires it into every session it admits or restores, so each distinct crowd
// join runs once per service instead of once per session. The cache lives
// exactly as long as the service; a rebuilt service starts empty.
//
// Checkpointing: every checkpoint_interval waves the service snapshots all
// live sessions (session.h Snapshot()) into an in-memory bundle; a crashed
// service rebuilds by re-submitting each blob through SubmitRestored(). The
// crash-point sweep in tests/service_test.cc proves restore-then-run is
// byte-identical to run-straight-through.
//
// Threading: Submit()/SubmitRestored() are thread-safe producers. Everything
// else is driver-serial — one thread calls StepWave()/RunUntilDrained();
// within a wave, sessions step in parallel via ParallelFor (sessions are
// independent: each owns its platform and RNG streams, and the shared
// MetricsRegistry folds commutative integer sums), so every dump stays
// byte-identical at any num_threads.
#ifndef CDB_EXEC_SERVICE_H_
#define CDB_EXEC_SERVICE_H_

#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "cost/ledger.h"
#include "exec/session.h"
#include "similarity/join_cache.h"

namespace cdb {

struct ServiceOptions {
  // Admission control knobs (see file comment).
  int max_live_sessions = 1024;  // Concurrently-live session cap.
  int max_pending = 256;         // Bounded submit queue (backpressure).
  // Per-tenant crowd-task budget; nullopt = unlimited tenants.
  std::optional<int64_t> tenant_budget;
  // A query's admission cost when its ExecutorOptions carry no budget.
  int64_t default_query_cost = 1;
  // Snapshot all live sessions every this many waves; 0 disables.
  int checkpoint_interval = 0;
  // Wave-stepping parallelism (ParallelFor semantics: <= 0 = all hardware
  // threads, 1 = serial). Per-session state is bit-identical at any setting.
  int num_threads = 1;
  // Observability sinks (borrowed, may be null). The service publishes its
  // ServiceStats as integer `service.*` counters, plus the `simjoin.*`
  // funnel of each join its shared cache runs (once per distinct join, not
  // once per session) — wall-clock latency histograms live in
  // bench/bench_service.cc so MetricsDump stays deterministic.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

// Integer accounting for the service loop, and the only place it is counted:
// the `service.*` counters are published from it (kServiceStatFields) when
// Enqueue, StepWave() or CheckpointAll() returns.
struct ServiceStats {
  int64_t submitted = 0;        // Submit() calls that were admitted to queue.
  int64_t rejected_queue = 0;   // Typed rejections: queue full.
  int64_t rejected_budget = 0;  // Typed rejections: tenant budget exhausted.
  int64_t admitted = 0;         // Sessions that became live.
  int64_t completed = 0;        // Sessions that finished with a result.
  int64_t failed = 0;           // Sessions retired with an error status.
  int64_t steps = 0;            // Session phase-steps executed.
  int64_t waves = 0;            // StepWave() calls.
  int64_t checkpoints = 0;      // Checkpoint bundles taken.
  int64_t checkpoint_bytes = 0; // Total bytes across all bundles.
};

// Every ServiceStats field, under the name of its `service.<name>` counter.
inline constexpr StatField<ServiceStats> kServiceStatFields[] = {
    {"submitted", &ServiceStats::submitted},
    {"rejected_queue", &ServiceStats::rejected_queue},
    {"rejected_budget", &ServiceStats::rejected_budget},
    {"admitted", &ServiceStats::admitted},
    {"completed", &ServiceStats::completed},
    {"failed", &ServiceStats::failed},
    {"steps", &ServiceStats::steps},
    {"waves", &ServiceStats::waves},
    {"checkpoints", &ServiceStats::checkpoints},
    {"checkpoint_bytes", &ServiceStats::checkpoint_bytes},
};
static_assert(sizeof(ServiceStats) ==
                  std::size(kServiceStatFields) * sizeof(int64_t),
              "every ServiceStats field needs a kServiceStatFields row");

class CdbService {
 public:
  explicit CdbService(const ServiceOptions& options);
  ~CdbService();
  CdbService(const CdbService&) = delete;
  CdbService& operator=(const CdbService&) = delete;

  // Queues one query for execution under `tenant`'s budget. Thread-safe.
  // Returns the service-assigned session id, or kResourceExhausted when the
  // queue is full / the tenant's budget cannot cover the query's cost, or
  // kInvalidArgument when an admission cap is below 1 or the query's cost
  // or the tenant budget is negative.
  // `query` must outlive the service (sessions borrow it).
  Result<int64_t> Submit(std::string_view tenant, const ResolvedQuery* query,
                         const ExecutorOptions& options, EdgeTruthFn truth)
      CDB_EXCLUDES(mutex_);

  // As Submit(), but the session rehydrates from `snapshot` (a
  // QuerySession::Snapshot() blob) at admission instead of starting fresh.
  // A corrupt blob surfaces as the session's terminal status, not a crash.
  Result<int64_t> SubmitRestored(std::string_view tenant,
                                 const ResolvedQuery* query,
                                 const ExecutorOptions& options,
                                 EdgeTruthFn truth, std::string snapshot)
      CDB_EXCLUDES(mutex_);

  // Driver-serial. Admits from the queue up to the live cap, steps every
  // live session one phase (tenant round-robin order, ParallelFor inside),
  // retires finished ones, and takes a periodic checkpoint. Returns the
  // number of sessions stepped (0 = nothing live or queued).
  int64_t StepWave() CDB_EXCLUDES(mutex_);

  // Driver-serial: waves until no session is live or queued.
  void RunUntilDrained() CDB_EXCLUDES(mutex_);

  // True while any session is live or queued. Driver-serial.
  bool HasWork() const CDB_EXCLUDES(mutex_);

  // The finished session's result (or its terminal error). Draining: a
  // second call for the same id returns kNotFound. Driver-serial.
  Result<ExecutionResult> TakeResult(int64_t session_id);

  // Snapshots every live session now: id -> blob. Also the periodic-
  // checkpoint body. Driver-serial.
  std::map<int64_t, std::string> CheckpointAll();

  // The most recent checkpoint bundle (periodic or manual). Driver-serial.
  const std::map<int64_t, std::string>& last_checkpoint() const {
    return last_checkpoint_;
  }

  ServiceStats stats() const CDB_EXCLUDES(mutex_);

  int64_t num_live() const { return static_cast<int64_t>(live_.size()); }
  int64_t num_pending() const CDB_EXCLUDES(mutex_);

 private:
  struct PendingQuery {
    int64_t id = 0;
    std::string tenant;
    const ResolvedQuery* query = nullptr;
    ExecutorOptions options;
    EdgeTruthFn truth;
    std::string snapshot;  // Empty = fresh session.
    bool restored = false;
  };

  struct LiveSession {
    std::string tenant;
    std::unique_ptr<QuerySession> session;
  };

  // Admission cost of one query under the tenant ledger (see file comment).
  int64_t QueryCost(const ExecutorOptions& options) const;
  // Queue-side admission shared by Submit/SubmitRestored.
  Result<int64_t> Enqueue(PendingQuery pending) CDB_EXCLUDES(mutex_);
  // Moves queued queries into live_ while the live cap allows.
  void AdmitFromQueue() CDB_EXCLUDES(mutex_);
  // Live session ids, one per tenant per turn (wave fairness).
  std::vector<int64_t> WaveOrder() const;

  const ServiceOptions options_;
  // Crowd-join results shared by every session this service admits or
  // restores (see file comment). Self-locking; counts into options_.metrics.
  JoinCache join_cache_;

  mutable Mutex mutex_;
  std::deque<PendingQuery> pending_ CDB_GUARDED_BY(mutex_);
  int64_t next_id_ CDB_GUARDED_BY(mutex_) = 1;
  // The submitted/rejected fields, written by Enqueue under the lock (the
  // driver fields stay zero here), and their registry view.
  ServiceStats queue_stats_ CDB_GUARDED_BY(mutex_);
  StatsMirror<ServiceStats> queue_mirror_ CDB_GUARDED_BY(mutex_);
  // Tenant ledgers live for the service's lifetime (ledgers are shared with
  // no one and BudgetLedger is self-locking, so Submit holds mutex_ only for
  // queue state).
  std::map<std::string, std::unique_ptr<BudgetLedger>, std::less<>>
      tenants_ CDB_GUARDED_BY(mutex_);

  // Driver-serial state (see file comment).
  std::map<int64_t, LiveSession> live_;
  std::map<int64_t, Result<ExecutionResult>> finished_;
  std::map<int64_t, std::string> last_checkpoint_;
  // The driver fields (the submitted/rejected ones stay zero here), and
  // their registry view.
  ServiceStats driver_stats_;
  StatsMirror<ServiceStats> driver_mirror_;
};

}  // namespace cdb

#endif  // CDB_EXEC_SERVICE_H_
