#include "exec/service.h"

#include <optional>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace cdb {

CdbService::CdbService(const ServiceOptions& options)
    : options_(options),
      join_cache_(options.metrics),
      queue_mirror_(options.metrics, "service.", kServiceStatFields),
      driver_mirror_(options.metrics, "service.", kServiceStatFields) {}

CdbService::~CdbService() = default;

int64_t CdbService::QueryCost(const ExecutorOptions& options) const {
  return options.budget.value_or(options_.default_query_cost);
}

Result<int64_t> CdbService::Enqueue(PendingQuery pending) {
  // A cap below 1 admits nothing: the query would wait forever (live cap)
  // or every retry would be refused (queue cap).
  if (options_.max_live_sessions < 1 || options_.max_pending < 1) {
    return Status::InvalidArgument(
        "service admission caps must be >= 1 (max_live_sessions=" +
        std::to_string(options_.max_live_sessions) +
        ", max_pending=" + std::to_string(options_.max_pending) + ")");
  }
  // A negative amount is no budget: the ledger would refuse it with a crash.
  const int64_t cost = QueryCost(pending.options);
  if (cost < 0 || options_.tenant_budget.value_or(0) < 0) {
    return Status::InvalidArgument(
        "query cost (" + std::to_string(cost) + ") and tenant_budget (" +
        std::to_string(options_.tenant_budget.value_or(0)) +
        ") must not be negative");
  }
  MutexLock lock(mutex_);
  if (static_cast<int>(pending_.size()) >= options_.max_pending) {
    ++queue_stats_.rejected_queue;
    queue_mirror_.Publish(queue_stats_);
    return Status::ResourceExhausted(
        "service submit queue is full (max_pending=" +
        std::to_string(options_.max_pending) + "); retry after a wave");
  }
  auto it = tenants_.find(pending.tenant);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(pending.tenant,
                      std::make_unique<BudgetLedger>(options_.tenant_budget))
             .first;
  }
  // All-or-nothing: a rejected query must not strand a partial grant.
  if (!it->second->TrySpend(cost)) {
    ++queue_stats_.rejected_budget;
    queue_mirror_.Publish(queue_stats_);
    return Status::ResourceExhausted(
        "tenant '" + pending.tenant + "' budget cannot cover query cost " +
        std::to_string(cost));
  }
  const int64_t id = next_id_++;
  pending.id = id;
  ++queue_stats_.submitted;
  queue_mirror_.Publish(queue_stats_);
  pending_.push_back(std::move(pending));
  return id;
}

Result<int64_t> CdbService::Submit(std::string_view tenant,
                                   const ResolvedQuery* query,
                                   const ExecutorOptions& options,
                                   EdgeTruthFn truth) {
  PendingQuery pending;
  pending.tenant = std::string(tenant);
  pending.query = query;
  pending.options = options;
  pending.truth = std::move(truth);
  return Enqueue(std::move(pending));
}

Result<int64_t> CdbService::SubmitRestored(std::string_view tenant,
                                           const ResolvedQuery* query,
                                           const ExecutorOptions& options,
                                           EdgeTruthFn truth,
                                           std::string snapshot) {
  PendingQuery pending;
  pending.tenant = std::string(tenant);
  pending.query = query;
  pending.options = options;
  pending.truth = std::move(truth);
  pending.snapshot = std::move(snapshot);
  pending.restored = true;
  return Enqueue(std::move(pending));
}

void CdbService::AdmitFromQueue() {
  std::vector<PendingQuery> admitted;
  {
    MutexLock lock(mutex_);
    while (!pending_.empty() &&
           static_cast<int>(live_.size()) + static_cast<int>(admitted.size()) <
               options_.max_live_sessions) {
      admitted.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
  }
  // Session construction (graph options copy, platform wiring) happens
  // outside the lock so submitters are never stalled behind it.
  for (PendingQuery& p : admitted) {
    // Every session shares the service's joins unless its caller wired a
    // cache of its own (as StepBuildGraph routes sim_metrics).
    if (p.options.graph.join_cache == nullptr) {
      p.options.graph.join_cache = &join_cache_;
    }
    auto session = std::make_unique<QuerySession>(p.query, p.options,
                                                 std::move(p.truth));
    if (p.restored) {
      Status restored = session->Restore(p.snapshot);
      if (!restored.ok()) {
        finished_.emplace(p.id, Result<ExecutionResult>(std::move(restored)));
        ++driver_stats_.failed;
        continue;
      }
    }
    ++driver_stats_.admitted;
    live_.emplace(p.id, LiveSession{std::move(p.tenant), std::move(session)});
  }
}

std::vector<int64_t> CdbService::WaveOrder() const {
  // Group by tenant (std::map: deterministic order), then deal one session
  // per tenant per turn so every tenant advances at the same per-wave rate.
  std::map<std::string, std::vector<int64_t>> by_tenant;
  for (const auto& [id, live] : live_) {
    by_tenant[live.tenant].push_back(id);
  }
  std::vector<int64_t> order;
  order.reserve(live_.size());
  size_t turn = 0;
  for (bool dealt = true; dealt; ++turn) {
    dealt = false;
    for (const auto& [tenant, ids] : by_tenant) {
      if (turn < ids.size()) {
        order.push_back(ids[turn]);
        dealt = true;
      }
    }
  }
  return order;
}

int64_t CdbService::StepWave() {
  WallTimer timer;
  AdmitFromQueue();
  const std::vector<int64_t> order = WaveOrder();

  // Step every live session one phase. Sessions are independent (own
  // platform, own RNG streams), so parallel waves leave per-session state
  // bit-identical to serial ones; disjoint slots collect the outcomes.
  std::vector<std::optional<Result<bool>>> outcomes(order.size());
  ParallelFor(
      0, static_cast<int64_t>(order.size()), /*grain=*/1,
      [&](int64_t begin, int64_t end, int /*worker*/) {
        for (int64_t i = begin; i < end; ++i) {
          outcomes[static_cast<size_t>(i)] =
              live_.at(order[static_cast<size_t>(i)]).session->Step();
        }
      },
      options_.num_threads);

  for (size_t i = 0; i < order.size(); ++i) {
    const int64_t id = order[i];
    Result<bool>& outcome = *outcomes[i];
    if (!outcome.ok()) {
      finished_.emplace(id, Result<ExecutionResult>(outcome.status()));
      ++driver_stats_.failed;
      live_.erase(id);
      continue;
    }
    if (!outcome.value()) {
      finished_.emplace(id, Result<ExecutionResult>(
                                live_.at(id).session->TakeResult()));
      ++driver_stats_.completed;
      live_.erase(id);
    }
  }

  const int64_t stepped = static_cast<int64_t>(order.size());
  driver_stats_.steps += stepped;
  ++driver_stats_.waves;

  if (options_.checkpoint_interval > 0 &&
      driver_stats_.waves % options_.checkpoint_interval == 0 &&
      !live_.empty()) {
    CheckpointAll();
  }

  if (options_.tracer != nullptr) {
    const int64_t wave = driver_stats_.waves;
    options_.tracer->AddSpan(
        "service.wave", "service", wave - 1, wave,
        options_.tracer->record_wall() ? timer.ElapsedMicros() : -1);
  }
  driver_mirror_.Publish(driver_stats_);
  return stepped;
}

void CdbService::RunUntilDrained() {
  while (HasWork()) StepWave();
}

bool CdbService::HasWork() const {
  if (!live_.empty()) return true;
  MutexLock lock(mutex_);
  return !pending_.empty();
}

Result<ExecutionResult> CdbService::TakeResult(int64_t session_id) {
  auto it = finished_.find(session_id);
  if (it == finished_.end()) {
    return Status::NotFound("no finished session with id " +
                            std::to_string(session_id));
  }
  Result<ExecutionResult> result = std::move(it->second);
  finished_.erase(it);
  return result;
}

std::map<int64_t, std::string> CdbService::CheckpointAll() {
  std::map<int64_t, std::string> bundle;
  int64_t bytes = 0;
  for (const auto& [id, live] : live_) {
    std::string blob = live.session->Snapshot();
    bytes += static_cast<int64_t>(blob.size());
    bundle.emplace(id, std::move(blob));
  }
  ++driver_stats_.checkpoints;
  driver_stats_.checkpoint_bytes += bytes;
  driver_mirror_.Publish(driver_stats_);
  last_checkpoint_ = bundle;
  return bundle;
}

ServiceStats CdbService::stats() const {
  ServiceStats stats = driver_stats_;
  MutexLock lock(mutex_);
  stats.submitted = queue_stats_.submitted;
  stats.rejected_queue = queue_stats_.rejected_queue;
  stats.rejected_budget = queue_stats_.rejected_budget;
  return stats;
}

int64_t CdbService::num_pending() const {
  MutexLock lock(mutex_);
  return static_cast<int64_t>(pending_.size());
}

}  // namespace cdb
