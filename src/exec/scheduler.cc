#include "exec/scheduler.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace cdb {
namespace {

// Merges per-session rounds (tasks already in the shared id space and
// tagged with their session) into one publishable task list by round-robin
// interleave across sessions (task k of session A, task k of session B, ...),
// so the HIT packing downstream mixes queries instead of concatenating them —
// the cross-query batching of Marcus et al.'s shared HITs. Deterministic:
// depends only on the input order.
std::vector<Task> MergeRoundBatches(
    const std::vector<std::vector<Task>>& batches) {
  std::vector<Task> merged;
  size_t total = 0;
  size_t widest = 0;
  for (const std::vector<Task>& batch : batches) {
    total += batch.size();
    widest = std::max(widest, batch.size());
  }
  merged.reserve(total);
  for (size_t k = 0; k < widest; ++k) {
    for (const std::vector<Task>& batch : batches) {
      if (k < batch.size()) merged.push_back(batch[k]);
    }
  }
  return merged;
}

}  // namespace

// The per-session TaskPublisher: the session's round, session-private
// traffic (golden warm-up, Collect-phase reposts) and fault-layer drains,
// translated between the session's local task ids and the scheduler's
// shared id space. The assignment policy is ignored: the shared market
// assigns round-robin (the id spaces differ).
class MultiQueryScheduler::Channel : public TaskPublisher {
 public:
  Channel(MultiQueryScheduler* scheduler, size_t session)
      : scheduler_(scheduler), session_(session) {}

  Result<std::vector<Answer>> Publish(const std::vector<Task>& tasks,
                                      const AssignmentPolicy* /*policy*/,
                                      const AnswerObserver* observer) override {
    // Golden warm-up (kBuildGraph) and reposts (kCollect) publish now.
    if (!scheduler_->Parked(session_)) {
      return scheduler_->DirectPublish(session_, tasks);
    }
    // The round: the merge barrier published it and filled the inbox, so
    // the posteriors take the answers on delivery instead of per arrival.
    std::vector<Answer> answers = std::exchange(inbox, {});
    if (observer != nullptr) {
      for (const Answer& answer : answers) (*observer)(answer);
    }
    return answers;
  }

  std::vector<Answer> TakeLateAnswers() override {
    scheduler_->FanOut(scheduler_->platform_.TakeLateAnswers(), std::nullopt,
                       /*at_barrier=*/false);
    return std::exchange(late, {});
  }

  void DropDeadLetters() override { scheduler_->platform_.DropDeadLetters(); }

  void AdvanceTicks(int64_t ticks) override {
    // The clock is shared: one session's retry backoff advances time for
    // every co-scheduled query.
    scheduler_->platform_.AdvanceTicks(ticks);
  }

  int effective_redundancy() const override {
    return scheduler_->platform_.effective_redundancy();
  }

  PlatformStats stats() const override { return scheduler_->platform_.stats(); }

  // The session's translated answers: in band (what its next Publish
  // returns) and out of band (its late answers).
  std::vector<Answer> inbox;
  std::vector<Answer> late;

 private:
  MultiQueryScheduler* scheduler_;
  size_t session_;
};

namespace {

// The shared market, wired to the scheduler's observability sinks.
PlatformOptions SharedMarket(const MultiQueryOptions& options) {
  PlatformOptions market = options.platform;
  market.metrics = options.metrics;
  market.tracer = options.tracer;
  return market;
}

}  // namespace

MultiQueryScheduler::MultiQueryScheduler(const MultiQueryOptions& options)
    : options_(options),
      platform_({SharedMarket(options)},
                [this](const Task& task) { return GlobalTaskTruth(task); }),
      global_budget_(options.global_budget),
      mirror_(options.metrics, "scheduler.", kSchedulerStatFields) {}

MultiQueryScheduler::~MultiQueryScheduler() = default;

size_t MultiQueryScheduler::AddQuery(const ResolvedQuery* query,
                                     const ExecutorOptions& options,
                                     EdgeTruthFn truth) {
  CDB_CHECK_MSG(!ran_, "AddQuery after RunAll");
  size_t index = sessions_.size();
  channels_.push_back(std::make_unique<Channel>(this, index));
  // Sessions share the scheduler's sinks; the shared platform is the only
  // platform, so no count is published twice.
  ExecutorOptions session_options = options;
  session_options.metrics = options_.metrics;
  session_options.tracer = options_.tracer;
  sessions_.push_back(std::make_unique<QuerySession>(
      query, session_options, std::move(truth), channels_.back().get()));
  return index;
}

TaskTruth MultiQueryScheduler::GlobalTaskTruth(const Task& task) const {
  auto it = global_owner_.find(task.id);
  CDB_CHECK_MSG(it != global_owner_.end(),
                "shared platform asked truth for an unregistered task");
  const auto& [session, local_task] = it->second;
  return sessions_[session]->TaskTruthFor(local_task);
}

std::string MultiQueryScheduler::DedupKey(size_t session,
                                          const Task& task) const {
  // Only real query tasks (single-choice, non-negative payload, with a
  // question) dedup across sessions; golden warm-up tasks and other private
  // traffic stay per-session.
  const bool dedupable = task.type == TaskType::kSingleChoice &&
                         task.payload >= 0 && !task.question.empty();
  if (!dedupable) {
    return "s" + std::to_string(session) + "|" + std::to_string(task.id);
  }
  std::string key = "q|";
  key += task.question;
  for (const std::string& choice : task.choices) {
    key += '|';
    key += choice;
  }
  return key;
}

TaskId MultiQueryScheduler::ResolveGlobal(size_t session, const Task& task,
                                          bool* existed) {
  std::string key = DedupKey(session, task);
  auto [it, inserted] = key_to_global_.try_emplace(key, next_global_id_);
  TaskId g = it->second;
  if (inserted) {
    ++next_global_id_;
    global_owner_.emplace(g, std::make_pair(session, task));
  }
  if (existed != nullptr) *existed = !inserted;
  auto& subs = subscribers_[g];
  std::pair<size_t, TaskId> sub{session, task.id};
  if (std::find(subs.begin(), subs.end(), sub) == subs.end()) {
    subs.push_back(sub);
  }
  return g;
}

void MultiQueryScheduler::FanOut(const std::vector<Answer>& answers,
                                 std::optional<size_t> asker,
                                 bool at_barrier) {
  for (const Answer& answer : answers) {
    answer_cache_[answer.task].push_back(answer);
    auto it = subscribers_.find(answer.task);
    if (it == subscribers_.end()) continue;
    for (const auto& [j, local] : it->second) {
      // A session that already deduced this edge's color from transitive
      // closure no longer needs the shared answers: delivering them anyway
      // would either be ignored or promote the edge back into the reconcile
      // path one answer at a time. The answers stay cached for other
      // subscribers.
      if (j != asker && sessions_[j]->HoldsDeducedColorFor(local)) {
        if (deduced_fanout_counted_.insert({answer.task, j}).second) {
          ++stats_.dedup_tasks_saved;
        }
        continue;
      }
      Answer translated = answer;
      translated.task = local;
      const bool in_band = j == asker || (at_barrier && Parked(j));
      Channel& channel = *channels_[j];
      (in_band ? channel.inbox : channel.late).push_back(std::move(translated));
    }
  }
}

Result<std::vector<Answer>> MultiQueryScheduler::DirectPublish(
    size_t session, const std::vector<Task>& tasks) {
  std::vector<Task> remapped;
  remapped.reserve(tasks.size());
  for (const Task& task : tasks) {
    Task copy = task;
    copy.id = ResolveGlobal(session, task, nullptr);
    copy.batch_tag = static_cast<int>(session);
    remapped.push_back(std::move(copy));
  }
  int64_t granted = global_budget_.TryDebit(static_cast<int64_t>(remapped.size()));
  if (granted < static_cast<int64_t>(remapped.size())) {
    int64_t denied = static_cast<int64_t>(remapped.size()) - granted;
    stats_.budget_denied += denied;
    remapped.resize(static_cast<size_t>(granted));
  }
  if (remapped.empty()) return std::vector<Answer>();
  CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                       platform_.Publish(remapped, nullptr, nullptr));
  stats_.direct_tasks += static_cast<int64_t>(remapped.size());

  // This session gets its answers back directly; any other subscriber of a
  // shared task receives its copies out of band (its next late-answer drain
  // reconciles them).
  FanOut(answers, session, /*at_barrier=*/false);
  return std::exchange(channels_[session]->inbox, {});
}

Result<std::vector<ExecutionResult>> MultiQueryScheduler::RunAll() {
  CDB_CHECK_MSG(!ran_, "RunAll may only run once");
  CDB_CHECK_MSG(!sessions_.empty(), "no queries added");
  ran_ = true;
  Status status = RunRounds();
  mirror_.Publish(stats_);
  CDB_RETURN_IF_ERROR(status);

  std::vector<ExecutionResult> results;
  results.reserve(sessions_.size());
  for (auto& session : sessions_) {
    CDB_CHECK(session->done());
    results.push_back(session->TakeResult());
  }
  return results;
}

Status MultiQueryScheduler::RunRounds() {
  while (true) {
    // Advance every session until it parks at kPublish or finishes.
    bool any_parked = false;
    for (size_t i = 0; i < sessions_.size(); ++i) {
      while (!sessions_[i]->done() && !Parked(i)) {
        CDB_RETURN_IF_ERROR(sessions_[i]->Step().status());
      }
      any_parked = any_parked || Parked(i);
    }
    if (!any_parked) break;

    // Merge barrier: resolve every parked session's round against the dedup
    // table, the answer cache, and the global ledger.
    std::vector<std::vector<Task>> batches;
    std::set<TaskId> in_flight;  // Globals entering this merged round.
    for (size_t i = 0; i < sessions_.size(); ++i) {
      if (!Parked(i)) continue;
      std::vector<Task> batch;
      for (const Task& task : sessions_[i]->pending_tasks()) {
        ++stats_.tasks_requested;
        bool existed = false;
        TaskId g = ResolveGlobal(i, task, &existed);
        if (existed || in_flight.count(g) > 0) {
          // Someone already asked (or is asking) the same question: serve
          // cached answers now; in-flight answers fan out on arrival.
          auto cached = answer_cache_.find(g);
          if (cached != answer_cache_.end() && !cached->second.empty()) {
            ++stats_.cache_hits;
            for (const Answer& answer : cached->second) {
              Answer translated = answer;
              translated.task = task.id;
              channels_[i]->inbox.push_back(std::move(translated));
            }
          } else {
            ++stats_.dedup_hits;
          }
          sessions_[i]->RecordDedupSavings(1);
          continue;
        }
        if (!global_budget_.TrySpend(1)) {
          // Over budget: the ask is dropped; the session's Color phase falls
          // back to the similarity prior for this edge.
          ++stats_.budget_denied;
          continue;
        }
        Task copy = task;
        copy.id = g;
        copy.batch_tag = static_cast<int>(i);
        batch.push_back(std::move(copy));
        in_flight.insert(g);
      }
      batches.push_back(std::move(batch));
    }

    std::vector<Task> merged = MergeRoundBatches(batches);
    if (!merged.empty()) {
      const int64_t tick_begin = platform_.stats().ticks;
      WallTimer wall;
      CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                           platform_.Publish(merged, nullptr, nullptr));
      if (options_.tracer != nullptr) {
        options_.tracer->AddSpan("scheduler.merged_round", "scheduler",
                                 tick_begin, platform_.stats().ticks,
                                 wall.ElapsedMicros());
      }
      ++stats_.merged_rounds;
      stats_.tasks_published += static_cast<int64_t>(merged.size());
      // A subscriber from an earlier round (already past kPublish)
      // reconciles its copies out of band, like late answers.
      FanOut(answers, std::nullopt, /*at_barrier=*/true);
    }

    // Each parked session's Publish now returns its inbox.
    for (size_t i = 0; i < sessions_.size(); ++i) {
      if (Parked(i)) CDB_RETURN_IF_ERROR(sessions_[i]->Step().status());
    }
  }
  return Status::Ok();
}

PlatformStats MultiQueryScheduler::platform_stats() const {
  return platform_.stats();
}

}  // namespace cdb
