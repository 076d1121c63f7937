#include "exec/scheduler.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace cdb {

// The per-session TaskPublisher: session-private traffic (golden warm-up,
// Collect-phase reposts) and fault-layer drains, translated between the
// session's local task ids and the scheduler's shared id space.
class MultiQueryScheduler::Channel : public TaskPublisher {
 public:
  Channel(MultiQueryScheduler* scheduler, size_t session)
      : scheduler_(scheduler), session_(session) {}

  Result<std::vector<Answer>> Publish(const std::vector<Task>& tasks,
                                      const AssignmentPolicy* /*policy*/,
                                      const AnswerObserver* /*observer*/) override {
    return scheduler_->DirectPublish(session_, tasks);
  }

  std::vector<Answer> TakeLateAnswers() override {
    scheduler_->RouteLateAnswers();
    std::vector<Answer> out;
    out.swap(scheduler_->pending_late_[session_]);
    return out;
  }

  std::vector<TaskId> TakeDeadLetters() override {
    // Dead letters carry global ids; translate for every subscriber so each
    // session's retry logic sees its own task ids.
    for (TaskId g : scheduler_->platform_->TakeDeadLetters()) {
      auto it = scheduler_->subscribers_.find(g);
      if (it == scheduler_->subscribers_.end()) continue;
      for (const auto& [j, local] : it->second) {
        scheduler_->pending_dead_[j].push_back(local);
      }
    }
    std::vector<TaskId> out;
    out.swap(scheduler_->pending_dead_[session_]);
    return out;
  }

  void AdvanceTicks(int64_t ticks) override {
    // The clock is shared: one session's retry backoff advances time for
    // every co-scheduled query.
    scheduler_->platform_->AdvanceTicks(ticks);
  }

  int effective_redundancy() const override {
    const CrowdPlatform& platform = *scheduler_->platform_;
    return std::min(platform.options().redundancy,
                    static_cast<int>(platform.workers().size()));
  }

  PlatformStats stats() const override { return scheduler_->platform_->stats(); }

 private:
  MultiQueryScheduler* scheduler_;
  size_t session_;
};

MultiQueryScheduler::MultiQueryScheduler(const MultiQueryOptions& options)
    : options_(options),
      global_budget_(options.global_budget),
      mirror_(options.metrics, "scheduler.", kSchedulerStatFields) {
  options_.platform.metrics = options_.metrics;
  options_.platform.tracer = options_.tracer;
  platform_ = std::make_unique<CrowdPlatform>(
      options_.platform,
      [this](const Task& task) { return GlobalTaskTruth(task); });
}

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
  pending_late_.emplace_back();
  pending_dead_.emplace_back();
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
  const bool dedupable = options_.dedup_tasks &&
                         task.type == TaskType::kSingleChoice &&
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

bool MultiQueryScheduler::SkipDeducedFanout(size_t session, TaskId global,
                                            TaskId local) {
  // A session that already deduced this edge's color from transitive closure
  // no longer needs the shared answers: delivering them anyway would either
  // be ignored or promote the edge back into the reconcile path one answer
  // at a time. The answers stay cached for other subscribers.
  if (!sessions_[session]->HoldsDeducedColorFor(local)) return false;
  if (deduced_fanout_counted_.insert({global, session}).second) {
    ++stats_.dedup_tasks_saved;
  }
  return true;
}

void MultiQueryScheduler::RouteLateAnswers() {
  for (const Answer& answer : platform_->TakeLateAnswers()) {
    answer_cache_[answer.task].push_back(answer);
    auto it = subscribers_.find(answer.task);
    if (it == subscribers_.end()) continue;
    for (const auto& [j, local] : it->second) {
      if (SkipDeducedFanout(j, answer.task, local)) continue;
      Answer translated = answer;
      translated.task = local;
      pending_late_[j].push_back(translated);
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
                       platform_->ExecuteRound(remapped, nullptr, nullptr));
  stats_.direct_tasks += static_cast<int64_t>(remapped.size());

  // This session gets its answers back directly; any other subscriber of a
  // shared task receives its copies out of band (its next late-answer drain
  // reconciles them).
  std::vector<Answer> own;
  for (const Answer& answer : answers) {
    answer_cache_[answer.task].push_back(answer);
    auto it = subscribers_.find(answer.task);
    if (it == subscribers_.end()) continue;
    for (const auto& [j, local] : it->second) {
      if (j != session && SkipDeducedFanout(j, answer.task, local)) continue;
      Answer translated = answer;
      translated.task = local;
      if (j == session) {
        own.push_back(std::move(translated));
      } else {
        pending_late_[j].push_back(std::move(translated));
      }
    }
  }
  return own;
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
    bool any_waiting = false;
    for (auto& session : sessions_) {
      while (!session->done() && !session->waiting_for_answers()) {
        CDB_ASSIGN_OR_RETURN(bool more, session->Step());
        if (!more) break;
      }
      any_waiting = any_waiting || session->waiting_for_answers();
    }
    if (!any_waiting) break;

    // Merge barrier: resolve every parked session's round against the dedup
    // table, the answer cache, and the global ledger.
    std::vector<SessionBatch> batches;
    std::vector<std::vector<Answer>> delivery(sessions_.size());
    std::set<TaskId> in_flight;  // Globals entering this merged round.
    for (size_t i = 0; i < sessions_.size(); ++i) {
      if (!sessions_[i]->waiting_for_answers()) continue;
      SessionBatch batch;
      batch.session = static_cast<int>(i);
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
              delivery[i].push_back(std::move(translated));
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
        batch.tasks.push_back(std::move(copy));
        in_flight.insert(g);
      }
      batches.push_back(std::move(batch));
    }

    std::vector<Task> merged = MergeRoundBatches(batches);
    if (!merged.empty()) {
      const int64_t tick_begin = platform_->stats().ticks;
      WallTimer wall;
      CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                           platform_->ExecuteRound(merged, nullptr, nullptr));
      if (options_.tracer != nullptr) {
        options_.tracer->AddSpan("scheduler.merged_round", "scheduler",
                                 tick_begin, platform_->stats().ticks,
                                 wall.ElapsedMicros());
      }
      ++stats_.merged_rounds;
      stats_.tasks_published += static_cast<int64_t>(merged.size());
      for (const Answer& answer : answers) {
        answer_cache_[answer.task].push_back(answer);
        auto it = subscribers_.find(answer.task);
        if (it == subscribers_.end()) continue;
        for (const auto& [j, local] : it->second) {
          if (SkipDeducedFanout(j, answer.task, local)) continue;
          Answer translated = answer;
          translated.task = local;
          if (sessions_[j]->waiting_for_answers()) {
            delivery[j].push_back(std::move(translated));
          } else {
            // Subscriber from an earlier round (already past kPublish):
            // reconcile out of band like a late answer.
            pending_late_[j].push_back(std::move(translated));
          }
        }
      }
    }

    for (size_t i = 0; i < sessions_.size(); ++i) {
      if (sessions_[i]->waiting_for_answers()) {
        sessions_[i]->DeliverAnswers(delivery[i]);
      }
    }
  }
  return Status::Ok();
}

PlatformStats MultiQueryScheduler::platform_stats() const {
  return platform_->stats();
}

}  // namespace cdb
