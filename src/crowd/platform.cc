#include "crowd/platform.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "common/trace.h"

namespace cdb {
namespace {

constexpr int64_t kNeverTick = std::numeric_limits<int64_t>::max();

}  // namespace

int64_t MicroDollars(double dollars) {
  return std::llround(dollars * 1e6);
}

std::string PlatformStatsDump(const PlatformStats& stats) {
  // Six decimals via integer math — byte-identical to the historical "%.6f"
  // double formatting, without depending on float rounding.
  char dollars[64];
  std::snprintf(dollars, sizeof(dollars), "%lld.%06lld",
                static_cast<long long>(stats.micro_dollars_spent / 1000000),
                static_cast<long long>(stats.micro_dollars_spent % 1000000));
  std::string out;
  for (const StatField<PlatformStats>& row : kPlatformStatFields) {
    if (row.field == &PlatformStats::micro_dollars_spent) {
      out += "dollars_spent=";
      out += dollars;
    } else {
      out += row.name;
      out += '=';
      out += std::to_string(stats.*row.field);
    }
    out += '\n';
  }
  return out;
}

CrowdPlatform::CrowdPlatform(const PlatformOptions& options, TruthProvider truth)
    : options_(options),
      truth_(std::move(truth)),
      rng_(options.seed),
      mirror_(options.metrics, "crowd.", kPlatformStatFields) {
  CDB_CHECK(options_.num_workers > 0);
  CDB_CHECK(options_.redundancy > 0);
  workers_ = MakeWorkerPool(options_.num_workers, options_.worker_quality_mean,
                            options_.worker_quality_stddev, rng_);
}

int CrowdPlatform::EffectiveRedundancy(const Task& task) const {
  int want = task.redundancy_override > 0 ? task.redundancy_override
                                          : options_.redundancy;
  return std::min(want, static_cast<int>(workers_.size()));
}

void CrowdPlatform::ChargeForTasks(const std::vector<Task>& tasks) {
  const int64_t num_tasks = static_cast<int64_t>(tasks.size());
  stats_.tasks_published += num_tasks;
  int64_t hits =
      (num_tasks + options_.tasks_per_hit - 1) / options_.tasks_per_hit;
  stats_.hits_published += hits;
  const int64_t charge = hits * MicroDollars(options_.price_per_hit);
  stats_.micro_dollars_spent += charge;
  // HITs are packed in publish order, tasks_per_hit at a time; a HIT mixing
  // batch tags is a shared (multi-query) HIT.
  for (size_t start = 0; start < tasks.size();
       start += static_cast<size_t>(options_.tasks_per_hit)) {
    size_t end = std::min(tasks.size(),
                          start + static_cast<size_t>(options_.tasks_per_hit));
    int first_tag = std::numeric_limits<int>::min();
    bool mixed = false;
    for (size_t i = start; i < end; ++i) {
      if (tasks[i].batch_tag < 0) continue;
      if (first_tag == std::numeric_limits<int>::min()) {
        first_tag = tasks[i].batch_tag;
      } else if (tasks[i].batch_tag != first_tag) {
        mixed = true;
        break;
      }
    }
    if (mixed) ++stats_.shared_hits;
  }
}

Result<std::vector<Answer>> CrowdPlatform::ExecuteRound(
    const std::vector<Task>& tasks, const AssignmentPolicy* policy,
    const AnswerObserver* observer) {
  if (tasks.empty()) return std::vector<Answer>();
  const FaultProfile& fault = options_.fault;
  if (fault.Active()) {
    if ((fault.abandon_prob > 0.0 || fault.straggler_prob > 0.0) &&
        fault.task_deadline_ticks <= 0) {
      return Status::InvalidArgument(
          "FaultProfile: abandon/straggler faults require a positive "
          "task_deadline_ticks, or expired leases would never be reposted");
    }
    if (fault.straggler_prob > 0.0 && fault.straggler_delay_ticks <= 0) {
      return Status::InvalidArgument(
          "FaultProfile: straggler_prob > 0 requires straggler_delay_ticks "
          ">= 1");
    }
    if (fault.no_show_prob >= 1.0) {
      return Status::InvalidArgument(
          "FaultProfile: no_show_prob >= 1 means no arriving worker ever "
          "takes a task, so the round would never end");
    }
  }
  const int64_t tick_begin = tick_;
  WallTimer wall;
  auto result = fault.Active() ? FaultyRound(tasks, policy, observer)
                               : CleanRound(tasks, policy, observer);
  mirror_.Publish(stats_);
  if (options_.tracer != nullptr) {
    options_.tracer->AddSpan("crowd.round", options_.market_name, tick_begin,
                             tick_, wall.ElapsedMicros());
  }
  return result;
}

Result<std::vector<Answer>> CrowdPlatform::CleanRound(
    const std::vector<Task>& tasks, const AssignmentPolicy* policy,
    const AnswerObserver* observer) {
  std::vector<Answer> answers;
  ChargeForTasks(tasks);

  std::vector<int> need(tasks.size());
  int64_t remaining = 0;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    need[ti] = EffectiveRedundancy(tasks[ti]);
    remaining += need[ti];
  }
  std::vector<std::vector<int>> answered_by(tasks.size());

  const bool use_policy =
      policy != nullptr && options_.requester_controls_assignment;
  size_t cursor = 0;  // Rotating cursor for the default round-robin mode.
  int64_t idle_arrivals = 0;

  while (remaining > 0) {
    const SimulatedWorker& worker = workers_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(workers_.size()) - 1))];
    auto worker_did = [&](size_t ti) {
      return std::find(answered_by[ti].begin(), answered_by[ti].end(),
                       worker.id()) != answered_by[ti].end();
    };

    std::vector<size_t> chosen;
    if (use_policy) {
      // Offer the full list of tasks this worker can still answer.
      std::vector<TaskId> available_ids;
      std::vector<size_t> available_idx;
      for (size_t ti = 0; ti < tasks.size(); ++ti) {
        if (need[ti] > 0 && !worker_did(ti)) {
          available_ids.push_back(tasks[ti].id);
          available_idx.push_back(ti);
        }
      }
      if (!available_ids.empty()) {
        std::vector<size_t> picks =
            (*policy)(worker, available_ids, options_.tasks_per_request);
        for (size_t p : picks) {
          CDB_CHECK(p < available_idx.size());
          chosen.push_back(available_idx[p]);
        }
      }
    } else {
      // Round-robin over needy tasks starting at the cursor.
      for (size_t step = 0;
           step < tasks.size() &&
           chosen.size() < static_cast<size_t>(options_.tasks_per_request);
           ++step) {
        size_t ti = (cursor + step) % tasks.size();
        if (need[ti] > 0 && !worker_did(ti)) chosen.push_back(ti);
      }
      cursor = (cursor + options_.tasks_per_request) % tasks.size();
    }

    bool progressed = false;
    for (size_t ti : chosen) {
      if (need[ti] <= 0 || worker_did(ti)) continue;
      Answer answer = worker.AnswerTask(tasks[ti], truth_(tasks[ti]), rng_);
      answer.tick = tick_;
      answered_by[ti].push_back(worker.id());
      --need[ti];
      --remaining;
      ++stats_.answers_collected;
      progressed = true;
      if (observer != nullptr) (*observer)(answer);
      answers.push_back(std::move(answer));
    }

    if (progressed) {
      idle_arrivals = 0;
      continue;
    }
    // No answer was recorded this arrival — either the worker had nothing
    // left or the policy kept picking tasks the worker already answered.
    // Before this guard covered only empty picks, so a policy repeatedly
    // returning already-answered tasks spun forever; now sustained
    // no-progress is a typed error instead of a livelock or a silent
    // partial round.
    if (++idle_arrivals > static_cast<int64_t>(workers_.size()) * 4) {
      int64_t unmet = 0;
      for (int n : need) unmet += n > 0 ? 1 : 0;
      return Status::FailedPrecondition(
          "crowd exhausted: " + std::to_string(unmet) + " of " +
          std::to_string(tasks.size()) +
          " tasks still need answers but no arriving worker can make "
          "progress");
    }
  }
  return answers;
}

Result<std::vector<Answer>> CrowdPlatform::FaultyRound(
    const std::vector<Task>& tasks, const AssignmentPolicy* policy,
    const AnswerObserver* observer) {
  std::vector<Answer> answers;
  ChargeForTasks(tasks);
  const FaultProfile& fault = options_.fault;
  const size_t num_workers = workers_.size();

  struct TaskState {
    int need = 0;         // Answers still wanted.
    int outstanding = 0;  // Active leases not yet delivered/expired.
    int expiries = 0;     // Expired leases so far (dead-letter cap input).
    bool dead = false;
    size_t attempts = 0;  // Distinct workers that ever leased this task.
  };
  // A lease either delivers on time, delivers late, or is abandoned; the
  // fate plus any straggler delay are drawn once at grant time from the
  // lease's own (seed, lease_seq) stream.
  struct Lease {
    size_t ti = 0;
    int64_t deadline = kNeverTick;
    int64_t deliver_tick = kNeverTick;  // kNeverTick = abandoned.
    bool duplicate = false;
    bool expired = false;
    bool settled = false;  // Delivered (on time or late).
    Answer answer;
  };

  std::vector<TaskState> state(tasks.size());
  // Row ti has one bit per worker position, set once that worker leased
  // task ti.
  const size_t row_words = (num_workers + 63) / 64;
  std::vector<uint64_t> attempted(tasks.size() * row_words, 0);
  // Ascending lists that stand in for scans over every task. `open` holds
  // each task that is neither dead nor resolved, plus some that became so
  // since the policy scan last compacted it. `exhausted` holds the tasks
  // every worker has attempted: the only ones the starvation check can
  // dead-letter.
  std::vector<size_t> open;
  std::vector<size_t> exhausted;
  int64_t unresolved = 0;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    state[ti].need = EffectiveRedundancy(tasks[ti]);
    if (state[ti].need > 0) {
      ++unresolved;
      open.push_back(ti);
    }
  }
  std::vector<Lease> leases;
  // (tick -> lease index) queues, processed in deterministic order.
  std::multimap<int64_t, size_t> deliveries;
  std::multimap<int64_t, size_t> expiries;
  // Per-arrival buffers, reused across ticks.
  std::vector<TaskId> available_ids;
  std::vector<size_t> available_idx;
  std::vector<size_t> chosen;

  const bool use_policy =
      policy != nullptr && options_.requester_controls_assignment;
  size_t cursor = 0;
  int64_t idle_arrivals = 0;

  auto resolve_task = [&](size_t ti) {
    if (state[ti].need <= 0 && !state[ti].dead) --unresolved;
  };
  auto dead_letter_task = [&](size_t ti) {
    if (state[ti].dead || state[ti].need <= 0) return;
    state[ti].dead = true;
    dead_letter_.push_back(tasks[ti].id);
    ++stats_.dead_lettered;
    --unresolved;
  };
  auto deliver = [&](Lease& lease, bool on_time) {
    lease.settled = true;
    Answer answer = lease.answer;
    answer.tick = tick_;
    if (on_time) {
      --state[lease.ti].need;
      ++delivered_per_task_[answer.task];
      ++stats_.answers_collected;
      if (observer != nullptr) (*observer)(answer);
      answers.push_back(answer);
      if (lease.duplicate) {
        // Platform glitch: the same assignment is delivered twice; the
        // requester must de-duplicate by (task, worker).
        ++stats_.duplicates;
        ++stats_.answers_collected;
        if (observer != nullptr) (*observer)(answer);
        answers.push_back(answer);
      }
      resolve_task(lease.ti);
    } else {
      answer.late = true;
      ++stats_.late_answers;
      late_answers_.push_back(std::move(answer));
    }
  };

  while (unresolved > 0 || !deliveries.empty()) {
    ++tick_;
    ++stats_.ticks;

    // 1. Expire leases whose deadline has passed without delivery. The slot
    // returns to the pool (a platform-side repost) until the task hits the
    // dead-letter cap.
    while (!expiries.empty() && expiries.begin()->first < tick_) {
      Lease& lease = leases[expiries.begin()->second];
      expiries.erase(expiries.begin());
      if (lease.settled || lease.expired) continue;
      lease.expired = true;
      TaskState& ts = state[lease.ti];
      --ts.outstanding;
      ++ts.expiries;
      ++stats_.expiries;
      if (lease.deliver_tick == kNeverTick) ++stats_.abandons;
      if (!ts.dead && ts.need > 0) {
        if (ts.expiries > fault.max_task_expiries) {
          dead_letter_task(lease.ti);
        } else {
          ++stats_.reposts;
        }
      }
    }

    // 2. Deliver answers due this tick. A delivery is on time iff its lease
    // has not expired and its task still wants answers; otherwise it goes to
    // the late buffer.
    while (!deliveries.empty() && deliveries.begin()->first <= tick_) {
      Lease& lease = leases[deliveries.begin()->second];
      deliveries.erase(deliveries.begin());
      if (lease.settled) continue;
      TaskState& ts = state[lease.ti];
      bool on_time = !lease.expired && !ts.dead && ts.need > 0;
      if (!lease.expired) --ts.outstanding;
      deliver(lease, on_time);
      idle_arrivals = 0;
    }

    if (unresolved == 0) continue;  // Drain remaining in-flight deliveries.

    // 3. Starvation check: a task with open slots that every worker has
    // already attempted can never complete — dead-letter it now. A task
    // leaves `exhausted` once it is dead or resolved.
    size_t kept = 0;
    for (size_t ti : exhausted) {
      TaskState& ts = state[ti];
      if (!ts.dead && ts.need > ts.outstanding) dead_letter_task(ti);
      if (!ts.dead && ts.need > 0) exhausted[kept++] = ti;
    }
    exhausted.resize(kept);
    if (unresolved == 0) continue;

    // 4. One worker arrival per tick.
    const size_t w = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(num_workers) - 1));
    const SimulatedWorker& worker = workers_[w];
    if (ShortStream(options_.seed ^ kNoShowSalt, static_cast<uint64_t>(tick_))
            .Bernoulli(fault.no_show_prob)) {
      ++stats_.no_shows;
      ++idle_arrivals;
      continue;
    }
    uint64_t* const worker_word = attempted.data() + w / 64;
    const uint64_t worker_bit = uint64_t{1} << (w % 64);
    auto worker_attempted = [&](size_t ti) {
      return (worker_word[ti * row_words] & worker_bit) != 0;
    };
    auto leasable = [&](size_t ti) {
      return !state[ti].dead && state[ti].need > state[ti].outstanding &&
             !worker_attempted(ti);
    };

    chosen.clear();
    if (use_policy) {
      // Offer the leasable tasks in ascending order, dropping the tasks that
      // died or resolved from `open` on the way.
      available_ids.clear();
      available_idx.clear();
      kept = 0;
      for (size_t ti : open) {
        if (state[ti].dead || state[ti].need <= 0) continue;
        open[kept++] = ti;
        if (leasable(ti)) {
          available_ids.push_back(tasks[ti].id);
          available_idx.push_back(ti);
        }
      }
      open.resize(kept);
      if (!available_ids.empty()) {
        std::vector<size_t> picks =
            (*policy)(worker, available_ids, options_.tasks_per_request);
        for (size_t p : picks) {
          CDB_CHECK(p < available_idx.size());
          chosen.push_back(available_idx[p]);
        }
      }
    } else {
      for (size_t step = 0;
           step < tasks.size() &&
           chosen.size() < static_cast<size_t>(options_.tasks_per_request);
           ++step) {
        size_t ti = (cursor + step) % tasks.size();
        if (leasable(ti)) chosen.push_back(ti);
      }
      cursor = (cursor + options_.tasks_per_request) % tasks.size();
    }

    bool granted = false;
    for (size_t ti : chosen) {
      if (!leasable(ti)) continue;
      TaskState& ts = state[ti];
      worker_word[ti * row_words] |= worker_bit;
      if (++ts.attempts == num_workers) {
        exhausted.insert(
            std::lower_bound(exhausted.begin(), exhausted.end(), ti), ti);
      }
      ++stats_.leases_granted;
      ++lease_seq_;
      granted = true;

      // The lease's fate comes from its own stream: a pure function of
      // (platform seed, lease sequence number).
      ShortStream fault_rng(options_.seed ^ kLeaseFaultSalt,
                            static_cast<uint64_t>(lease_seq_));
      bool abandoned = fault_rng.Bernoulli(fault.abandon_prob);
      int64_t delay = 0;
      if (!abandoned && fault_rng.Bernoulli(fault.straggler_prob)) {
        delay = fault_rng.UniformInt(1, 2 * fault.straggler_delay_ticks);
      }
      bool duplicate = !abandoned && fault_rng.Bernoulli(fault.duplicate_prob);

      Lease lease;
      lease.ti = ti;
      lease.deadline = fault.task_deadline_ticks > 0
                           ? tick_ + fault.task_deadline_ticks
                           : kNeverTick;
      lease.duplicate = duplicate;
      if (abandoned) {
        lease.deliver_tick = kNeverTick;
        ++ts.outstanding;
        leases.push_back(std::move(lease));
        expiries.insert({leases.back().deadline, leases.size() - 1});
        continue;
      }
      lease.answer = worker.AnswerTask(tasks[ti], truth_(tasks[ti]), rng_);
      lease.deliver_tick = tick_ + delay;
      if (delay == 0) {
        leases.push_back(std::move(lease));
        deliver(leases.back(), /*on_time=*/true);
      } else {
        ++ts.outstanding;
        leases.push_back(std::move(lease));
        deliveries.insert({leases.back().deliver_tick, leases.size() - 1});
        if (leases.back().deadline != kNeverTick) {
          expiries.insert({leases.back().deadline, leases.size() - 1});
        }
      }
    }

    if (granted) {
      idle_arrivals = 0;
    } else if (++idle_arrivals > static_cast<int64_t>(num_workers) * 8 &&
               deliveries.empty()) {
      // Sustained no-progress (e.g. a policy that never picks a leasable
      // task) with nothing in flight: give the remaining tasks up to the
      // dead-letter queue instead of spinning. The requester's retry policy
      // decides whether to repost them.
      for (size_t ti = 0; ti < tasks.size(); ++ti) dead_letter_task(ti);
    }
  }

  // Drain: abandoned leases still active when the round resolves would have
  // expired eventually; settle them now so the conservation law
  // (leases == on-time + late + abandons) holds at every round boundary.
  for (Lease& lease : leases) {
    if (lease.settled || lease.expired) continue;
    CDB_CHECK(lease.deliver_tick == kNeverTick);
    lease.expired = true;
    --state[lease.ti].outstanding;
    ++stats_.expiries;
    ++stats_.abandons;
  }
  return answers;
}

namespace {

// Answer travels in snapshots with every field: the late buffer carries
// tick/late metadata the requester's reconciliation depends on.
void PutAnswer(ByteWriter& writer, const Answer& answer) {
  writer.PutI64(answer.task);
  writer.PutI32(answer.worker);
  writer.PutI32(answer.choice);
  writer.PutU32(static_cast<uint32_t>(answer.choice_set.size()));
  for (int choice : answer.choice_set) writer.PutI32(choice);
  writer.PutString(answer.text);
  writer.PutI64(answer.tick);
  writer.PutBool(answer.late);
}

Status GetAnswer(ByteReader& reader, Answer* answer) {
  CDB_RETURN_IF_ERROR(reader.GetI64(&answer->task));
  CDB_RETURN_IF_ERROR(reader.GetI32(&answer->worker));
  CDB_RETURN_IF_ERROR(reader.GetI32(&answer->choice));
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  answer->choice_set.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CDB_RETURN_IF_ERROR(reader.GetI32(&answer->choice_set[i]));
  }
  CDB_RETURN_IF_ERROR(reader.GetString(&answer->text));
  CDB_RETURN_IF_ERROR(reader.GetI64(&answer->tick));
  CDB_RETURN_IF_ERROR(reader.GetBool(&answer->late));
  return Status::Ok();
}

}  // namespace

void SnapshotPlatformStats(ByteWriter& writer, const PlatformStats& stats) {
  for (const StatField<PlatformStats>& row : kPlatformStatFields) {
    writer.PutI64(stats.*row.field);
  }
}

Status RestorePlatformStats(ByteReader& reader, PlatformStats* stats) {
  for (const StatField<PlatformStats>& row : kPlatformStatFields) {
    CDB_RETURN_IF_ERROR(reader.GetI64(&(stats->*row.field)));
  }
  return Status::Ok();
}

void CrowdPlatform::SnapshotState(ByteWriter& writer) const {
  // Identity guard: a snapshot only restores onto a platform built from the
  // same seed and worker pool (the pool is drawn from the seed at
  // construction, so these two fields pin the whole deterministic prefix).
  writer.PutU64(options_.seed);
  writer.PutI32(options_.num_workers);
  writer.PutString(rng_.SaveState());
  SnapshotPlatformStats(writer, stats_);
  writer.PutI64(tick_);
  writer.PutI64(lease_seq_);
  writer.PutU32(static_cast<uint32_t>(late_answers_.size()));
  for (const Answer& answer : late_answers_) PutAnswer(writer, answer);
  writer.PutU32(static_cast<uint32_t>(dead_letter_.size()));
  for (TaskId id : dead_letter_) writer.PutI64(id);
  writer.PutU32(static_cast<uint32_t>(delivered_per_task_.size()));
  for (const auto& [task, n] : delivered_per_task_) {
    writer.PutI64(task);
    writer.PutI64(n);
  }
}

Status CrowdPlatform::RestoreState(ByteReader& reader) {
  uint64_t seed = 0;
  int32_t num_workers = 0;
  CDB_RETURN_IF_ERROR(reader.GetU64(&seed));
  CDB_RETURN_IF_ERROR(reader.GetI32(&num_workers));
  if (seed != options_.seed || num_workers != options_.num_workers) {
    return Status::FailedPrecondition(
        "platform snapshot belongs to a different platform configuration "
        "(seed/worker-pool mismatch)");
  }
  std::string rng_state;
  CDB_RETURN_IF_ERROR(reader.GetString(&rng_state));
  CDB_RETURN_IF_ERROR(rng_.LoadState(rng_state));
  CDB_RETURN_IF_ERROR(RestorePlatformStats(reader, &stats_));
  mirror_.Rebase(stats_);
  CDB_RETURN_IF_ERROR(reader.GetI64(&tick_));
  CDB_RETURN_IF_ERROR(reader.GetI64(&lease_seq_));
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  late_answers_.assign(n, Answer{});
  for (uint32_t i = 0; i < n; ++i) {
    CDB_RETURN_IF_ERROR(GetAnswer(reader, &late_answers_[i]));
  }
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  dead_letter_.assign(n, TaskId{});
  for (uint32_t i = 0; i < n; ++i) {
    CDB_RETURN_IF_ERROR(reader.GetI64(&dead_letter_[i]));
  }
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  delivered_per_task_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    TaskId task = 0;
    int64_t count = 0;
    CDB_RETURN_IF_ERROR(reader.GetI64(&task));
    CDB_RETURN_IF_ERROR(reader.GetI64(&count));
    delivered_per_task_[task] = count;
  }
  return Status::Ok();
}

std::vector<Answer> CrowdPlatform::TakeLateAnswers() {
  std::vector<Answer> out;
  out.swap(late_answers_);
  return out;
}

std::vector<TaskId> CrowdPlatform::TakeDeadLetters() {
  std::vector<TaskId> out;
  out.swap(dead_letter_);
  return out;
}

void CrowdPlatform::AdvanceTicks(int64_t ticks) {
  CDB_CHECK(ticks >= 0);
  tick_ += ticks;
  stats_.ticks += ticks;
  mirror_.Publish(stats_);
}

MultiMarket::MultiMarket(std::vector<PlatformOptions> markets,
                         TruthProvider truth) {
  CDB_CHECK(!markets.empty());
  platforms_.reserve(markets.size());
  for (auto& options : markets) {
    platforms_.emplace_back(options, truth);
  }
}

Result<std::vector<Answer>> MultiMarket::ExecuteRound(
    const std::vector<Task>& tasks, const AssignmentPolicy* policy,
    const AnswerObserver* observer) {
  // Partition tasks round-robin across markets and merge the answers with
  // per-market worker-id offsets.
  std::vector<std::vector<Task>> partitions(platforms_.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    partitions[i % platforms_.size()].push_back(tasks[i]);
  }
  std::vector<Answer> merged;
  for (size_t m = 0; m < platforms_.size(); ++m) {
    const int offset = worker_id_offset(m);
    // The policy sees each worker under the id its answers carry, so a
    // quality estimate keyed by that id is read for the right worker.
    AssignmentPolicy offset_policy = [&](const SimulatedWorker& worker,
                                         const std::vector<TaskId>& available,
                                         int count) {
      return (*policy)(SimulatedWorker(worker.id() + offset, worker.accuracy()),
                       available, count);
    };
    AnswerObserver offset_observer = [&](const Answer& a) {
      if (observer != nullptr) {
        Answer shifted = a;
        shifted.worker += offset;
        (*observer)(shifted);
      }
    };
    CDB_ASSIGN_OR_RETURN(
        std::vector<Answer> part,
        platforms_[m].ExecuteRound(
            partitions[m], policy != nullptr ? &offset_policy : nullptr,
            observer != nullptr ? &offset_observer : nullptr));
    for (Answer& a : part) {
      a.worker += offset;
      merged.push_back(std::move(a));
    }
  }
  return merged;
}

std::vector<Answer> MultiMarket::TakeLateAnswers() {
  std::vector<Answer> merged;
  for (size_t m = 0; m < platforms_.size(); ++m) {
    const int offset = worker_id_offset(m);
    for (Answer& a : platforms_[m].TakeLateAnswers()) {
      a.worker += offset;
      merged.push_back(std::move(a));
    }
  }
  return merged;
}

std::vector<TaskId> MultiMarket::TakeDeadLetters() {
  std::vector<TaskId> merged;
  for (CrowdPlatform& platform : platforms_) {
    for (TaskId id : platform.TakeDeadLetters()) merged.push_back(id);
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

void MultiMarket::AdvanceTicks(int64_t ticks) {
  for (CrowdPlatform& platform : platforms_) platform.AdvanceTicks(ticks);
}

void MultiMarket::SnapshotState(ByteWriter& writer) const {
  writer.PutU32(static_cast<uint32_t>(platforms_.size()));
  for (const CrowdPlatform& platform : platforms_) {
    platform.SnapshotState(writer);
  }
}

Status MultiMarket::RestoreState(ByteReader& reader) {
  uint32_t n = 0;
  CDB_RETURN_IF_ERROR(reader.GetU32(&n));
  if (n != platforms_.size()) {
    return Status::FailedPrecondition(
        "multi-market snapshot has " + std::to_string(n) +
        " markets, deployment has " + std::to_string(platforms_.size()));
  }
  for (CrowdPlatform& platform : platforms_) {
    CDB_RETURN_IF_ERROR(platform.RestoreState(reader));
  }
  return Status::Ok();
}

PlatformStats MultiMarket::CombinedStats() const {
  PlatformStats total;
  for (const CrowdPlatform& platform : platforms_) {
    for (const StatField<PlatformStats>& row : kPlatformStatFields) {
      total.*row.field += platform.stats().*row.field;
    }
  }
  return total;
}

}  // namespace cdb
