#include "crowd/platform.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "common/metrics.h"
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
  int64_t hits = (num_tasks + kTasksPerHit - 1) / kTasksPerHit;
  stats_.hits_published += hits;
  const int64_t charge = hits * MicroDollars(kPricePerHit);
  stats_.micro_dollars_spent += charge;
  // HITs are packed in publish order, kTasksPerHit at a time; a HIT mixing
  // batch tags is a shared (multi-query) HIT.
  for (size_t start = 0; start < tasks.size();
       start += static_cast<size_t>(kTasksPerHit)) {
    size_t end = std::min(tasks.size(),
                          start + static_cast<size_t>(kTasksPerHit));
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
  const int64_t tick_begin = tick_;
  WallTimer wall;
  auto result = RunRound(tasks, policy, observer);
  mirror_.Publish(stats_);
  if (options_.tracer != nullptr) {
    options_.tracer->AddSpan("crowd.round", options_.market_name, tick_begin,
                             tick_, wall.ElapsedMicros());
  }
  return result;
}

Result<std::vector<Answer>> CrowdPlatform::RunRound(
    const std::vector<Task>& tasks, const AssignmentPolicy* policy,
    const AnswerObserver* observer) {
  std::vector<Answer> answers;
  ChargeForTasks(tasks);
  const FaultProfile& fault = options_.fault;
  // Whether fault draws and fault-layer accounting happen, and which idle
  // rule ends a round that stops making progress.
  const bool faulty = fault.Active();
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
  // lease's own (seed, lease_seq) stream. Only a lease that does not
  // deliver on the tick it is granted keeps a record.
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
  size_t cursor = 0;  // Rotating cursor for the default round-robin mode.
  int64_t idle_arrivals = 0;
  const int64_t idle_limit =
      static_cast<int64_t>(num_workers) * (faulty ? 8 : 4);

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
  auto deliver = [&](size_t ti, Answer answer, bool duplicate, bool on_time) {
    answer.tick = tick_;
    if (!on_time) {
      answer.late = true;
      ++stats_.late_answers;
      late_answers_.push_back(std::move(answer));
      return;
    }
    --state[ti].need;
    if (faulty) ++delivered_per_task_[answer.task];
    ++stats_.answers_collected;
    if (observer != nullptr) (*observer)(answer);
    if (duplicate) {
      // Platform glitch: the same assignment is delivered twice; the
      // requester must de-duplicate by (task, worker).
      ++stats_.duplicates;
      ++stats_.answers_collected;
      if (observer != nullptr) (*observer)(answer);
      answers.push_back(answer);
    }
    answers.push_back(std::move(answer));
    resolve_task(ti);
  };

  while (unresolved > 0 || !deliveries.empty()) {
    // A clean market's clock stands still: its answers carry the tick the
    // round started at.
    if (faulty) {
      ++tick_;
      ++stats_.ticks;
    }

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
      lease.settled = true;
      deliver(lease.ti, std::move(lease.answer), lease.duplicate, on_time);
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
    if (faulty &&
        ShortStream(options_.seed ^ kNoShowSalt, static_cast<uint64_t>(tick_))
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
            (*policy)(worker, available_ids, kTasksPerRequest);
        for (size_t p : picks) {
          CDB_CHECK(p < available_idx.size());
          chosen.push_back(available_idx[p]);
        }
      }
    } else {
      // Round-robin over leasable tasks starting at the cursor.
      for (size_t step = 0;
           step < tasks.size() &&
           chosen.size() < static_cast<size_t>(kTasksPerRequest);
           ++step) {
        size_t ti = (cursor + step) % tasks.size();
        if (leasable(ti)) chosen.push_back(ti);
      }
      cursor = (cursor + kTasksPerRequest) % tasks.size();
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
      granted = true;

      bool abandoned = false;
      int64_t delay = 0;
      bool duplicate = false;
      if (faulty) {
        ++stats_.leases_granted;
        ++lease_seq_;
        // The lease's fate comes from its own stream: a pure function of
        // (platform seed, lease sequence number).
        ShortStream fault_rng(options_.seed ^ kLeaseFaultSalt,
                              static_cast<uint64_t>(lease_seq_));
        abandoned = fault_rng.Bernoulli(fault.abandon_prob);
        if (!abandoned && fault_rng.Bernoulli(fault.straggler_prob)) {
          delay = fault_rng.UniformInt(1, 2 * fault.straggler_delay_ticks);
        }
        duplicate = !abandoned && fault_rng.Bernoulli(fault.duplicate_prob);
      }

      Answer answer;
      if (!abandoned) {
        answer = worker.AnswerTask(tasks[ti], truth_(tasks[ti]), rng_);
        if (delay == 0) {
          deliver(ti, std::move(answer), duplicate, /*on_time=*/true);
          continue;
        }
      }
      // Only abandon and straggler faults get here, and ExecuteRound gives
      // both a positive deadline.
      ++ts.outstanding;
      const size_t index = leases.size();
      Lease& lease = leases.emplace_back();
      lease.ti = ti;
      lease.deadline = tick_ + fault.task_deadline_ticks;
      lease.duplicate = duplicate;
      lease.answer = std::move(answer);
      expiries.insert({lease.deadline, index});
      if (!abandoned) {
        lease.deliver_tick = tick_ + delay;
        deliveries.insert({lease.deliver_tick, index});
      }
    }

    if (granted) {
      idle_arrivals = 0;
    } else if (++idle_arrivals > idle_limit) {
      // Sustained no-progress (e.g. a policy that keeps picking tasks the
      // worker cannot lease) must not spin. A clean market fails the round.
      // With faults on, partial rounds are expected: once nothing is in
      // flight the remaining tasks are dead-lettered, and the requester's
      // retry policy decides whether to repost them.
      if (!faulty) {
        return Status::FailedPrecondition(
            "crowd exhausted: " + std::to_string(unresolved) + " of " +
            std::to_string(tasks.size()) +
            " tasks still need answers but no arriving worker can make "
            "progress");
      }
      if (deliveries.empty()) {
        for (size_t ti = 0; ti < tasks.size(); ++ti) dead_letter_task(ti);
      }
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

// Answer travels in snapshots with every field: the late buffer carries
// tick/late metadata the requester's reconciliation depends on. Static, in
// namespace cdb: file-local, and found by argument-dependent lookup.
template <typename Io>
static Status Walk(Io& io, CodecRef<Io, Answer> answer) {
  return io(answer.task, answer.worker, answer.choice, answer.choice_set,
            answer.text, answer.tick, answer.late);
}

template <typename Io, typename Self>
Status CrowdPlatform::WalkState(Io& io, Self& self, CodecRef<Io, uint64_t> seed,
                                CodecRef<Io, int32_t> num_workers,
                                CodecRef<Io, std::string> rng) {
  return io(seed, num_workers, rng, self.stats_, self.tick_, self.lease_seq_,
            self.late_answers_, self.dead_letter_, self.delivered_per_task_);
}

void CrowdPlatform::SnapshotState(ByteWriter& writer) const {
  // Identity guard: a snapshot only restores onto a platform built from the
  // same seed and worker pool (the pool is drawn from the seed at
  // construction, so these two fields pin the whole deterministic prefix).
  (void)WalkState(writer, *this, options_.seed, options_.num_workers,
                  rng_.SaveState());  // Encoding never fails.
}

Status CrowdPlatform::RestoreState(ByteReader& reader) {
  uint64_t seed = 0;
  int32_t num_workers = 0;
  std::string rng_state;
  CDB_RETURN_IF_ERROR(WalkState(reader, *this, seed, num_workers, rng_state));
  if (seed != options_.seed || num_workers != options_.num_workers) {
    return Status::FailedPrecondition(
        "platform snapshot belongs to a different platform configuration "
        "(seed/worker-pool mismatch)");
  }
  CDB_RETURN_IF_ERROR(rng_.LoadState(rng_state));
  mirror_.Rebase(stats_);
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

PlatformPublisher::PlatformPublisher(
    const std::vector<PlatformOptions>& markets, const TruthProvider& truth) {
  CDB_CHECK(!markets.empty());
  markets_.reserve(markets.size());
  for (const PlatformOptions& options : markets) {
    markets_.emplace_back(options, truth);
  }
}

Result<std::vector<Answer>> PlatformPublisher::Publish(
    const std::vector<Task>& tasks, const AssignmentPolicy* policy,
    const AnswerObserver* observer) {
  // One market holds the one partition at offset 0: the partition loop
  // would run exactly this round.
  if (markets_.size() == 1) {
    return markets_[0].ExecuteRound(tasks, policy, observer);
  }
  std::vector<std::vector<Task>> partitions(markets_.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    partitions[i % markets_.size()].push_back(tasks[i]);
  }
  std::vector<Answer> merged;
  for (size_t m = 0; m < markets_.size(); ++m) {
    const int offset = static_cast<int>(m) * kWorkerIdStride;
    // The policy sees each worker under the id its answers carry, so a
    // quality estimate keyed by that id is read for the right worker.
    AssignmentPolicy offset_policy = [&](const SimulatedWorker& worker,
                                         const std::vector<TaskId>& available,
                                         int count) {
      return (*policy)(SimulatedWorker(worker.id() + offset, worker.accuracy()),
                       available, count);
    };
    AnswerObserver offset_observer = [&](const Answer& a) {
      Answer shifted = a;
      shifted.worker += offset;
      (*observer)(shifted);
    };
    CDB_ASSIGN_OR_RETURN(
        std::vector<Answer> part,
        markets_[m].ExecuteRound(
            partitions[m], policy != nullptr ? &offset_policy : nullptr,
            observer != nullptr ? &offset_observer : nullptr));
    for (Answer& a : part) {
      a.worker += offset;
      merged.push_back(std::move(a));
    }
  }
  return merged;
}

std::vector<Answer> PlatformPublisher::TakeLateAnswers() {
  std::vector<Answer> merged = markets_[0].TakeLateAnswers();  // Offset 0.
  for (size_t m = 1; m < markets_.size(); ++m) {
    const int offset = static_cast<int>(m) * kWorkerIdStride;
    for (Answer& a : markets_[m].TakeLateAnswers()) {
      a.worker += offset;
      merged.push_back(std::move(a));
    }
  }
  return merged;
}

void PlatformPublisher::DropDeadLetters() {
  for (CrowdPlatform& market : markets_) (void)market.TakeDeadLetters();
}

void PlatformPublisher::AdvanceTicks(int64_t ticks) {
  for (CrowdPlatform& market : markets_) market.AdvanceTicks(ticks);
}

int PlatformPublisher::effective_redundancy() const {
  int lowest = std::numeric_limits<int>::max();
  for (const CrowdPlatform& market : markets_) {
    lowest = std::min(lowest,
                      std::min(market.options().redundancy,
                               static_cast<int>(market.workers().size())));
  }
  return lowest;
}

PlatformStats PlatformPublisher::stats() const {
  PlatformStats total = markets_[0].stats();
  for (size_t m = 1; m < markets_.size(); ++m) {
    for (const StatField<PlatformStats>& row : kPlatformStatFields) {
      total.*row.field += markets_[m].stats().*row.field;
    }
  }
  return total;
}

namespace {

// The shape byte and count (platform.h); a one-market publisher also
// restores from the old one-entry form (0, count 1).
template <typename Io>
Status WalkShape(Io& io, CodecRef<Io, bool> one_market,
                 CodecRef<Io, uint32_t> count) {
  CDB_RETURN_IF_ERROR(io(one_market));
  return one_market ? Status::Ok() : io(count);
}

}  // namespace

void PlatformPublisher::SnapshotState(ByteWriter& writer) const {
  (void)WalkShape(writer, markets_.size() == 1,  // Encoding never fails.
                  static_cast<uint32_t>(markets_.size()));
  for (const CrowdPlatform& market : markets_) market.SnapshotState(writer);
}

Status PlatformPublisher::RestoreState(ByteReader& reader) {
  bool one_market = false;
  uint32_t n = 1;
  CDB_RETURN_IF_ERROR(WalkShape(reader, one_market, n));
  if (n != markets_.size()) {
    return Status::FailedPrecondition(
        "platform snapshot has " + std::to_string(n) +
        " markets, deployment has " + std::to_string(markets_.size()));
  }
  for (CrowdPlatform& market : markets_) {
    CDB_RETURN_IF_ERROR(market.RestoreState(reader));
  }
  return Status::Ok();
}

}  // namespace cdb
