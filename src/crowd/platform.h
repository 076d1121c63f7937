// The crowd-platform simulator replacing AMT / CrowdFlower / ChinaCrowd.
//
// The platform owns a worker pool, packs tasks into HITs for pricing, and
// simulates worker arrivals until every published task has `redundancy`
// answers from distinct workers. Two assignment modes mirror the real
// platforms (Section 2.1): in requester-controlled mode (AMT's development
// model) an AssignmentPolicy picks which tasks each arriving worker gets —
// this is where CDB+'s online task assignment plugs in; in
// platform-controlled mode (CrowdFlower) tasks are handed out round-robin.
//
// Every round runs one lease loop: workers arrive one at a time and lease
// tasks. A FaultProfile makes that crowd unreliable — workers abandon
// leased tasks, straggle past deadlines, no-show on arrival, and answers get
// duplicated or delivered late. Expired leases are reposted by the platform
// up to a cap, after which the task lands in a dead-letter queue for the
// requester to handle (see ExecutorOptions::retry). Under an inactive
// profile (the default) every lease delivers on the tick it is granted, and
// the round neither moves the clock nor counts leases. Every fault decision
// is drawn from a split stream of (seed, counter) alone (a cdb::ShortStream,
// whose draws equal Rng(seed, counter)'s), so the fault schedule of a given
// seed is bit-identical across runs and across the executor's thread counts.
#ifndef CDB_CROWD_PLATFORM_H_
#define CDB_CROWD_PLATFORM_H_

#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "crowd/task.h"
#include "crowd/worker.h"

namespace cdb {

class Tracer;

// Salts separating the fault-schedule streams from every other consumer of
// the platform seed: the no-show draw of tick t comes from
// ShortStream(seed ^ kNoShowSalt, t) and the fate of lease n from
// ShortStream(seed ^ kLeaseFaultSalt, n).
inline constexpr uint64_t kLeaseFaultSalt = 0xfa1716c0de5a1dULL;
inline constexpr uint64_t kNoShowSalt = 0x0a05b0a7d5a17e2dULL;

// Unreliability knobs, all off by default (the clean simulator). Probabilities
// are per-lease (abandon/straggle/duplicate) or per-arrival (no-show). See
// README's fault-model table for the paper-deployment analogue of each knob.
struct FaultProfile {
  // Probability an arriving worker browses the task list but takes nothing.
  // Must be < 1, or no task would ever be leased.
  double no_show_prob = 0.0;
  // Probability a worker who leased a task never submits an answer; the lease
  // expires after `task_deadline_ticks` and the platform reposts the slot.
  double abandon_prob = 0.0;
  // Probability an answer is delayed. The delay is drawn uniformly from
  // [1, 2 * straggler_delay_ticks] virtual ticks; if it pushes delivery past
  // the lease deadline the answer arrives late (out of band).
  double straggler_prob = 0.0;
  int64_t straggler_delay_ticks = 4;
  // Probability an on-time answer is delivered twice (platform-side glitch;
  // requesters must de-duplicate by (task, worker)).
  double duplicate_prob = 0.0;
  // Lease length in virtual ticks (one worker arrival per tick). Must be > 0
  // whenever any fault probability is, or abandoned leases would never free
  // their slot.
  int64_t task_deadline_ticks = 0;
  // Platform-side repost cap: after this many expired leases a task is
  // dead-lettered and the round stops waiting for it.
  int max_task_expiries = 4;

  // True when any knob deviates from the clean simulator.
  [[nodiscard]] bool Active() const {
    return no_show_prob > 0.0 || abandon_prob > 0.0 || straggler_prob > 0.0 ||
           duplicate_prob > 0.0 || task_deadline_ticks > 0;
  }
};

// Pricing and worker pull size, the same on every simulated market: tasks
// are packed kTasksPerHit to a HIT at kPricePerHit dollars (10 tasks per $0.1
// HIT), and an arriving worker takes up to kTasksPerRequest tasks.
inline constexpr int kTasksPerHit = 10;
inline constexpr double kPricePerHit = 0.1;
inline constexpr int kTasksPerRequest = 5;

struct PlatformOptions {
  std::string market_name = "SimAMT";
  int num_workers = 50;
  double worker_quality_mean = 0.8;   // q of N(q, 0.01) in the paper.
  double worker_quality_stddev = 0.1;  // sqrt(0.01).
  int redundancy = 5;                  // Answers per task (5 in the paper).
  bool requester_controls_assignment = true;
  uint64_t seed = 42;
  FaultProfile fault;
  // Observability sinks (borrowed, may be null = disabled). PlatformStats is
  // the platform's only count: each ExecuteRound and AdvanceTicks publishes
  // its growth into `metrics` as the `crowd.*` counters on return (see
  // kPlatformStatFields), and each ExecuteRound emits one tick-keyed
  // `crowd.round` span into `tracer`.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

// Chooses up to `count` tasks (indexes into `available`) for the arriving
// worker. `available` holds tasks still needing answers that this worker has
// not answered yet.
using AssignmentPolicy = std::function<std::vector<size_t>(
    const SimulatedWorker& worker, const std::vector<TaskId>& available,
    int count)>;

// Invoked after each individual answer; lets quality control update its
// posteriors between assignments within a round.
using AnswerObserver = std::function<void(const Answer&)>;

// Supplies ground truth for a task when a worker answers it.
using TruthProvider = std::function<TaskTruth(const Task&)>;

// Accumulated accounting across rounds. With faults enabled the counters obey
// the conservation law checked by the DST harness:
//   leases_granted == (answers_collected - duplicates) + abandons
//                     + late_answers
// (every lease delivers on time, delivers late, or is abandoned), and
//   expiries <= abandons + late_answers,
//   micro_dollars_spent == hits_published * MicroDollars(kPricePerHit)
//   (no double-spend).
struct PlatformStats {
  int64_t tasks_published = 0;
  int64_t answers_collected = 0;  // On-time deliveries, duplicates included.
  int64_t hits_published = 0;
  // HITs whose tasks carry >= 2 distinct batch_tags: multi-query HITs packed
  // by MultiQueryScheduler's merged rounds (0 for single-query runs).
  int64_t shared_hits = 0;
  // Money is accounted in integer micro-dollars: cross-market/merged-HIT
  // summation is then exact in any order, keeping PlatformStatsDump
  // byte-stable (a double accumulated with += is not). Format at the edge
  // via dollars_spent().
  int64_t micro_dollars_spent = 0;
  [[nodiscard]] double dollars_spent() const {
    return static_cast<double>(micro_dollars_spent) * 1e-6;
  }
  // Fault-layer counters (zero on a clean market, but for the ticks that
  // AdvanceTicks adds).
  int64_t ticks = 0;             // Virtual clock advanced so far.
  int64_t leases_granted = 0;    // Task slots handed to workers.
  int64_t no_shows = 0;          // Arrivals that took nothing.
  int64_t abandons = 0;          // Leases that never produced an answer.
  int64_t expiries = 0;          // Leases whose deadline passed undelivered.
  int64_t reposts = 0;           // Expired slots returned to the pool.
  int64_t dead_lettered = 0;     // Tasks given up on by the platform.
  int64_t late_answers = 0;      // Answers delivered out of band.
  int64_t duplicates = 0;        // Extra copies of on-time answers.
};

// Every PlatformStats field, in declaration order, under the name of its
// `crowd.<name>` counter. The one list of the fields: it also drives
// PlatformStatsDump, PlatformPublisher::stats and the checkpoint walk below.
inline constexpr StatField<PlatformStats> kPlatformStatFields[] = {
    {"tasks_published", &PlatformStats::tasks_published},
    {"answers_collected", &PlatformStats::answers_collected},
    {"hits_published", &PlatformStats::hits_published},
    {"shared_hits", &PlatformStats::shared_hits},
    {"micro_dollars_spent", &PlatformStats::micro_dollars_spent},
    {"ticks", &PlatformStats::ticks},
    {"leases_granted", &PlatformStats::leases_granted},
    {"no_shows", &PlatformStats::no_shows},
    {"abandons", &PlatformStats::abandons},
    {"expiries", &PlatformStats::expiries},
    {"reposts", &PlatformStats::reposts},
    {"dead_lettered", &PlatformStats::dead_lettered},
    {"late_answers", &PlatformStats::late_answers},
    {"duplicates", &PlatformStats::duplicates},
};
static_assert(sizeof(PlatformStats) ==
                  std::size(kPlatformStatFields) * sizeof(int64_t),
              "every PlatformStats field needs a kPlatformStatFields row");

// Rounds a dollar amount to integer micro-dollars (the internal money unit).
[[nodiscard]] int64_t MicroDollars(double dollars);

// Canonical byte dump of the stats, one `key=value` per line; the seeded
// determinism tests compare these byte-for-byte across runs/thread counts.
// The dollars_spent line renders micro-dollars with exactly six decimals via
// integer math, so the text matches the historical "%.6f" double format.
std::string PlatformStatsDump(const PlatformStats& stats);

// The checkpoint layout of PlatformStats: every field as an i64, in
// kPlatformStatFields order (a market's state and ExecutionStats hold one).
template <typename Io>
Status Walk(Io& io, CodecRef<Io, PlatformStats> stats) {
  for (const StatField<PlatformStats>& row : kPlatformStatFields) {
    CDB_RETURN_IF_ERROR(io(stats.*row.field));
  }
  return Status::Ok();
}

// Thread affinity: driver-serial. The simulator is stepped only by the one
// publish path (PlatformPublisher, enforced by the single-publish-path lint
// rule) on the driver thread; it owns no locks and its sequential rng_ draws
// assume un-interleaved access. Any future concurrent platform must wrap
// shared state in cdb::Mutex capabilities (common/mutex.h) so the
// thread-safety analysis sees it.
class CrowdPlatform {
 public:
  CrowdPlatform(const PlatformOptions& options, TruthProvider truth);

  // Publishes `tasks` and simulates worker arrivals until each task has
  // `redundancy` answers (capped by the number of distinct workers). The
  // policy is consulted only in requester-controlled mode; pass nullptr for
  // the default (round-robin by need). Returns the on-time answers of this
  // round (late answers accumulate in TakeLateAnswers, tasks the platform
  // gave up on in TakeDeadLetters). Fails with kInvalidArgument for an
  // unsatisfiable FaultProfile. After 4 * num_workers arrivals in a row that
  // lease nothing, a clean market fails with kFailedPrecondition ("crowd
  // exhausted"); a faulty one dead-letters its open tasks once 8 *
  // num_workers such arrivals pass with no answer in flight.
  Result<std::vector<Answer>> ExecuteRound(
      const std::vector<Task>& tasks, const AssignmentPolicy* policy = nullptr,
      const AnswerObserver* observer = nullptr);

  // Drains answers that arrived after their lease expired or their task was
  // already resolved. The requester reconciles these into quality control.
  std::vector<Answer> TakeLateAnswers();

  // Drains the dead-letter queue: tasks the platform stopped reposting.
  std::vector<TaskId> TakeDeadLetters();

  // Advances the virtual clock without simulating arrivals — the requester's
  // retry backoff "waits" this many ticks.
  void AdvanceTicks(int64_t ticks);

  // Cumulative on-time (non-duplicate) deliveries per task across the rounds
  // of a faulty market (a clean one leaves it empty); ordered map so
  // iteration is deterministic for invariant checks.
  const std::map<TaskId, int64_t>& delivered_per_task() const {
    return delivered_per_task_;
  }

  const std::vector<SimulatedWorker>& workers() const { return workers_; }
  const PlatformStats& stats() const { return stats_; }
  const PlatformOptions& options() const { return options_; }
  Rng& rng() { return rng_; }

  // Session-snapshot hooks. The platform is quiescent between rounds — every
  // lease settles inside ExecuteRound — so its cross-round persistent state
  // is exactly: the rng engine, the stats counters, the virtual clock, the
  // lease sequence, and the undrained late-answer / dead-letter /
  // delivered-per-task buffers. Everything else (worker pool, registry
  // mirror) rebuilds deterministically from PlatformOptions at construction.
  // RestoreState must run on a freshly-constructed platform with the same
  // options; a seed/worker-count mismatch is a typed error. Restore assigns
  // stats_ directly and rebases the registry mirror on it, publishing
  // nothing: the registry is snapshotted and restored separately
  // (MetricsRegistry::RestoreState), and later rounds publish only growth.
  void SnapshotState(ByteWriter& writer) const;
  Status RestoreState(ByteReader& reader);

 private:
  // One market's checkpoint layout, walked by both hooks; `self` is this
  // platform, const when encoding.
  template <typename Io, typename Self>
  static Status WalkState(Io& io, Self& self, CodecRef<Io, uint64_t> seed,
                          CodecRef<Io, int32_t> num_workers,
                          CodecRef<Io, std::string> rng);

  // The lease loop behind ExecuteRound, for clean and faulty markets alike.
  Result<std::vector<Answer>> RunRound(const std::vector<Task>& tasks,
                                       const AssignmentPolicy* policy,
                                       const AnswerObserver* observer);
  int EffectiveRedundancy(const Task& task) const;
  void ChargeForTasks(const std::vector<Task>& tasks);

  PlatformOptions options_;
  TruthProvider truth_;
  Rng rng_;
  std::vector<SimulatedWorker> workers_;
  PlatformStats stats_;
  // Publishes stats_ as `crowd.*`. Counters aggregate across platforms
  // sharing a registry; for a single platform they equal the PlatformStats
  // fields after every public call (the trace suite asserts this view).
  StatsMirror<PlatformStats> mirror_;
  int64_t tick_ = 0;       // Virtual clock; persists across rounds.
  int64_t lease_seq_ = 0;  // Stream index for per-lease fault draws.
  std::vector<Answer> late_answers_;
  std::vector<TaskId> dead_letter_;
  std::map<TaskId, int64_t> delivered_per_task_;
};

// Where a session's crowd traffic goes. Publish() blocks until the round
// resolves and returns the on-time answers; the remaining calls mirror the
// CrowdPlatform fault-layer surface.
class TaskPublisher {
 public:
  virtual ~TaskPublisher() = default;

  virtual Result<std::vector<Answer>> Publish(
      const std::vector<Task>& tasks, const AssignmentPolicy* policy,
      const AnswerObserver* observer) = 0;
  virtual std::vector<Answer> TakeLateAnswers() = 0;
  // Empties the dead-letter queue. The requester recomputes each round's
  // shortfall from the answers it holds, so it reads no dead letter.
  virtual void DropDeadLetters() = 0;
  virtual void AdvanceTicks(int64_t ticks) = 0;
  // The redundancy a task can actually reach: the configured redundancy
  // capped by the worker-pool size (min across markets for a deployment).
  virtual int effective_redundancy() const = 0;
  virtual PlatformStats stats() const = 0;
};

// The crowd deployment (Section 2.2 "task deployment"): one simulated market
// or several, and the only caller of CrowdPlatform::ExecuteRound (the
// `single-publish-path` lint rule enforces this). With several markets each
// round's tasks are dealt round-robin across them and the answers merged;
// market m's worker ids are offset by m * kWorkerIdStride so they stay
// unique, and the assignment policy and the answer observer see the offset
// ids as well. Market 0's offset is 0, so a one-market round goes straight
// to that market with the caller's tasks, policy and observer.
class PlatformPublisher : public TaskPublisher {
 public:
  static constexpr int kWorkerIdStride = 1000000;

  // `markets` must be non-empty.
  PlatformPublisher(const std::vector<PlatformOptions>& markets,
                    const TruthProvider& truth);

  Result<std::vector<Answer>> Publish(const std::vector<Task>& tasks,
                                      const AssignmentPolicy* policy,
                                      const AnswerObserver* observer) override;
  std::vector<Answer> TakeLateAnswers() override;
  void DropDeadLetters() override;
  void AdvanceTicks(int64_t ticks) override;
  int effective_redundancy() const override;
  // Summed across markets.
  PlatformStats stats() const override;

  // Snapshot/restore of every market's cross-round state (see
  // CrowdPlatform::SnapshotState). The layout opens with a shape byte: 1
  // for one market, followed by its state; 0 for several, followed by the
  // market count and each market's state.
  void SnapshotState(ByteWriter& writer) const;
  Status RestoreState(ByteReader& reader);

 private:
  std::vector<CrowdPlatform> markets_;
};

}  // namespace cdb

#endif  // CDB_CROWD_PLATFORM_H_
