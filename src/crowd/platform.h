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
// Fault layer: a FaultProfile turns the fair-weather simulator into an
// unreliable crowd — workers abandon leased tasks, straggle past deadlines,
// no-show on arrival, and answers get duplicated or delivered late. Tasks are
// leased with a per-task deadline; expired leases are reposted by the
// platform up to a cap, after which the task lands in a dead-letter queue for
// the requester to handle (see ExecutorOptions::retry). Every fault decision
// is drawn from a split stream of (seed, counter) alone (a cdb::ShortStream,
// whose draws equal Rng(seed, counter)'s), so the fault schedule of a given
// seed is bit-identical across runs and across the executor's thread counts.
#ifndef CDB_CROWD_PLATFORM_H_
#define CDB_CROWD_PLATFORM_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "crowd/task.h"
#include "crowd/worker.h"

namespace cdb {

class ByteReader;
class ByteWriter;
class Counter;
class MetricsRegistry;
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

struct PlatformOptions {
  std::string market_name = "SimAMT";
  int num_workers = 50;
  double worker_quality_mean = 0.8;   // q of N(q, 0.01) in the paper.
  double worker_quality_stddev = 0.1;  // sqrt(0.01).
  int redundancy = 5;                  // Answers per task (5 in the paper).
  int tasks_per_hit = 10;              // Pricing: 10 tasks per $0.1 HIT.
  double price_per_hit = 0.1;
  int tasks_per_request = 5;           // Tasks a worker takes per arrival.
  bool requester_controls_assignment = true;
  uint64_t seed = 42;
  FaultProfile fault;
  // Observability sinks (borrowed, may be null = disabled). The platform
  // mirrors every PlatformStats increment into `metrics` under `crowd.*`
  // names — PlatformStats is a per-platform view over the same counts — and
  // emits one tick-keyed `crowd.round` span per ExecuteRound into `tracer`.
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
//   micro_dollars_spent == hits_published * MicroDollars(price_per_hit)
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
  // Fault-layer counters (all zero with the clean simulator).
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

// Rounds a dollar amount to integer micro-dollars (the internal money unit).
[[nodiscard]] int64_t MicroDollars(double dollars);

// Canonical byte dump of the stats, one `key=value` per line; the seeded
// determinism tests compare these byte-for-byte across runs/thread counts.
// The dollars_spent line renders micro-dollars with exactly six decimals via
// integer math, so the text matches the historical "%.6f" double format.
std::string PlatformStatsDump(const PlatformStats& stats);

// Fixed-order binary encoding of PlatformStats for session snapshots (every
// field, in declaration order). Shared by the platform's own SnapshotState
// and the session's ExecutionStats serialization.
void SnapshotPlatformStats(ByteWriter& writer, const PlatformStats& stats);
Status RestorePlatformStats(ByteReader& reader, PlatformStats* stats);

// Thread affinity: driver-serial. The simulator is stepped only by the one
// publish path (session/scheduler channel, enforced by the
// single-publish-path lint rule) on the driver thread; it owns no locks and
// its sequential rng_ draws assume un-interleaved access. Any future
// concurrent platform must wrap shared state in cdb::Mutex capabilities
// (common/mutex.h) so the thread-safety analysis sees it.
class CrowdPlatform {
 public:
  CrowdPlatform(const PlatformOptions& options, TruthProvider truth);

  // Publishes `tasks` and simulates worker arrivals until each task has
  // `redundancy` answers (capped by the number of distinct workers). The
  // policy is consulted only in requester-controlled mode; pass nullptr for
  // the default (round-robin by need). Returns the on-time answers of this
  // round (late answers accumulate in TakeLateAnswers, tasks the platform
  // gave up on in TakeDeadLetters). Fails with kFailedPrecondition when the
  // worker pool is exhausted but redundancy is unmet and faults are off (with
  // faults on, such tasks are dead-lettered instead), and with
  // kInvalidArgument for an unsatisfiable FaultProfile.
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

  // Cumulative on-time (non-duplicate) deliveries per task across rounds;
  // ordered map so iteration is deterministic for invariant checks.
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
  // stats_ directly and never bumps the registry mirror — the registry is
  // snapshotted and restored separately (MetricsRegistry::RestoreState).
  void SnapshotState(ByteWriter& writer) const;
  Status RestoreState(ByteReader& reader);

 private:
  // The pre-fault simulation loop: every leased task is answered immediately.
  Result<std::vector<Answer>> CleanRound(const std::vector<Task>& tasks,
                                         const AssignmentPolicy* policy,
                                         const AnswerObserver* observer);
  // The tick-driven lease/expiry/dead-letter simulation used when
  // options_.fault.Active().
  Result<std::vector<Answer>> FaultyRound(const std::vector<Task>& tasks,
                                          const AssignmentPolicy* policy,
                                          const AnswerObserver* observer);
  int EffectiveRedundancy(const Task& task) const;
  void ChargeForTasks(const std::vector<Task>& tasks);

  // Cached registry handles mirroring every stats_ increment (all null when
  // options_.metrics is unset, making each mirror a single null check).
  // Counters aggregate across platforms sharing a registry; for a single
  // platform, registry values equal the PlatformStats fields exactly (the
  // trace suite asserts this "view" property).
  struct RegistryMirror {
    Counter* tasks_published = nullptr;
    Counter* answers_collected = nullptr;
    Counter* hits_published = nullptr;
    Counter* shared_hits = nullptr;
    Counter* micro_dollars_spent = nullptr;
    Counter* ticks = nullptr;
    Counter* leases_granted = nullptr;
    Counter* no_shows = nullptr;
    Counter* abandons = nullptr;
    Counter* expiries = nullptr;
    Counter* reposts = nullptr;
    Counter* dead_lettered = nullptr;
    Counter* late_answers = nullptr;
    Counter* duplicates = nullptr;
  };

  PlatformOptions options_;
  RegistryMirror mirror_;
  TruthProvider truth_;
  Rng rng_;
  std::vector<SimulatedWorker> workers_;
  PlatformStats stats_;
  int64_t tick_ = 0;       // Virtual clock; persists across rounds.
  int64_t lease_seq_ = 0;  // Stream index for per-lease fault draws.
  std::vector<Answer> late_answers_;
  std::vector<TaskId> dead_letter_;
  std::map<TaskId, int64_t> delivered_per_task_;
};

// Cross-market deployment (Section 2.2 "task deployment"): a set of
// simulated markets; tasks are partitioned across them round-robin and the
// answers merged. Worker ids are offset per market so they stay unique; the
// assignment policy and the answer observer see the offset ids as well.
class MultiMarket {
 public:
  explicit MultiMarket(std::vector<PlatformOptions> markets, TruthProvider truth);

  Result<std::vector<Answer>> ExecuteRound(
      const std::vector<Task>& tasks, const AssignmentPolicy* policy = nullptr,
      const AnswerObserver* observer = nullptr);

  // Fault-layer passthroughs, merged across markets (worker ids offset).
  std::vector<Answer> TakeLateAnswers();
  std::vector<TaskId> TakeDeadLetters();
  void AdvanceTicks(int64_t ticks);

  const std::vector<CrowdPlatform>& platforms() const { return platforms_; }
  PlatformStats CombinedStats() const;

  // Per-market snapshot/restore (see CrowdPlatform::SnapshotState).
  void SnapshotState(ByteWriter& writer) const;
  Status RestoreState(ByteReader& reader);
  // Worker-id offset applied to market `m`.
  int worker_id_offset(size_t m) const { return static_cast<int>(m) * kWorkerIdStride; }

  static constexpr int kWorkerIdStride = 1000000;

 private:
  std::vector<CrowdPlatform> platforms_;
};

}  // namespace cdb

#endif  // CDB_CROWD_PLATFORM_H_
