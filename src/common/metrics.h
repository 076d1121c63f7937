// Deterministic metrics registry: the uniform export surface for the counters
// the paper's evaluation is built on (tasks, rounds, HITs, dollars, EM
// iterations). Three metric types, all integer-valued:
//
//   Counter    monotonic adds; thread-safe via one relaxed atomic. Integer
//              addition is commutative and associative, so Value() is
//              bit-identical in any increment interleaving — the registry
//              stays inside the repo's parallel == serial determinism
//              contract.
//   Gauge      last-write-wins level (e.g. the EM convergence delta). Must be
//              set from deterministic (serial-driver) code.
//   Histogram  power-of-two buckets over non-negative integers, built from
//              counters.
//
// Values are integers only: floating-point sums depend on accumulation order
// and would break the byte-compared dumps. Fractional quantities are scaled
// at the edge (micro-dollars, micro-deltas) instead.
//
// MetricsDump() renders every metric as canonical sorted `name=value` lines;
// the `ctest -L trace` suite compares these dumps byte-for-byte across thread
// counts and reruns. MetricsDumpJson() is the same data as a sorted JSON
// object for --metrics-out sinks.
//
// One source per count: the stats structs the layers return and snapshot
// (PlatformStats, ExecutionStats, MultiQueryStats, ServiceStats) are the only
// thing instrumented code writes. A StatsMirror, driven by one field table
// per struct, publishes the struct's growth into the registry when control
// leaves the layer, so the registry is a view of the structs and cannot
// drift from them. Counters with no struct field (retry waves, EM runs, the
// sim-join funnel) cache `Counter*` handles once (registration takes a
// mutex; Increment() does not) and are written where they happen.
#ifndef CDB_COMMON_METRICS_H_
#define CDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace cdb {

// Monotonic counter. Increment() is lock-free and thread-safe, and
// concurrent increments from any thread interleaving produce the same total.
// One atomic, not per-thread shards: counters grow once per public call
// (StatsMirror), per sim-join chunk or per EM run, never per event, so there
// is no contention to spread.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

  // Snapshot-restore hook: forces the value to `value`. NOT part of the
  // monotonic contract and not safe against concurrent Increment(); call
  // only on a quiescent registry (the checkpoint/restore path runs before
  // any session steps again).
  void Reset(int64_t value) { value_.store(value, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins level. Unlike Counter there is no commutative fold, so a
// gauge is deterministic only when set from serially-ordered code (the
// session/scheduler driver loop) — never from inside a ParallelFor body.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
};

// Power-of-two histogram over non-negative integers: bucket 0 holds value 0,
// bucket i >= 1 holds [2^(i-1), 2^i). Negative observations clamp to 0.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;

  void Observe(int64_t value);
  [[nodiscard]] int64_t count() const { return count_.Value(); }
  [[nodiscard]] int64_t sum() const { return sum_.Value(); }
  [[nodiscard]] int64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)].Value(); }
  // Bucket index for a value; exposed for tests.
  static int BucketFor(int64_t value);

  // Snapshot-restore hook: overwrites count/sum/buckets wholesale. Same
  // quiescence requirement as Counter::Reset.
  void Reset(int64_t count, int64_t sum,
             const std::array<int64_t, kNumBuckets>& buckets);

 private:
  Counter count_;
  Counter sum_;
  std::array<Counter, kNumBuckets> buckets_{};
};

// Name -> metric map with stable handle addresses. Registration is
// mutex-guarded; the returned references stay valid for the registry's
// lifetime, so hot paths register once and increment through the cached
// pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name) CDB_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) CDB_EXCLUDES(mutex_);
  Histogram& histogram(std::string_view name) CDB_EXCLUDES(mutex_);

  // Canonical byte dump: one `name=value` line per metric, sorted by name.
  // Histograms expand to `.count` / `.sum` / `.bucketNN` lines (non-empty
  // buckets only). Byte-identical across thread counts for seeded runs.
  [[nodiscard]] std::string Dump() const;
  // The same data as a JSON object with sorted keys (for --metrics-out).
  [[nodiscard]] std::string DumpJson() const;

  // Typed snapshot of every registered metric (counters, gauges, and
  // histograms kept distinct), framed like a session snapshot
  // (common/serialize.h). RestoreState refuses a corrupt blob, or one that
  // would give a name a second type, as Status::DataLoss before it changes
  // anything. Restore zeroes metrics absent from the blob (handles stay
  // valid — metrics are never erased) so a restored registry dumps
  // byte-identically to the snapshotted one. Both ends must be quiescent (no
  // concurrent Increment), which the checkpoint path guarantees.
  [[nodiscard]] std::string SerializeState() const CDB_EXCLUDES(mutex_);
  Status RestoreState(std::string_view blob) CDB_EXCLUDES(mutex_);

 private:
  // Collects every metric as flat (name, value) pairs, sorted by name.
  [[nodiscard]] std::map<std::string, int64_t> Flatten() const
      CDB_EXCLUDES(mutex_);

  // mutex_ guards registration (map mutation) and the dump walks. The
  // pointed-to metrics are deliberately NOT guarded: handle addresses are
  // stable for the registry's lifetime and the metric types are internally
  // thread-safe (relaxed atomics), which is what makes cached
  // Counter* increments lock-free.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CDB_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CDB_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CDB_GUARDED_BY(mutex_);
};

// Free-function spelling used by the determinism tests.
[[nodiscard]] std::string MetricsDump(const MetricsRegistry& registry);

// One row of a stats struct's registry table: the counter's name (after the
// mirror's prefix) and the int64_t field it publishes.
template <typename S>
struct StatField {
  const char* name;
  int64_t S::*field;
};

// Publishes a stats struct into a registry, one counter per table row.
// Publish() adds each field's growth since the last Publish() or Rebase() to
// its counter, so a registry shared by many structs holds their sum, and a
// struct written many times per call costs one add per field per call.
// Rebase() follows a snapshot restore of the struct: the registry's owner
// restores the registry itself, so what the restored struct already holds is
// not published again. With a null registry both calls do nothing.
//
// Not thread-safe: a mirror is driven by its struct's one writer.
template <typename S>
class StatsMirror {
 public:
  StatsMirror() = default;
  StatsMirror(MetricsRegistry* registry, std::string_view prefix,
              std::span<const StatField<S>> table) {
    if (registry == nullptr) return;
    rows_.reserve(table.size());
    for (const StatField<S>& row : table) {
      rows_.push_back(
          Row{row.field, &registry->counter(std::string(prefix) + row.name)});
    }
  }

  void Publish(const S& stats) {
    for (Row& row : rows_) {
      const int64_t value = stats.*row.field;
      if (value == row.published) continue;
      row.counter->Increment(value - row.published);
      row.published = value;
    }
  }

  void Rebase(const S& stats) {
    for (Row& row : rows_) row.published = stats.*row.field;
  }

 private:
  struct Row {
    int64_t S::*field;
    Counter* counter;
    int64_t published = 0;
  };
  std::vector<Row> rows_;
};

}  // namespace cdb

#endif  // CDB_COMMON_METRICS_H_
