// Parallel-execution substrate. A fixed-size worker pool plus a blocking
// ParallelFor that splits an index range into grain-sized chunks and runs
// them across the pool.
//
// Determinism contract: chunk boundaries depend only on (begin, end, grain) —
// never on the thread count — so a callback that derives any per-chunk state
// (e.g. an Rng seeded as Rng(seed, chunk_index)) computes bit-identical
// results whether the loop runs serially or on N threads. Callers that merge
// per-chunk outputs must merge in chunk-index order (or use an
// order-insensitive reduction such as integer addition) to preserve this.
//
// Rng is documented one-per-thread; the supported pattern here is one Rng per
// chunk (or per item), constructed inside the callback with the stream-split
// constructor Rng(seed, chunk_index).
#ifndef CDB_COMMON_THREAD_POOL_H_
#define CDB_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cdb {

// Fixed-size worker pool. Threads are started in the constructor and joined
// in the destructor; Schedule never blocks on task execution.
class ThreadPool {
 public:
  // Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Enqueues `fn` for execution on some worker thread.
  void Schedule(std::function<void()> fn);

  // Process-wide pool with HardwareConcurrency() workers, created on first
  // use and kept alive for the process lifetime. Every parallel stage in CDB
  // shares this pool; per-call concurrency is limited via the num_threads
  // argument of ParallelFor rather than by creating private pools.
  static ThreadPool* Global();

  // std::thread::hardware_concurrency() with a floor of 1.
  static int HardwareConcurrency();

  // True when called from inside a pool worker; ParallelFor uses this to run
  // nested loops inline instead of deadlocking on its own pool.
  static bool InWorkerThread();

 private:
  void WorkerLoop();

  // mu_ guards the task queue and the shutdown flag; cv_ is signaled on
  // every enqueue and once at shutdown. threads_ is written only by the
  // constructor and read by the destructor's join loop, both of which run
  // outside any concurrent regime.
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ CDB_GUARDED_BY(mu_);
  bool shutdown_ CDB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

// Resolves a user-facing thread-count knob: <= 0 means "all hardware
// threads"; any positive value is used as-is.
int ResolveNumThreads(int num_threads);

// Splits [begin, end) into ceil((end - begin) / grain) contiguous chunks and
// invokes fn(chunk_begin, chunk_end, chunk_index) once per chunk, blocking
// until all chunks finish. Chunks are claimed dynamically by up to
// ResolveNumThreads(num_threads) threads (the calling thread participates);
// with num_threads == 1, a single chunk, or from inside a pool worker the
// loop runs inline on the calling thread.
//
// fn must not throw; cross-chunk communication is the caller's problem
// (use disjoint output slots or a mutex-guarded reduction).
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t, int)>& fn,
                 int num_threads = 0);

}  // namespace cdb

#endif  // CDB_COMMON_THREAD_POOL_H_
