#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cdb {
namespace {

thread_local bool tls_in_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 1);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Schedule(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_worker = true;
  while (true) {
    std::function<void()> fn;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown_ and drained.
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(HardwareConcurrency());
  return pool;
}

int ThreadPool::HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool ThreadPool::InWorkerThread() { return tls_in_pool_worker; }

int ResolveNumThreads(int num_threads) {
  return num_threads <= 0 ? ThreadPool::HardwareConcurrency() : num_threads;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t, int)>& fn,
                 int num_threads) {
  if (end <= begin) return;
  grain = std::max<int64_t>(grain, 1);
  const int64_t range = end - begin;
  const int64_t num_chunks = (range + grain - 1) / grain;
  auto run_chunk = [&](int64_t chunk) {
    int64_t lo = begin + chunk * grain;
    int64_t hi = std::min(end, lo + grain);
    fn(lo, hi, static_cast<int>(chunk));
  };

  const int threads = ResolveNumThreads(num_threads);
  if (threads <= 1 || num_chunks == 1 || ThreadPool::InWorkerThread()) {
    for (int64_t c = 0; c < num_chunks; ++c) run_chunk(c);
    return;
  }

  // Self-scheduling: helpers and the calling thread all pull the next unrun
  // chunk off a shared counter, so stragglers never serialize the tail.
  ThreadPool* pool = ThreadPool::Global();
  auto next = std::make_shared<std::atomic<int64_t>>(0);
  struct Completion {
    Mutex mu;
    CondVar cv;
    int64_t done CDB_GUARDED_BY(mu) = 0;
  };
  auto completion = std::make_shared<Completion>();
  // num_chunks and next are captured by value: a helper scheduled after all
  // chunks were claimed may run only after this frame returned, and then must
  // not touch the stack. run_chunk (and the caller's fn) is only ever invoked
  // for a claimed chunk, whose completion the caller blocks on.
  auto drain = [&run_chunk, next, num_chunks]() {
    int64_t chunk;
    int64_t ran = 0;
    while ((chunk = next->fetch_add(1)) < num_chunks) {
      run_chunk(chunk);
      ++ran;
    }
    return ran;
  };

  const int64_t helpers =
      std::min<int64_t>({num_chunks - 1, threads - 1, pool->num_threads()});
  for (int64_t h = 0; h < helpers; ++h) {
    pool->Schedule([drain, completion] {
      int64_t ran = drain();
      MutexLock lock(completion->mu);
      completion->done += ran;
      completion->cv.NotifyOne();
    });
  }
  int64_t ran_here = drain();
  MutexLock lock(completion->mu);
  while (completion->done + ran_here != num_chunks) {
    completion->cv.Wait(completion->mu);
  }
}

}  // namespace cdb
