// Capability-annotated synchronization primitives.
//
// cdb::Mutex / cdb::MutexLock / cdb::CondVar wrap the std primitives with
// Clang Thread Safety Analysis attributes (common/thread_annotations.h).
// libstdc++'s std::mutex and std::lock_guard carry no capability attributes,
// so code locking them is invisible to -Wthread-safety; these wrappers are
// the one place raw std::mutex may appear in src/ (cdb_lint's
// `mutex-annotation` rule enforces that, and that each Mutex member is named
// by a CDB_GUARDED_BY in its own class). Everything mutex-protected declares
// its members CDB_GUARDED_BY(mu_) and the clang build legs prove, at compile
// time, that no access happens outside the lock.
//
// The wrappers add no state and no behavior beyond annotation: Mutex is
// std::mutex, MutexLock is std::lock_guard, CondVar is std::condition_variable
// waiting through an adopted unique_lock so the analysis sees the capability
// held across the wait (the wait itself releases and reacquires atomically,
// which is exactly the semantics the annotations describe).
#ifndef CDB_COMMON_MUTEX_H_
#define CDB_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace cdb {

class CondVar;

// An exclusive capability. Prefer cdb::MutexLock over manual Lock/Unlock
// pairs; the explicit methods exist for the rare split acquire/release and
// stay annotated so the analysis tracks them.
class CDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CDB_ACQUIRE() { mu_.lock(); }
  void Unlock() CDB_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool TryLock() CDB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // AssertHeld-style helper for internal functions reached only under the
  // lock: a no-op at runtime, but tells the analysis the capability is held.
  void AssertHeld() const CDB_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock over a cdb::Mutex (the annotated std::lock_guard).
class CDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CDB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() CDB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to cdb::Mutex. Wait() requires the capability:
// the analysis treats the lock as held across the call (matching the
// atomic release-wait-reacquire the primitive performs).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) CDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Ownership stays with the caller's scope.
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cdb

#endif  // CDB_COMMON_MUTEX_H_
