// Annotated mutex types for the Clang thread-safety analysis.
//
// libstdc++'s std::mutex and std::lock_guard carry no capability
// attributes, so code locking through them is invisible to Clang's
// -Wthread-safety analysis and every GUARDED_BY access would warn. These
// thin wrappers put the attributes in place; they compile to exactly the
// std::mutex operations (no extra state beyond MutexLock's owns flag,
// which std::unique_lock also carries).
//
// Usage:
//   mutable Mutex mutex_;
//   int value_ GUARDED_BY(mutex_);
//   void Touch() { MutexLock lock(mutex_); ++value_; }
//
// MutexLock supports Unlock()/Lock() for the rare drop-the-lock-around-a-
// callback pattern (see containersim::Engine::Start); Clang tracks the
// scoped capability's state through those calls.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace convgpu {

/// std::mutex with the Clang `capability` attribute. Satisfies Lockable,
/// so std::condition_variable_any and std::scoped_lock still work —
/// but prefer MutexLock, which the analysis understands.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII guard over Mutex (std::lock_guard with capability attributes plus
/// std::unique_lock's unlock/relock).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() {
    if (owns_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Drops the lock early (e.g. around a re-entrant plugin callback).
  void Unlock() RELEASE() {
    mu_.unlock();
    owns_ = false;
  }

  /// Re-acquires after Unlock().
  void Lock() ACQUIRE() {
    mu_.lock();
    owns_ = true;
  }

  [[nodiscard]] bool owns_lock() const { return owns_; }

 private:
  Mutex& mu_;
  bool owns_ = true;
};

/// std::condition_variable over Mutex. Unlike std::condition_variable_any
/// it needs no internal mutex of its own (construction does not allocate),
/// so one can sit in every per-call completion slot. Each waiter must hold
/// `mu` (through a MutexLock); it is released while blocked and held again
/// on return.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// std::cv_status::timeout once `deadline` has passed.
  std::cv_status WaitUntil(Mutex& mu,
                           std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace convgpu
