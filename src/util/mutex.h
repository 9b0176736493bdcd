// ambit::Mutex / MutexLock / CondVar — the repo's ONLY locking
// primitives, annotated for Clang Thread Safety Analysis and ranked
// for dynamic lock-order checking.
//
// Raw std::mutex is banned outside this file (enforced by
// scripts/check_concurrency.py) for two reasons:
//
//   1. Static: ambit::Mutex carries AMBIT_CAPABILITY, so every piece of
//      state it protects can be AMBIT_GUARDED_BY it and every helper
//      that expects it held can say AMBIT_REQUIRES it
//      (util/thread_annotations.h). Under Clang, -Wthread-safety turns
//      a missed lock into a compile error; std::mutex offers none of
//      that.
//
//   2. Dynamic: every Mutex declares a LockRank from the ONE canonical
//      lock hierarchy (docs/CONCURRENCY.md). In AMBIT_ENABLE_INVARIANTS
//      builds each thread keeps a stack of the ranks it holds, and any
//      acquisition that is not STRICTLY above the top of the stack
//      aborts immediately with both ranks named — a lock-order /
//      deadlock detector that fires on the FIRST out-of-order
//      acquisition, unlike TSan, which needs an actual deadlock (or a
//      lucky pair of inverted acquisitions) to happen at runtime.
//      Release builds pay nothing: the hooks compile to empty inline
//      functions, exactly like AMBIT_CHECK (util/check.h).
//
// The rank rule also forbids acquiring two locks of the SAME rank at
// once, which makes recursive locking (a guaranteed self-deadlock on
// std::mutex) abort deterministically instead of hanging, and keeps
// sibling instances — e.g. the per-circuit verify mutexes — from ever
// nesting.
//
// CondVar deliberately exposes only single-shot wait/wait_until, no
// predicate overloads: a predicate lambda is analyzed by TSA as a
// separate function that does NOT hold the lock, so guarded reads
// inside it would need suppressions. Callers write the standard
//
//     while (!condition) cv.wait(lock);
//
// loop instead, which TSA checks end to end (the loop body lives in
// the frame that holds the capability).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace ambit {

/// The canonical lock hierarchy — on any one thread, locks may only be
/// acquired in STRICTLY INCREASING rank order. The table with the
/// reasoning behind each edge lives in docs/CONCURRENCY.md; new
/// mutexes add a value here AND a row there. Gaps between values are
/// deliberate room for future locks.
enum class LockRank : int {
  /// serve::CoalescingQueue::mutex_ — group map + fusion counters.
  /// Outermost: held at the serve front door, released before any
  /// Session work.
  kCoalesce = 10,
  /// serve::Session::mutex_ — the circuit registry. Held for lookups
  /// and (un)registrations only, never across LOAD/EVAL/verify work.
  kSessionRegistry = 20,
  /// serve::LoadedCircuit::verify_mutex — per-circuit verify cache.
  /// Held across the exhaustive sweep, which shards through the
  /// ThreadPool, so it must rank below kThreadPool.
  kCircuitVerify = 30,
  /// serve::LoadedCircuit::sim_mutex — per-circuit simulator build.
  kCircuitSim = 35,
  /// serve::EventLoop's completion queue (serve/event_loop.cpp): the
  /// one lock shared between the epoll loop thread and the pool
  /// workers posting finished request results back to it. Leaf on the
  /// worker side — a worker posts a completion holding nothing else.
  kEventLoop = 45,
  /// ThreadPool::mutex_ — the task queue. Acquired while a caller may
  /// hold kCircuitVerify (VERIFY's sharded sweep).
  kThreadPool = 50,
  /// ThreadPool's per-parallel_for completion latch (ForJob::m).
  kPoolJoin = 60,
  /// metrics::Registry::mutex_ — registration + exposition snapshots.
  kMetricsRegistry = 70,
  /// util/log.cpp sink mutex. Near-leaf: logging must be callable from
  /// almost anywhere, so almost everything ranks below it.
  kLogSink = 80,
  /// Scratch rank for tests and tools; nothing in src/ uses it, so a
  /// test holding it can acquire no production lock (by design).
  kTest = 100,
};

/// Printable name of a rank ("coalesce", "session-registry", ...),
/// used in lock-order violation reports and tests.
const char* lock_rank_name(LockRank rank);

/// Depth of the calling thread's held-lock stack. Always 0 when
/// AMBIT_ENABLE_INVARIANTS is off (the stack is not maintained).
int held_lock_depth();

/// A standard mutex with a TSA capability and a declared rank.
/// Prefer MutexLock for RAII scopes; lock()/unlock() exist for the
/// rare manually-paired case.
class AMBIT_CAPABILITY("mutex") Mutex {
 public:
  constexpr explicit Mutex(LockRank rank) noexcept : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AMBIT_ACQUIRE() {
    rank_check();
    raw_.lock();
    rank_push();
  }

  void unlock() AMBIT_RELEASE() {
    raw_.unlock();
    rank_pop();
  }

  LockRank rank() const { return rank_; }

 private:
  friend class MutexLock;

  // The dynamic lock-order detector (mutex.cpp). rank_check aborts —
  // BEFORE blocking on the raw mutex, so a real inversion reports
  // instead of deadlocking — unless this rank is strictly above every
  // rank the calling thread already holds.
#ifdef AMBIT_ENABLE_INVARIANTS
  void rank_check() const;
  void rank_push() const;
  void rank_pop() const;
#else
  void rank_check() const {}
  void rank_push() const {}
  void rank_pop() const {}
#endif

  std::mutex raw_;
  const LockRank rank_;
};

/// RAII lock scope over a Mutex — the std::lock_guard/unique_lock
/// replacement. Supports early unlock() (for "drop the lock, then do
/// slow work" sequences) and re-lock, and is the handle CondVar waits
/// through.
class AMBIT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) AMBIT_ACQUIRE(mutex)
      : mutex_(&mutex), lock_(mutex.raw_, std::defer_lock) {
    mutex.rank_check();
    lock_.lock();
    mutex.rank_push();
  }

  ~MutexLock() AMBIT_RELEASE() {
    if (lock_.owns_lock()) {
      lock_.unlock();
      mutex_->rank_pop();
    }
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before end of scope (throws std::system_error if not
  /// held, exactly like std::unique_lock).
  void unlock() AMBIT_RELEASE() {
    lock_.unlock();
    mutex_->rank_pop();
  }

  /// Re-acquires after an early unlock(), re-running the rank check.
  void lock() AMBIT_ACQUIRE() {
    mutex_->rank_check();
    lock_.lock();
    mutex_->rank_push();
  }

 private:
  friend class CondVar;

  Mutex* mutex_;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to MutexLock. Single-shot waits only — see
/// the header comment for why there are no predicate overloads. A
/// thread blocked in wait() still logically holds the lock as far as
/// the rank stack is concerned (the wait re-acquires before
/// returning, and a blocked thread cannot acquire anything else), so
/// the detector needs no special case here.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock` and blocks until notified (or
  /// spuriously woken — callers loop on their condition).
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Same, with a deadline; returns std::cv_status::timeout when the
  /// deadline passed.
  template <class Clock, class Duration>
  std::cv_status wait_until(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ambit
