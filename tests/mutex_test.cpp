// Tests for the annotated, ranked locking layer (util/mutex.h): the
// RAII scope, early unlock / re-lock, CondVar signaling, the rank
// bookkeeping that the dynamic lock-order detector builds on, and the
// rank names used in its reports. The VIOLATION side — out-of-rank,
// recursive, and same-rank acquisitions aborting — lives in
// tests/invariant_test.cpp with the other death tests.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/mutex.h"

namespace ambit {
namespace {

bool invariants_on() {
#ifdef AMBIT_ENABLE_INVARIANTS
  return true;
#else
  return false;
#endif
}

TEST(MutexTest, MutexProvidesExclusion) {
  Mutex mutex(LockRank::kTest);
  std::uint64_t counter = 0;  // guarded by `mutex` (local, so no TSA)
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        const MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 4000u);
}

TEST(MutexTest, AscendingRankChainIsLegal) {
  // The whole production hierarchy, acquired in order on one thread:
  // this is the shape the detector exists to protect, so it must pass.
  Mutex registry(LockRank::kSessionRegistry);
  Mutex verify(LockRank::kCircuitVerify);
  Mutex pool(LockRank::kThreadPool);
  Mutex metrics(LockRank::kMetricsRegistry);
  Mutex log(LockRank::kLogSink);
  const MutexLock l1(registry);
  const MutexLock l2(verify);
  const MutexLock l3(pool);
  const MutexLock l4(metrics);
  const MutexLock l5(log);
  if (invariants_on()) {
    EXPECT_EQ(held_lock_depth(), 5);
  } else {
    EXPECT_EQ(held_lock_depth(), 0);
  }
}

TEST(MutexTest, HeldLockDepthTracksScopes) {
  Mutex low(LockRank::kSessionRegistry);
  Mutex high(LockRank::kThreadPool);
  const int base = invariants_on() ? 1 : 0;
  EXPECT_EQ(held_lock_depth(), 0);
  {
    const MutexLock outer(low);
    EXPECT_EQ(held_lock_depth(), base);
    {
      const MutexLock inner(high);
      EXPECT_EQ(held_lock_depth(), 2 * base);
    }
    EXPECT_EQ(held_lock_depth(), base);
  }
  EXPECT_EQ(held_lock_depth(), 0);
}

TEST(MutexTest, SameRankSequentiallyIsLegal) {
  // The rank rule forbids same-rank locks HELD TOGETHER, not same-rank
  // locks used one after the other — per-circuit verify mutexes are
  // siblings taken sequentially all the time.
  Mutex first(LockRank::kCircuitVerify);
  Mutex second(LockRank::kCircuitVerify);
  {
    const MutexLock lock(first);
  }
  {
    const MutexLock lock(second);
  }
  EXPECT_EQ(held_lock_depth(), 0);
}

TEST(MutexTest, EarlyUnlockAndRelockWork) {
  // A holder that drops its lock before slow work and retakes it
  // after: that shape, including depth bookkeeping.
  Mutex low(LockRank::kSessionRegistry);
  Mutex high(LockRank::kThreadPool);
  MutexLock lock(high);
  lock.unlock();
  EXPECT_EQ(held_lock_depth(), 0);
  {
    // With `high` released, a LOWER rank is acquirable again.
    const MutexLock other(low);
  }
  lock.lock();
  EXPECT_EQ(held_lock_depth(), invariants_on() ? 1 : 0);
}

TEST(MutexTest, CondVarWakesWaiter) {
  Mutex mutex(LockRank::kTest);
  CondVar cv;
  bool ready = false;  // guarded by `mutex` (local, so no TSA)
  bool seen = false;
  std::thread waiter([&] {
    MutexLock lock(mutex);
    while (!ready) {
      cv.wait(lock);
    }
    seen = true;
  });
  {
    const MutexLock lock(mutex);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(seen);
}

TEST(MutexTest, CondVarWaitUntilTimesOut) {
  Mutex mutex(LockRank::kTest);
  CondVar cv;
  MutexLock lock(mutex);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(5);
  // Nobody notifies: the deadline must fire, with the lock re-held.
  EXPECT_EQ(cv.wait_until(lock, deadline), std::cv_status::timeout);
  EXPECT_EQ(held_lock_depth(), invariants_on() ? 1 : 0);
}

TEST(MutexTest, RankAccessorAndNamesAreStable) {
  // Violation reports and docs/CONCURRENCY.md both quote these names;
  // renames must be deliberate.
  const Mutex mutex(LockRank::kSessionRegistry);
  EXPECT_EQ(mutex.rank(), LockRank::kSessionRegistry);
  EXPECT_STREQ(lock_rank_name(LockRank::kSessionRegistry),
               "session-registry");
  EXPECT_STREQ(lock_rank_name(LockRank::kCircuitVerify), "circuit-verify");
  EXPECT_STREQ(lock_rank_name(LockRank::kCircuitSim), "circuit-sim");
  EXPECT_STREQ(lock_rank_name(LockRank::kEventLoop), "event-loop");
  EXPECT_STREQ(lock_rank_name(LockRank::kThreadPool), "thread-pool");
  EXPECT_STREQ(lock_rank_name(LockRank::kPoolJoin), "pool-join");
  EXPECT_STREQ(lock_rank_name(LockRank::kMetricsRegistry),
               "metrics-registry");
  EXPECT_STREQ(lock_rank_name(LockRank::kLogSink), "log-sink");
  EXPECT_STREQ(lock_rank_name(LockRank::kTest), "test");
}

}  // namespace
}  // namespace ambit
