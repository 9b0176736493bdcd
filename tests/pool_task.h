// Test helper: run a callable as a task submitted to a ThreadPool and
// wait for it, the way the serve event loop runs every request. Tests
// use it to make nested pool calls from a worker thread.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace ambit::testing_support {

/// Runs `task` as a task submitted to `pool` and blocks until it has
/// returned (10 s cap; a timeout fails the calling test).
inline void run_as_submitted_task(ThreadPool& pool,
                                  const std::function<void()>& task) {
  std::atomic<bool> finished{false};
  Mutex mutex(LockRank::kTest);
  CondVar cv;
  pool.submit([&] {
    task();
    // Publish under the lock, so the waiting thread cannot see the flag
    // and destroy `mutex`/`cv` before this notify is done with them.
    const MutexLock lock(mutex);
    finished.store(true);
    cv.notify_one();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  MutexLock lock(mutex);
  while (!finished.load() &&
         cv.wait_until(lock, deadline) != std::cv_status::timeout) {
  }
  ASSERT_TRUE(finished.load()) << "submitted task did not finish";
}

}  // namespace ambit::testing_support
