// Tests for the ThreadPool chunked parallel_for: exact coverage of the
// index range, deterministic partitioning, exception propagation out of
// workers, the inline zero-worker degenerate mode, and the
// fire-and-forget submit() path with its deadlock-free nesting rules
// (a worker that calls parallel_for runs chunks itself, and idle
// workers help).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pool_task.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace ambit {
namespace {

using testing_support::run_as_submitted_task;

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (const int workers : {0, 1, 3}) {
    ThreadPool pool(workers);
    for (const std::uint64_t count : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) {
        h.store(0);
      }
      pool.parallel_for(0, count, 3, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          hits[i].fetch_add(1);
        }
      });
      for (std::uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "workers=" << workers << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, NonZeroBeginRespected) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(10, 20, 1, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) {
      sum.fetch_add(i);
    }
  });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ThreadPoolTest, ChunkPartitionIsDeterministic) {
  // The chunk boundaries must be a pure function of the arguments, not
  // of scheduling: run the same range twice and compare the recorded
  // partitions.
  ThreadPool pool(3);
  const auto record = [&pool] {
    // Lock-free recording: chunk bodies must not acquire locks (the
    // repo concurrency lint enforces this), so chunks land in a
    // pre-sized slot array claimed through an atomic cursor.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> slots(997);
    std::atomic<std::size_t> cursor{0};
    pool.parallel_for(0, 997, 10, [&](std::uint64_t lo, std::uint64_t hi) {
      slots[cursor.fetch_add(1)] = {lo, hi};
    });
    return std::set<std::pair<std::uint64_t, std::uint64_t>>(
        slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(
                                           cursor.load()));
  };
  EXPECT_EQ(record(), record());
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (const int workers : {0, 2}) {
    ThreadPool pool(workers);
    EXPECT_THROW(
        pool.parallel_for(0, 100, 1,
                          [](std::uint64_t, std::uint64_t hi) {
                            if (hi > 40) {
                              throw Error("worker failure");
                            }
                          }),
        Error)
        << "workers=" << workers;
    // The pool must stay usable after a throwing body.
    std::atomic<int> count{0};
    pool.parallel_for(0, 10, 1, [&](std::uint64_t lo, std::uint64_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ThreadPoolTest, ManySuccessiveCallsReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 64, 4, [&](std::uint64_t lo, std::uint64_t hi) {
      total.fetch_add(hi - lo);
    });
  }
  EXPECT_EQ(total.load(), 50u * 64u);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, 1,
                    [&](std::uint64_t, std::uint64_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, NegativeWorkerCountRejected) {
  EXPECT_THROW(ThreadPool(-1), Error);
}

TEST(ThreadPoolTest, DefaultWorkersIsPositive) {
  EXPECT_GE(ThreadPool::default_workers(), 1);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(3);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  Mutex mutex(LockRank::kTest);
  CondVar all_done;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      // Count under the lock: the test thread sees the final count only
      // once this task is done with `mutex` and `all_done`, so it cannot
      // destroy them under a late notify.
      const MutexLock lock(mutex);
      if (done.fetch_add(1) + 1 == kTasks) {
        all_done.notify_one();
      }
    });
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  MutexLock lock(mutex);
  while (done.load() != kTasks &&
         all_done.wait_until(lock, deadline) != std::cv_status::timeout) {
  }
  ASSERT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, SubmitSwallowsTaskExceptions) {
  // A submitted task owns its own error reporting: a throw must not
  // take down the worker (later tasks still run) or the process.
  ThreadPool pool(1);
  std::atomic<bool> ran_after{false};
  Mutex mutex(LockRank::kTest);
  CondVar cv;
  pool.submit([] { throw Error("submitted task failure"); });
  pool.submit([&] {
    const MutexLock lock(mutex);  // see SubmitRunsEveryTask
    ran_after.store(true);
    cv.notify_one();
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  MutexLock lock(mutex);
  while (!ran_after.load() &&
         cv.wait_until(lock, deadline) != std::cv_status::timeout) {
  }
  ASSERT_TRUE(ran_after.load());
}

TEST(ThreadPoolTest, SubmitOnZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // no workers: submit degenerates to a direct call
}

TEST(ThreadPoolTest, NestedParallelForFromSubmittedTaskShardsOnIdleWorkers) {
  // A request the serve event loop hands to the pool runs on a worker; when
  // the other workers are idle, its sharded sweep must use them rather
  // than run every chunk on the calling worker. Each chunk sleeps long
  // enough for the idle workers to wake and claim chunks; which threads
  // ran them is recorded lock-free (slots claimed through a cursor).
  ThreadPool pool(4);
  std::vector<std::thread::id> ran_on(64);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> covered{0};
  run_as_submitted_task(pool, [&] {
    pool.parallel_for(0, 64, 1, [&](std::uint64_t lo, std::uint64_t hi) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ran_on[cursor.fetch_add(1)] = std::this_thread::get_id();
      covered.fetch_add(hi - lo);
    });
  });
  EXPECT_EQ(covered.load(), 64u);
  const std::set<std::thread::id> threads(
      ran_on.begin(),
      ran_on.begin() + static_cast<std::ptrdiff_t>(cursor.load()));
  EXPECT_GE(threads.size(), 2u)
      << "a nested parallel_for ran every chunk on the calling worker";
}

TEST(ThreadPoolTest, NestedParallelForPropagatesChunkExceptionToTask) {
  // A chunk of a nested call throws: the exception must reach the
  // submitted task that made the call (whichever thread ran the chunk),
  // and the pool must stay usable for the next nested call.
  ThreadPool pool(3);
  std::string caught;
  std::atomic<std::uint64_t> covered{0};
  run_as_submitted_task(pool, [&] {
    try {
      pool.parallel_for(0, 100, 1, [](std::uint64_t, std::uint64_t hi) {
        if (hi > 40) {
          throw Error("nested chunk failure");
        }
      });
    } catch (const Error& e) {
      caught = e.what();
    }
    pool.parallel_for(0, 100, 1, [&](std::uint64_t lo, std::uint64_t hi) {
      covered.fetch_add(hi - lo);
    });
  });
  EXPECT_EQ(caught, "nested chunk failure");
  EXPECT_EQ(covered.load(), 100u);
}

TEST(ThreadPoolTest, NestedParallelForFromSubmittedTaskCannotDeadlock) {
  // The serve event loop submits request jobs that themselves call
  // parallel_for on the SAME pool (a sharded EVALB). With every worker
  // busy on such a job, a queue-and-wait nested call would park all
  // workers on work only they could drain — so the calling worker runs
  // chunks itself and waits only for chunks already running, and
  // saturating the pool with such calls must still complete.
  ThreadPool pool(2);
  constexpr int kJobs = 8;  // > workers: saturation is the point
  std::atomic<std::uint64_t> covered{0};
  std::atomic<int> jobs_done{0};
  Mutex mutex(LockRank::kTest);
  CondVar cv;
  for (int j = 0; j < kJobs; ++j) {
    pool.submit([&] {
      pool.parallel_for(0, 64, 8, [&](std::uint64_t lo, std::uint64_t hi) {
        covered.fetch_add(hi - lo);
      });
      if (jobs_done.fetch_add(1) + 1 == kJobs) {
        const MutexLock lock(mutex);
        cv.notify_one();
      }
    });
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  MutexLock lock(mutex);
  while (jobs_done.load() != kJobs &&
         cv.wait_until(lock, deadline) != std::cv_status::timeout) {
  }
  ASSERT_EQ(jobs_done.load(), kJobs);
  EXPECT_EQ(covered.load(), kJobs * 64u);
}

}  // namespace
}  // namespace ambit
