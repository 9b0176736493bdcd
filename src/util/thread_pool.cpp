#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/check.h"
#include "util/error.h"
#include "util/strings.h"

namespace ambit {

namespace {

using Body = std::function<void(std::uint64_t, std::uint64_t)>;

/// One parallel_for call's shared state: the chunk cursor every runner
/// claims from, and the latch the caller waits on. Helper tasks hold it
/// by shared_ptr, so one that reaches a worker after the call returned
/// still finds a live cursor (already exhausted) and leaves without
/// touching `body`.
struct ForJob {
  ForJob(std::uint64_t range_begin, std::uint64_t range_end,
         std::uint64_t chunk_size, std::uint64_t chunk_count,
         const Body* chunk_body)
      : begin(range_begin), end(range_end), chunk(chunk_size),
        num_chunks(chunk_count), body(chunk_body), pending(chunk_count) {}

  const std::uint64_t begin;
  const std::uint64_t end;
  const std::uint64_t chunk;
  const std::uint64_t num_chunks;
  // Dereferenced only after a successful claim, and the caller does not
  // return while a claimed chunk is unfinished.
  const Body* const body;
  std::atomic<std::uint64_t> next{0};

  Mutex m{LockRank::kPoolJoin};
  CondVar done;
  std::uint64_t pending AMBIT_GUARDED_BY(m);
  std::exception_ptr error AMBIT_GUARDED_BY(m);

  /// Runs chunks until the cursor passes the last one. Exceptions are
  /// captured, the first one wins, and the remaining chunks still run.
  void drain() {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_chunks) {
        return;
      }
      const std::uint64_t lo = begin + i * chunk;
      const std::uint64_t hi = std::min(end, lo + chunk);
      AMBIT_CHECK(lo < hi, "ThreadPool::parallel_for: degenerate chunk");
      std::exception_ptr failure;
      try {
        (*body)(lo, hi);
      } catch (...) {
        failure = std::current_exception();
      }
      bool last = false;
      {
        const MutexLock lock(m);
        if (failure && !error) {
          error = failure;
        }
        last = --pending == 0;
      }
      if (last) {
        done.notify_one();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  check(num_workers >= 0, "ThreadPool: negative worker count");
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  // A task that throws must cost only itself, never the worker thread
  // (an escaped exception would terminate the process) — same contract
  // as a connection-thread body.
  std::function<void()> guarded = [task = std::move(task)] {
    try {
      task();
    } catch (...) {
    }
  };
  if (num_workers() == 0) {
    guarded();  // inline degradation, like parallel_for's
    return;
  }
  {
    const MutexLock lock(mutex_);
    tasks_.push(std::move(guarded));
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  work_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) {
        work_ready_.wait(lock);
      }
      if (tasks_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    queued_.fetch_sub(1, std::memory_order_relaxed);
    busy_.fetch_add(1, std::memory_order_relaxed);
    task();
    busy_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(
    std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
    const std::function<void(std::uint64_t, std::uint64_t)>& body) {
  if (begin >= end) {
    return;
  }
  grain = std::max<std::uint64_t>(grain, 1);
  const std::uint64_t count = end - begin;
  // Inline cases: a zero-worker pool and a range too small to shard.
  if (num_workers() == 0 || count <= grain) {
    body(begin, end);
    return;
  }
  // Contiguous chunks of ceil(count / slices) indices, where the slice
  // count targets a few chunks per worker for load balance. The
  // partition depends only on (count, grain, num_workers).
  const std::uint64_t max_slices =
      std::max<std::uint64_t>(count / grain, 1);
  const std::uint64_t slices = std::min<std::uint64_t>(
      max_slices, static_cast<std::uint64_t>(num_workers()) * 4);
  const std::uint64_t chunk = (count + slices - 1) / slices;
  const std::uint64_t num_chunks = (count + chunk - 1) / chunk;
  // The partition invariant everything downstream leans on: every chunk
  // is non-empty and together they cover [begin, end) exactly — the
  // determinism guarantee in the header, stated executably.
  AMBIT_CHECK((num_chunks - 1) * chunk < count && num_chunks * chunk >= count,
              "ThreadPool::parallel_for: chunk partition does not cover the "
              "range exactly");
  const auto job =
      std::make_shared<ForJob>(begin, end, chunk, num_chunks, &body);

  // One helper per worker at most; the caller is a runner too.
  const std::uint64_t helpers = std::min<std::uint64_t>(
      num_chunks - 1, static_cast<std::uint64_t>(num_workers()));
  {
    const MutexLock lock(mutex_);
    for (std::uint64_t h = 0; h < helpers; ++h) {
      tasks_.push([job] { job->drain(); });
    }
    queued_.fetch_add(static_cast<std::int64_t>(helpers),
                      std::memory_order_relaxed);
  }
  work_ready_.notify_all();

  job->drain();
  MutexLock lock(job->m);
  while (job->pending != 0) {
    job->done.wait(lock);
  }
  if (job->error) {
    std::rethrow_exception(job->error);
  }
}

int ThreadPool::default_workers() {
  if (const char* env = std::getenv("AMBIT_THREADS")) {
    return static_cast<int>(parse_count("AMBIT_THREADS", env, 1));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace ambit
