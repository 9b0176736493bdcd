// A fixed-size worker pool with a chunked parallel_for.
//
// AMBIT's bit-parallel kernels (core/evaluator.h) already squeeze 64
// patterns into every machine word; the remaining axis of parallelism
// is ACROSS words, and the lanes are embarrassingly parallel: no kernel
// carries state between words of a PatternBatch lane. ThreadPool
// exploits that with the smallest possible surface — parallel_for over
// an index range, split into contiguous chunks, executed by a fixed set
// of workers that live as long as the pool.
//
// Guarantees relied on by the callers:
//   * the chunk partition depends only on (range, grain, num_workers) —
//     never on scheduling — so any per-chunk determinism (e.g. the
//     per-trial RNG streams of fault/yield.cpp) survives threading;
//   * exceptions thrown by the body are captured and the FIRST one is
//     rethrown on the calling thread after every chunk has finished, so
//     a throwing worker cannot leave the pool wedged;
//   * parallel_for is safe for CONCURRENT CALLERS: each call carries
//     its own completion state, so the concurrent requests of the
//     serve front door (serve/server.h) can all shard their evaluations
//     through the one shared session pool at once — calls interleave
//     in the task queue but each blocks only on its own chunks;
//   * parallel_for NESTS: the calling thread claims chunks from the
//     same atomic cursor as the workers, so a call made from a pool
//     worker (a submitted task, or another call's chunk) shards across
//     whichever workers are free and can never deadlock — see
//     parallel_for below;
//   * a pool with zero workers degrades to an inline sequential loop,
//     which keeps single-core containers and TSan runs cheap.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ambit {

/// Fixed set of worker threads executing chunked index ranges.
class ThreadPool {
 public:
  /// Spawns `num_workers` threads; 0 means "run everything inline on
  /// the calling thread" (still a valid pool, just sequential).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Applies `body(chunk_begin, chunk_end)` over a partition of
  /// [begin, end) into contiguous chunks of at least `grain` indices
  /// (the last chunk may be smaller). Blocks until every chunk is done;
  /// rethrows the first exception any chunk raised. The partition is a
  /// pure function of the arguments and num_workers(), so work
  /// assignment is reproducible run to run; which thread runs a chunk
  /// is not.
  ///
  /// NESTED-CALL CONTRACT: the caller is one of the chunk runners. The
  /// call enqueues helper tasks for the workers, then claims chunks
  /// from the call's atomic cursor itself, and blocks only once the
  /// cursor is exhausted, waiting for the chunks other threads have
  /// already started. It never waits for a chunk nobody is running, so
  /// a call from a pool worker — every request the serve event loop
  /// hands to the pool runs on one — needs no free worker to finish:
  /// with the pool saturated it runs every chunk itself, and with
  /// workers idle they help. Helper tasks that reach a worker after the
  /// cursor ran out return at once.
  void parallel_for(
      std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
      const std::function<void(std::uint64_t, std::uint64_t)>& body);

  /// Enqueues one fire-and-forget task for a worker to run. Unlike
  /// parallel_for this never blocks: the serve event loop hands LOAD,
  /// VERIFY, SIM and multi-word evaluations to it, so the loop thread
  /// keeps polling while workers sweep. Exceptions a task throws are
  /// swallowed — a submitted task owns its own error reporting, exactly
  /// like a connection-thread body. A zero-worker pool runs the task inline
  /// before returning. Tasks may call parallel_for (or submit) on this
  /// same pool; see the nested-call contract above.
  void submit(std::function<void()> task);

  /// Worker count for "use the machine": the AMBIT_THREADS environment
  /// variable when set, else std::thread::hardware_concurrency. A set
  /// AMBIT_THREADS must be a count >= 1 (parse_count, util/strings.h);
  /// anything else throws ambit::Error naming the variable and value.
  static int default_workers();

  /// Observability snapshots (relaxed). Tasks (submitted ones and
  /// parallel_for helpers) enqueued but not yet picked up by a worker:
  std::int64_t queued_tasks() const {
    return queued_.load(std::memory_order_relaxed);
  }
  /// Workers currently executing a task:
  std::int64_t busy_workers() const {
    return busy_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  Mutex mutex_{LockRank::kThreadPool};
  CondVar work_ready_;
  std::queue<std::function<void()>> tasks_ AMBIT_GUARDED_BY(mutex_);
  bool stopping_ AMBIT_GUARDED_BY(mutex_) = false;
  // Written only by the constructor, before any worker exists; const
  // thereafter (num_workers reads it unlocked from any thread).
  std::vector<std::thread> workers_;
  std::atomic<std::int64_t> queued_{0};
  std::atomic<std::int64_t> busy_{0};
};

}  // namespace ambit
