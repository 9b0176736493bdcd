#include "util/mutex.h"

#include <string>

#include "util/check.h"

namespace ambit {

const char* lock_rank_name(LockRank rank) {
  switch (rank) {
    case LockRank::kSessionRegistry:
      return "session-registry";
    case LockRank::kCircuitVerify:
      return "circuit-verify";
    case LockRank::kCircuitSim:
      return "circuit-sim";
    case LockRank::kEventLoop:
      return "event-loop";
    case LockRank::kThreadPool:
      return "thread-pool";
    case LockRank::kPoolJoin:
      return "pool-join";
    case LockRank::kMetricsRegistry:
      return "metrics-registry";
    case LockRank::kLogSink:
      return "log-sink";
    case LockRank::kTest:
      return "test";
  }
  return "unknown";
}

#ifdef AMBIT_ENABLE_INVARIANTS

namespace {

/// The calling thread's held-lock stack: the ranks (and identities) of
/// every Mutex it currently holds, bottom to top. Fixed capacity — the
/// deepest legal chain in the hierarchy is a handful of locks, so 32
/// slots overflowing is itself a violation worth aborting on.
struct HeldLockStack {
  static constexpr int kCapacity = 32;
  const Mutex* held[kCapacity] = {};
  int depth = 0;
};

thread_local HeldLockStack t_held;

[[noreturn]] void rank_violation(const Mutex& acquiring,
                                 const Mutex& holding) {
  const bool same = acquiring.rank() == holding.rank();
  std::string message;
  message += same ? (&acquiring == &holding
                         ? "recursive acquisition of the same mutex"
                         : "same-rank lock acquisition")
                  : "out-of-rank lock acquisition";
  message += ": acquiring ";
  message += lock_rank_name(acquiring.rank());
  message += " (rank ";
  message += std::to_string(static_cast<int>(acquiring.rank()));
  message += ") while holding ";
  message += lock_rank_name(holding.rank());
  message += " (rank ";
  message += std::to_string(static_cast<int>(holding.rank()));
  message += "); locks must be acquired in strictly increasing rank "
             "order (docs/CONCURRENCY.md)";
  detail::invariant_failure("lock rank order", __FILE__, __LINE__, message);
}

}  // namespace

int held_lock_depth() { return t_held.depth; }

void Mutex::rank_check() const {
  if (t_held.depth > 0) {
    const Mutex* top = t_held.held[t_held.depth - 1];
    if (rank_ <= top->rank_) {
      rank_violation(*this, *top);
    }
  }
  if (t_held.depth >= HeldLockStack::kCapacity) {
    detail::invariant_failure("lock stack depth", __FILE__, __LINE__,
                              "held-lock stack overflow: a thread holds "
                              "more than 32 mutexes at once");
  }
}

void Mutex::rank_push() const { t_held.held[t_held.depth++] = this; }

void Mutex::rank_pop() const {
  // Locks release in LIFO order everywhere in this repo (RAII scopes),
  // but tolerate an out-of-order release: remove the TOPMOST entry for
  // this mutex. A release of a mutex this thread does not hold is a
  // hard bug.
  for (int i = t_held.depth - 1; i >= 0; --i) {
    if (t_held.held[i] == this) {
      for (int j = i; j + 1 < t_held.depth; ++j) {
        t_held.held[j] = t_held.held[j + 1];
      }
      --t_held.depth;
      return;
    }
  }
  detail::invariant_failure("lock release", __FILE__, __LINE__,
                            "released a mutex the calling thread does not "
                            "hold");
}

#else

int held_lock_depth() { return 0; }

#endif  // AMBIT_ENABLE_INVARIANTS

}  // namespace ambit
