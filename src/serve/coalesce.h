// Cross-connection request coalescing for ambit::serve.
//
// Many small clients — e.g. per-sample classification queries — each
// send EVAL/EVALB requests of a handful of patterns. Served one by one,
// every such request pays a full evaluation pass over 64-bit lane words
// it mostly leaves empty: a 4-pattern request costs the same word sweep
// as a 64-pattern request. The CoalescingQueue collects small requests
// against the SAME circuit that arrive within a short window from
// different connections, packs them BIT-contiguously into one fused
// logic::PatternBatch (PatternBatch::copy_patterns_from), runs a single
// sharded Session evaluation, and scatters each request's slice of the
// output lanes back to its connection.
//
// Why bit-contiguous packing is exact: every AMBIT batch kernel is
// bit-local — output bit b of lane word w depends only on bit b of
// word w of the input lanes (the kernels are pure AND/OR/NOT over
// packed words; see core/gnor_plane.cpp and the Evaluator contract in
// core/evaluator.h). Fusing requests into shared words therefore
// changes WHICH word a pattern lives in, never its value, and the
// scattered responses are bit-identical to uncoalesced execution for
// any window / min-pattern settings (asserted in tests/serve_test.cpp).
// Word-aligned fusion (slice/paste) would preserve exactness too, but
// each request would still occupy its own words, so many tiny requests
// would save nothing — sub-word sharing is where the speedup lives
// (bench_serve_throughput, many-small-clients section).
//
// Leader/follower model: the first request to open a group becomes the
// leader and waits up to `window_us` for followers; any arrival that
// lifts the group to `min_patterns` patterns wakes the leader early.
// The leader then detaches the group (later arrivals start a new one),
// gathers, evaluates OUTSIDE the queue lock, and fulfills every
// member's promise — including exceptions, so a failed fused sweep
// answers every member request with the same error an unfused run
// would have produced. Per-request STATS stay exact: the fused sweep
// runs through Session::eval_unrecorded and each member is counted
// individually with Session::record_eval.
//
// Requests of `min_patterns` patterns or more bypass the queue — they
// already fill words well enough that fusing could only add copy and
// wake-up latency.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "logic/pattern_batch.h"
#include "serve/session.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ambit::serve {

/// Knobs for the coalescer. window_us == 0 disables coalescing
/// entirely: every request evaluates directly, the pre-coalescing
/// behavior (and the default).
struct CoalesceOptions {
  /// How long a leader waits for followers before flushing, in
  /// microseconds. The latency ceiling a small request can pay.
  std::uint64_t window_us = 0;
  /// Flush early once a group holds this many patterns; requests of at
  /// least this many patterns bypass the queue entirely.
  std::uint64_t min_patterns = 64;
};

/// Observability counters (returned by stats(), reported by STATS when
/// coalescing is enabled).
struct CoalesceStats {
  std::uint64_t requests = 0;  ///< requests routed through the queue
  std::uint64_t fused = 0;     ///< of those, answered from a shared sweep
  std::uint64_t batches = 0;   ///< fused sweeps run (groups of >= 2)
};

/// Optional metrics hooks (util/metrics.h), wired by the Server when
/// the metrics layer is on. The counters mirror CoalesceStats exactly
/// (incremented at the same points, under the same lock); the
/// histogram records how long each coalesced request was parked in the
/// queue — the leader's follower-wait window, or a follower's wait for
/// the leader's fused result (which includes the shared sweep itself:
/// a follower's evaluate phase happens on the leader's thread). All
/// pointers may be null; null means "don't record".
struct CoalesceInstruments {
  metrics::Counter* requests = nullptr;
  metrics::Counter* fused = nullptr;
  metrics::Counter* batches = nullptr;
  metrics::Histogram* wait_us = nullptr;
};

/// Fuses small concurrent EVAL/EVALB requests per circuit. Safe to call
/// from any number of request threads; one instance per Server.
class CoalescingQueue {
 public:
  CoalescingQueue(Session& session, CoalesceOptions options,
                  CoalesceInstruments instruments = {})
      : session_(session), options_(options), instruments_(instruments) {}

  /// True when coalescing is configured on (window_us > 0).
  bool enabled() const { return options_.window_us > 0; }

  const CoalesceOptions& options() const { return options_; }

  /// Evaluates `inputs` against `circuit`, possibly fused with other
  /// connections' concurrent requests. Blocks the calling connection
  /// thread until ITS result is ready (at most ~window_us longer than
  /// a direct evaluation). The returned batch — and every counter —
  /// is bit-identical to Session::eval(circuit, inputs). Throws
  /// whatever the underlying evaluation throws.
  logic::PatternBatch eval(
      const std::shared_ptr<const LoadedCircuit>& circuit,
      const logic::PatternBatch& inputs);

  CoalesceStats stats() const;

 private:
  /// One member request parked in a group.
  struct Pending {
    const logic::PatternBatch* inputs = nullptr;  ///< caller-owned
    std::uint64_t first = 0;  ///< pattern offset in the fused batch
    std::promise<logic::PatternBatch> result;
  };

  /// One open group: requests against one circuit instance, waiting for
  /// the leader's flush. Keyed by circuit identity (the pointer), so a
  /// same-name reload can never mix widths within a group.
  ///
  /// Lock discipline (stated here because TSA's GUARDED_BY cannot name
  /// another object's member from a nested struct): while a Group sits
  /// in groups_, its members/total_patterns are guarded by the queue's
  /// mutex_; once the leader erases it from the map the leader owns it
  /// exclusively — every member is parked on its future — and reads it
  /// lock-free.
  struct Group {
    std::shared_ptr<const LoadedCircuit> circuit;
    std::vector<std::unique_ptr<Pending>> members;
    std::uint64_t total_patterns = 0;
    CondVar flush;  ///< wakes the leader on early flush
  };

  Session& session_;
  const CoalesceOptions options_;
  const CoalesceInstruments instruments_;
  mutable Mutex mutex_{LockRank::kCoalesce};
  std::map<const LoadedCircuit*, std::shared_ptr<Group>> groups_
      AMBIT_GUARDED_BY(mutex_);
  std::uint64_t requests_ AMBIT_GUARDED_BY(mutex_) = 0;
  std::uint64_t fused_ AMBIT_GUARDED_BY(mutex_) = 0;
  std::uint64_t batches_ AMBIT_GUARDED_BY(mutex_) = 0;
};

}  // namespace ambit::serve
