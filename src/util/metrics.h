// Process-wide, lock-light metrics: counters, gauges, log-bucketed
// latency histograms, and Prometheus text-format exposition.
//
// The serve front door (src/serve/) needs production observability —
// per-verb request rates, latency distributions, connection lifecycle
// gauges — without taxing the request hot path it is measuring. The
// design splits cold registration from hot recording:
//
//   * Registration (Registry::counter/gauge/histogram) happens once at
//     startup, under a mutex, into deque-backed storage whose element
//     addresses are stable for the registry's lifetime. Callers keep
//     the returned reference and never touch the registry again.
//   * Recording (Counter::add, Gauge::set, Histogram::observe) is a
//     handful of relaxed atomic operations — no locks, no allocation,
//     no branches beyond the bucket search. Relaxed ordering is enough
//     because each sample is independent; exposition reads are
//     monotonic snapshots, the same contract Prometheus scrapes assume.
//   * Exposition (Registry::prometheus_text) walks the families under
//     the registration mutex (which only excludes concurrent
//     REGISTRATION — recording proceeds untouched) and renders the
//     text format 0.0.4 page: # HELP / # TYPE lines, escaped label
//     values, and for histograms the cumulative _bucket series with
//     the mandatory +Inf bound plus _sum and _count.
//
// Compile-out: configuring with -DAMBIT_METRICS=OFF removes every
// record call from the hot path the same way AMBIT_CHECK disappears
// under -DAMBIT_ENABLE_INVARIANTS=OFF (util/check.h) — the methods
// compile to nothing, `metrics_enabled()` lets tests skip exactness
// assertions, and the registry still builds (it just exposes zeros),
// so no caller needs an #ifdef.
//
// Histograms are fixed-bucket and log-spaced: bounds are chosen at
// registration (default: powers of two from 1 us to ~67 s), the bucket
// array is pre-sized, and observe() is a lower_bound over ~26 integers
// plus two relaxed adds — allocation-free and wait-free. Quantiles are
// exact in the histogram sense: quantile(q) returns the upper bound of
// the bucket containing the q-rank sample, clamped to the max observed
// value (which also answers for the overflow bucket), which is the
// precision the bucket layout promises and what p50/p90/p99 dashboards
// consume.
//
// Per-request phase tracing rides the same header: a PhaseTrace is a
// fixed array of per-phase accumulators, installed for the current
// thread with TraceScope, and ScopedPhaseTimer adds elapsed time to
// the ambient trace (if any) on destruction. serve_line() uses it to
// attribute each request's latency to parse / coalesce-wait /
// pool-queue wait / evaluate / serialize and to dump slow requests.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ambit::metrics {

/// True when instrumentation is compiled in (-DAMBIT_METRICS=ON, the
/// default). When false every record call below is a no-op and tests
/// must not assert on recorded values.
constexpr bool metrics_enabled() {
#ifdef AMBIT_METRICS
  return true;
#else
  return false;
#endif
}

/// Microseconds on the monotonic clock — the time base every histogram
/// and phase trace in the repo records in.
inline std::uint64_t monotonic_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event count. add() is one relaxed
/// fetch_add; compiled out entirely under -DAMBIT_METRICS=OFF.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
#ifdef AMBIT_METRICS
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (active connections, queue depth).
class Gauge {
 public:
  void set(std::int64_t v) {
#ifdef AMBIT_METRICS
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  void add(std::int64_t n = 1) {
#ifdef AMBIT_METRICS
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  void sub(std::int64_t n = 1) { add(-n); }

  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket, log-spaced histogram. Bounds are set at registration;
/// observe() is allocation-free: a lower_bound over the bounds plus
/// relaxed adds into the pre-sized bucket array.
class Histogram {
 public:
  /// Upper bounds (inclusive, in recording units — microseconds by
  /// convention) for the finite buckets; one overflow (+Inf) bucket is
  /// appended implicitly. Bounds must be strictly increasing and
  /// non-empty.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Powers of two from 1 us to 2^26 us (~67 s): 27 finite buckets,
  /// ~2x resolution across nine decades — the default for latencies.
  static std::vector<std::uint64_t> default_latency_bounds_us();

  void observe(std::uint64_t value) {
#ifdef AMBIT_METRICS
    record(value);
#else
    (void)value;
#endif
  }

  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max_observed() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the q-quantile sample
  /// (0 < q <= 1), clamped to the max observed value (which is also the
  /// answer when that sample sits in the overflow bucket); 0 when the
  /// histogram is empty. Exact at bucket resolution by construction.
  std::uint64_t quantile(double q) const;

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

  /// Per-bucket counts (finite buckets then overflow), a relaxed
  /// snapshot — buckets may be mid-update relative to each other, which
  /// is the standard scrape contract.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  void record(std::uint64_t value);

  std::vector<std::uint64_t> bounds_;
  // bounds_.size() + 1 slots; the last is the overflow (+Inf) bucket.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Label set attached to one registered metric, e.g. {{"verb","EVAL"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Owns metric families and renders the exposition page. One global()
/// instance serves production; tests and benches construct their own
/// for isolated, exactly-assertable counts. Registration is idempotent:
/// re-registering the same (name, labels) returns the same instance.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry.
  static Registry& global();

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<std::uint64_t> bounds,
                       const Labels& labels = {});

  /// Prometheus text format 0.0.4: families sorted by name, # HELP and
  /// # TYPE once per family, children in registration order.
  std::string prometheus_text() const;

  /// Lookup for tests and benches; nullptr when not registered.
  const Counter* find_counter(const std::string& name,
                              const Labels& labels = {}) const;
  const Gauge* find_gauge(const std::string& name,
                          const Labels& labels = {}) const;
  const Histogram* find_histogram(const std::string& name,
                                  const Labels& labels = {}) const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  /// One metric family: a name, a type, and its labeled children in
  /// registration order. Children live in deques so the references
  /// handed out at registration stay valid forever.
  struct Family {
    Type type = Type::kCounter;
    std::string help;
    std::deque<std::pair<Labels, Counter>> counters;
    std::deque<std::pair<Labels, Gauge>> gauges;
    std::deque<std::pair<Labels, Histogram>> histograms;
  };

  Family& family_locked(const std::string& name, const std::string& help,
                        Type type) AMBIT_REQUIRES(mutex_);

  mutable Mutex mutex_{LockRank::kMetricsRegistry};
  // Ordered by name: exposition renders in deterministic sorted order.
  std::map<std::string, Family> families_ AMBIT_GUARDED_BY(mutex_);
};

// --- Per-request phase tracing ---------------------------------------------

/// The phases a serve request's wall time decomposes into.
enum class Phase : std::size_t {
  kParse = 0,         ///< request-line tokenizing + argument parsing
  kCoalesceWait = 1,  ///< leader window / follower future wait
  kQueueWait = 2,     ///< from the event loop's dispatch of a request
                      ///< to a pool worker starting it; requests the
                      ///< loop serves itself record none
  kEvaluate = 3,      ///< kernel sweep (eval/sim/verify)
  kSerialize = 4,     ///< response formatting + payload write
};
inline constexpr std::size_t kNumPhases = 5;

/// Printable phase name ("parse", "coalesce_wait", ...), used both as
/// the Prometheus label value and in slow-request log lines.
const char* phase_name(Phase phase);

/// Accumulated microseconds per phase for one request. Plain data —
/// owned by the request's serving frame, written through the ambient
/// thread-local pointer by the RAII timers below.
struct PhaseTrace {
  std::array<std::uint64_t, kNumPhases> us{};

  void add(Phase phase, std::uint64_t elapsed_us) {
    us[static_cast<std::size_t>(phase)] += elapsed_us;
  }
  std::uint64_t get(Phase phase) const {
    return us[static_cast<std::size_t>(phase)];
  }
};

/// The calling thread's active trace, or nullptr when the current work
/// is not being traced (metrics off, tracing disabled, worker thread).
PhaseTrace* current_trace();

/// Installs `trace` as the calling thread's active trace for the scope;
/// restores the previous one on exit (scopes nest). Pass nullptr to
/// disable tracing for the scope.
class TraceScope {
 public:
  explicit TraceScope(PhaseTrace* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  PhaseTrace* previous_;
};

/// Adds the scope's elapsed time to the ambient trace's `phase` slot.
/// Free when no trace is installed: one thread-local read, no clock
/// call. Compiled out entirely under -DAMBIT_METRICS=OFF.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Phase phase)
#ifdef AMBIT_METRICS
      : phase_(phase), trace_(current_trace()),
        start_us_(trace_ != nullptr ? monotonic_us() : 0) {
  }
#else
  {
    (void)phase;
  }
#endif

  ~ScopedPhaseTimer() {
#ifdef AMBIT_METRICS
    if (trace_ != nullptr) {
      trace_->add(phase_, monotonic_us() - start_us_);
    }
#endif
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
#ifdef AMBIT_METRICS
  Phase phase_;
  PhaseTrace* trace_;
  std::uint64_t start_us_;
#endif
};

}  // namespace ambit::metrics
