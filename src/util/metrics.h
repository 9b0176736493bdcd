// Lock-light metrics: counters, gauges, log-bucketed latency
// histograms, and Prometheus text-format exposition.
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
//     no search. Relaxed ordering is enough because each sample is
//     independent; exposition reads are monotonic snapshots, the same
//     contract Prometheus scrapes assume.
//   * Exposition (Registry::prometheus_text) walks the families under
//     the registration mutex (which only excludes concurrent
//     REGISTRATION — recording proceeds untouched) and renders the
//     text format 0.0.4 page: # HELP / # TYPE lines, escaped label
//     values, and for histograms the cumulative _bucket series with
//     the mandatory +Inf bound plus _sum and _count.
//
// Every histogram shares one fixed layout: a bucket for 0, powers of
// two from 1 to 2^26 (~67 s in microseconds), then +Inf. observe()
// computes its bucket from the value's bit width (Histogram::bucket_of)
// and makes two relaxed adds — allocation-free and wait-free; one
// function gives the bounds (Histogram::bound). Quantiles are exact in
// the histogram sense: quantile(q) returns the upper bound of the
// bucket containing the q-rank sample, clamped to the max observed
// value (which also answers for the overflow bucket), which is the
// precision the bucket layout promises and what p50/p90/p99 dashboards
// consume.
//
// Per-request phase tracing rides the same header: a PhaseTrace holds
// one request's total and a fixed array of per-phase accumulators, owned
// by the request's serving frame. Server::serve_batch reads the clock
// once per step boundary and charges each step to the total of every
// request it serves and to at most one phase — parse / pool-queue wait /
// evaluate / serialize — so for a verb that records phases they add up
// to its total; it also dumps slow requests.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ambit::metrics {

/// Microseconds on the monotonic clock — the time base every histogram
/// and phase trace in the repo records in.
inline std::uint64_t monotonic_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event count. add() is one relaxed
/// fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (active connections, queue depth).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }

  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  void sub(std::int64_t n = 1) { add(-n); }

  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket, log-spaced histogram in the one layout every histogram
/// shares. observe() is allocation-free: a bit-width bucket index plus
/// relaxed adds into the bucket array.
class Histogram {
 public:
  /// Finite buckets (0, then 2^0 .. 2^26) plus the overflow (+Inf).
  static constexpr std::size_t kBuckets = 29;

  /// The bucket `value` lands in: 0 holds 0, k holds (2^(k-2), 2^(k-1)]
  /// for k in [1, 27], and kBuckets - 1 holds everything above 2^26.
  static constexpr std::size_t bucket_of(std::uint64_t value) {
    return value == 0 ? 0
                      : std::min<std::size_t>(std::bit_width(value - 1) + 1,
                                              kBuckets - 1);
  }

  /// Inclusive upper bound of finite bucket `i` (i < kBuckets - 1), in
  /// recording units — microseconds by convention.
  static constexpr std::uint64_t bound(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(std::uint64_t value);

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

  /// Per-bucket counts (finite buckets then overflow), a relaxed
  /// snapshot — buckets may be mid-update relative to each other, which
  /// is the standard scrape contract.
  std::array<std::uint64_t, kBuckets> bucket_counts() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Label set attached to one registered metric, e.g. {{"verb","EVAL"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Owns metric families and renders the exposition page. Each Server
/// owns one unless it is handed one (serve/server.h), so counts are
/// per server and exactly assertable. Registration is idempotent:
/// re-registering the same (name, labels) returns the same instance.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
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
  using Metric = std::variant<Counter, Gauge, Histogram>;

  /// One metric family: its help text and its labeled children in
  /// registration order, all of one Metric alternative (the family's
  /// type). Children live in a deque so the references handed out at
  /// registration stay valid forever.
  struct Family {
    std::string help;
    std::deque<std::pair<Labels, Metric>> children;
  };

  /// The one registration path: the child of `name` with `labels`,
  /// created (with its family) on first use.
  template <typename M>
  M& child(const std::string& name, const std::string& help,
           const Labels& labels);
  /// The one lookup path; nullptr when absent or of another type.
  template <typename M>
  const M* find(const std::string& name, const Labels& labels) const;

  mutable Mutex mutex_{LockRank::kMetricsRegistry};
  // Ordered by name: exposition renders in deterministic sorted order.
  std::map<std::string, Family> families_ AMBIT_GUARDED_BY(mutex_);
};

// --- Per-request phase tracing ---------------------------------------------

/// The phases a serve request's wall time decomposes into. Each step
/// of a request is charged to at most one of them (docs/OBSERVABILITY.md
/// has the table); a step charged to none counts in the total only.
enum class Phase : std::size_t {
  kParse = 0,      ///< an EVAL/SIM's circuit lookup and pattern decode
                   ///< (the line's head is parsed at framing, outside
                   ///< the clock)
  kQueueWait = 1,  ///< from the event loop's dispatch of a request to a
                   ///< pool worker starting it; requests the loop
                   ///< serves itself record none
  kEvaluate = 2,   ///< kernel sweep (eval/sim/verify); a request fused
                   ///< into a shared sweep records the whole sweep
  kSerialize = 3,  ///< response formatting (and the METRICS page)
};
inline constexpr std::size_t kNumPhases = 4;

/// Printable phase name ("parse", "queue_wait", ...), used both as
/// the Prometheus label value and in slow-request log lines.
const char* phase_name(Phase phase);

/// One request's wall time: its total and each phase's share of it, in
/// microseconds. Plain data, owned by the request's serving frame.
struct PhaseTrace {
  std::uint64_t total_us = 0;
  std::array<std::uint64_t, kNumPhases> us{};

  /// Charges one step of `elapsed_us` to the total and, when given, to
  /// `phase`.
  void add(std::optional<Phase> phase, std::uint64_t elapsed_us) {
    total_us += elapsed_us;
    if (phase.has_value()) {
      us[static_cast<std::size_t>(*phase)] += elapsed_us;
    }
  }
  std::uint64_t get(Phase phase) const {
    return us[static_cast<std::size_t>(phase)];
  }
};

}  // namespace ambit::metrics
