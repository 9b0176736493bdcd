#include "util/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace ambit::metrics {

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool valid_metric_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) {
    return false;
  }
  return std::all_of(name.begin() + 1, name.end(), [&head](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

/// Label names: [a-zA-Z_][a-zA-Z0-9_]* (no colon, per the spec).
bool valid_label_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) {
    return false;
  }
  return std::all_of(name.begin() + 1, name.end(), [&head](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

/// Label VALUES escape backslash, double-quote and newline; HELP text
/// escapes backslash and newline (text format 0.0.4 rules).
std::string escape_value(const std::string& raw, bool escape_quote) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '"':
        if (escape_quote) {
          out += "\\\"";
        } else {
          out += c;
        }
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Renders {a="x",b="y"} with an optional extra label appended (the
/// histogram `le` bound); empty string when there are no labels at all.
std::string render_labels(const Labels& labels, const std::string& extra_name,
                          const std::string& extra_value) {
  if (labels.empty() && extra_name.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += k + "=\"" + escape_value(v, /*escape_quote=*/true) + "\"";
  }
  if (!extra_name.empty()) {
    if (!first) {
      out += ',';
    }
    out += extra_name + "=\"" + extra_value + "\"";
  }
  out += '}';
  return out;
}

void validate_labels(const Labels& labels) {
  for (const auto& [k, v] : labels) {
    (void)v;
    check(valid_label_name(k), "metrics: invalid label name '" + k + "'");
  }
}

}  // namespace

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  check(!bounds_.empty(), "Histogram: needs at least one finite bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    check(bounds_[i - 1] < bounds_[i],
          "Histogram: bucket bounds must be strictly increasing");
  }
}

std::vector<std::uint64_t> Histogram::default_latency_bounds_us() {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(27);
  for (int p = 0; p <= 26; ++p) {
    bounds.push_back(std::uint64_t{1} << p);
  }
  return bounds;
}

void Histogram::record(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t idx =
      static_cast<std::size_t>(it - bounds_.begin());  // == size() -> +Inf
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  return counts;
}

std::uint64_t Histogram::quantile(double q) const {
  check(q > 0.0 && q <= 1.0, "Histogram::quantile: q must be in (0, 1]");
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0;
  }
  // Rank of the q-quantile sample, 1-based: ceil(q * total).
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // A bucket's upper bound can lie far above every sample in it
      // (one 38871 us sample sits in the 65536 bucket); no quantile may
      // exceed the largest sample.
      return i < bounds_.size() ? std::min(bounds_[i], max_observed())
                                : max_observed();
    }
  }
  return max_observed();  // unreachable; keeps the compiler satisfied
}

// --- Registry --------------------------------------------------------------

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry::Family& Registry::family_locked(const std::string& name,
                                          const std::string& help, Type type) {
  check(valid_metric_name(name), "metrics: invalid metric name '" + name + "'");
  const auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.type = type;
    fam.help = help;
  } else {
    check(fam.type == type,
          "metrics: metric '" + name + "' re-registered with a different type");
  }
  return fam;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  validate_labels(labels);
  const MutexLock lock(mutex_);
  Family& fam = family_locked(name, help, Type::kCounter);
  for (auto& [child_labels, child] : fam.counters) {
    if (child_labels == labels) {
      return child;
    }
  }
  fam.counters.emplace_back(std::piecewise_construct,
                            std::forward_as_tuple(labels),
                            std::forward_as_tuple());
  return fam.counters.back().second;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  validate_labels(labels);
  const MutexLock lock(mutex_);
  Family& fam = family_locked(name, help, Type::kGauge);
  for (auto& [child_labels, child] : fam.gauges) {
    if (child_labels == labels) {
      return child;
    }
  }
  fam.gauges.emplace_back(std::piecewise_construct,
                          std::forward_as_tuple(labels),
                          std::forward_as_tuple());
  return fam.gauges.back().second;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<std::uint64_t> bounds,
                               const Labels& labels) {
  validate_labels(labels);
  const MutexLock lock(mutex_);
  Family& fam = family_locked(name, help, Type::kHistogram);
  for (auto& [child_labels, child] : fam.histograms) {
    if (child_labels == labels) {
      return child;
    }
  }
  fam.histograms.emplace_back(std::piecewise_construct,
                              std::forward_as_tuple(labels),
                              std::forward_as_tuple(std::move(bounds)));
  return fam.histograms.back().second;
}

const Counter* Registry::find_counter(const std::string& name,
                                      const Labels& labels) const {
  const MutexLock lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.type != Type::kCounter) {
    return nullptr;
  }
  for (const auto& [child_labels, child] : it->second.counters) {
    if (child_labels == labels) {
      return &child;
    }
  }
  return nullptr;
}

const Gauge* Registry::find_gauge(const std::string& name,
                                  const Labels& labels) const {
  const MutexLock lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.type != Type::kGauge) {
    return nullptr;
  }
  for (const auto& [child_labels, child] : it->second.gauges) {
    if (child_labels == labels) {
      return &child;
    }
  }
  return nullptr;
}

const Histogram* Registry::find_histogram(const std::string& name,
                                          const Labels& labels) const {
  const MutexLock lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.type != Type::kHistogram) {
    return nullptr;
  }
  for (const auto& [child_labels, child] : it->second.histograms) {
    if (child_labels == labels) {
      return &child;
    }
  }
  return nullptr;
}

std::string Registry::prometheus_text() const {
  const MutexLock lock(mutex_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "# HELP " + name + " " + escape_value(fam.help, false) + "\n";
    switch (fam.type) {
      case Type::kCounter:
        out += "# TYPE " + name + " counter\n";
        for (const auto& [labels, child] : fam.counters) {
          out += name + render_labels(labels, "", "") + " " +
                 std::to_string(child.value()) + "\n";
        }
        break;
      case Type::kGauge:
        out += "# TYPE " + name + " gauge\n";
        for (const auto& [labels, child] : fam.gauges) {
          out += name + render_labels(labels, "", "") + " " +
                 std::to_string(child.value()) + "\n";
        }
        break;
      case Type::kHistogram:
        out += "# TYPE " + name + " histogram\n";
        for (const auto& [labels, child] : fam.histograms) {
          const std::vector<std::uint64_t> counts = child.bucket_counts();
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < child.bounds().size(); ++i) {
            cumulative += counts[i];
            out += name + "_bucket" +
                   render_labels(labels, "le",
                                 std::to_string(child.bounds()[i])) +
                   " " + std::to_string(cumulative) + "\n";
          }
          cumulative += counts.back();
          out += name + "_bucket" + render_labels(labels, "le", "+Inf") + " " +
                 std::to_string(cumulative) + "\n";
          // _count comes from the SAME bucket snapshot, so the +Inf
          // cumulative always equals _count even mid-storm (the lint
          // tests assert exactly that).
          out += name + "_sum" + render_labels(labels, "", "") + " " +
                 std::to_string(child.sum()) + "\n";
          out += name + "_count" + render_labels(labels, "", "") + " " +
                 std::to_string(cumulative) + "\n";
        }
        break;
    }
  }
  return out;
}

// --- Phase tracing ---------------------------------------------------------

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kParse:
      return "parse";
    case Phase::kCoalesceWait:
      return "coalesce_wait";
    case Phase::kQueueWait:
      return "queue_wait";
    case Phase::kEvaluate:
      return "evaluate";
    case Phase::kSerialize:
      return "serialize";
  }
  return "unknown";
}

namespace {
thread_local PhaseTrace* g_current_trace = nullptr;
}  // namespace

PhaseTrace* current_trace() { return g_current_trace; }

TraceScope::TraceScope(PhaseTrace* trace) : previous_(g_current_trace) {
  g_current_trace = trace;
}

TraceScope::~TraceScope() { g_current_trace = previous_; }

}  // namespace ambit::metrics
