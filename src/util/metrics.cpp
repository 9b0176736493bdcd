#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

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

}  // namespace

// --- Histogram -------------------------------------------------------------

void Histogram::observe(std::uint64_t value) {
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  const std::array<std::uint64_t, kBuckets> counts = bucket_counts();
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::bucket_counts()
    const {
  std::array<std::uint64_t, kBuckets> counts{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::uint64_t Histogram::quantile(double q) const {
  check(q > 0.0 && q <= 1.0, "Histogram::quantile: q must be in (0, 1]");
  const std::array<std::uint64_t, kBuckets> counts = bucket_counts();
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  if (total == 0) {
    return 0;
  }
  // Rank of the q-quantile sample, 1-based: ceil(q * total).
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  while (seen + counts[i] < rank) {  // rank <= total: stops in bounds
    seen += counts[i++];
  }
  // A bucket's upper bound can lie far above every sample in it (one
  // 38871 us sample sits in the 65536 bucket); no quantile may exceed
  // the largest sample, which also answers for the overflow bucket.
  return i + 1 < kBuckets ? std::min(bound(i), max_observed())
                          : max_observed();
}

// --- Registry --------------------------------------------------------------

namespace {
/// The # TYPE word of each Registry metric alternative, in variant order.
constexpr const char* kTypeNames[] = {"counter", "gauge", "histogram"};
}  // namespace

template <typename M>
M& Registry::child(const std::string& name, const std::string& help,
                   const Labels& labels) {
  check(valid_metric_name(name), "metrics: invalid metric name '" + name + "'");
  for (const auto& label : labels) {
    check(valid_label_name(label.first),
          "metrics: invalid label name '" + label.first + "'");
  }
  const MutexLock lock(mutex_);
  const auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.help = help;
  }
  check(fam.children.empty() ||
            std::holds_alternative<M>(fam.children.front().second),
        "metrics: metric '" + name + "' re-registered with a different type");
  for (auto& [child_labels, metric] : fam.children) {
    if (child_labels == labels) {
      return std::get<M>(metric);
    }
  }
  fam.children.emplace_back(std::piecewise_construct,
                            std::forward_as_tuple(labels),
                            std::forward_as_tuple(std::in_place_type<M>));
  return std::get<M>(fam.children.back().second);
}

template <typename M>
const M* Registry::find(const std::string& name, const Labels& labels) const {
  const MutexLock lock(mutex_);
  const auto it = families_.find(name);
  if (it != families_.end()) {
    for (const auto& [child_labels, metric] : it->second.children) {
      if (child_labels == labels) {
        return std::get_if<M>(&metric);
      }
    }
  }
  return nullptr;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  return child<Counter>(name, help, labels);
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  return child<Gauge>(name, help, labels);
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               const Labels& labels) {
  return child<Histogram>(name, help, labels);
}

const Counter* Registry::find_counter(const std::string& name,
                                      const Labels& labels) const {
  return find<Counter>(name, labels);
}

const Gauge* Registry::find_gauge(const std::string& name,
                                  const Labels& labels) const {
  return find<Gauge>(name, labels);
}

const Histogram* Registry::find_histogram(const std::string& name,
                                          const Labels& labels) const {
  return find<Histogram>(name, labels);
}

std::string Registry::prometheus_text() const {
  const MutexLock lock(mutex_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    if (fam.children.empty()) {
      continue;  // its first child failed to construct
    }
    out += "# HELP " + name + " " + escape_value(fam.help, false) + "\n";
    out += "# TYPE " + name + " " +
           kTypeNames[fam.children.front().second.index()] + "\n";
    for (const auto& [labels, metric] : fam.children) {
      const std::string plain = render_labels(labels, "", "");
      if (const auto* counter = std::get_if<Counter>(&metric)) {
        out += name + plain + " " + std::to_string(counter->value()) + "\n";
        continue;
      }
      if (const auto* gauge = std::get_if<Gauge>(&metric)) {
        out += name + plain + " " + std::to_string(gauge->value()) + "\n";
        continue;
      }
      const auto counts = std::get<Histogram>(metric).bucket_counts();
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        cumulative += counts[i];
        const std::string le = i + 1 < Histogram::kBuckets
                                   ? std::to_string(Histogram::bound(i))
                                   : "+Inf";
        out += name + "_bucket" + render_labels(labels, "le", le) + " " +
               std::to_string(cumulative) + "\n";
      }
      // _count comes from the SAME bucket snapshot, so the +Inf
      // cumulative always equals _count even mid-storm (the lint tests
      // assert exactly that).
      out += name + "_sum" + plain + " " +
             std::to_string(std::get<Histogram>(metric).sum()) + "\n";
      out += name + "_count" + plain + " " + std::to_string(cumulative) + "\n";
    }
  }
  return out;
}

// --- Phase tracing ---------------------------------------------------------

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kParse:
      return "parse";
    case Phase::kQueueWait:
      return "queue_wait";
    case Phase::kEvaluate:
      return "evaluate";
    case Phase::kSerialize:
      return "serialize";
  }
  return "unknown";
}

}  // namespace ambit::metrics
