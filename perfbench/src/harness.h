// Shared plumbing of the perfbench program: clocks and order statistics,
// a blocking protocol connection, span recording, and the metric list
// perfbench prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics. Sorts `values` in place; 0 when empty.
double quantile(std::vector<double>& values, double q);

/// quantile(values, 0.5) on a copy.
double median(std::vector<double> values);

/// One blocking TCP connection speaking the line protocol.
class Conn {
 public:
  /// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit Conn(int port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_all(const char* data, std::size_t n);
  void send_all(const std::string& data) { send_all(data.data(), data.size()); }

  /// The next response line, without its newline. Throws on EOF.
  std::string read_line();

  /// Exactly `n` bytes of payload. Throws on EOF.
  void read_exact(char* dst, std::size_t n);

  /// Sends `request` and returns the response line.
  std::string transact(const std::string& request) {
    send_all(request);
    return read_line();
  }

 private:
  bool fill();

  int fd_ = -1;
  std::string buf_;
  std::size_t head_ = 0;
};

/// One recorded span: a timed call at a layer boundary. `parent` is the
/// index of the span of the layer above it in the same trace (-1 at the
/// root); spans of one request share `request`.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t parent = -1;
  std::uint64_t request = 0;

  double us() const { return us_between(start, end); }
};

/// An append-only span log. Not thread-safe: each thread records into
/// its own Tracer and the logs are merged with absorb().
class Tracer {
 public:
  /// Opens a span now and returns its index.
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::uint64_t request) {
    spans_.push_back({name, Clock::now(), {}, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  /// Records an already timed span.
  std::int64_t add(const char* name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::uint64_t request) {
    spans_.push_back({name, start, end, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Appends another log, re-basing its parent indices.
  void absorb(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Durations (µs) of every span called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Self time (µs) of every span called `name`: its duration minus the
  /// durations of the spans whose parent it is.
  std::vector<double> self_times(const std::string& name) const;

  /// Writes one JSON object per line: id, name, start_us and end_us
  /// relative to `origin`, parent, request.
  void write_jsonl(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
};

/// A named measurement with its unit, printed in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

}  // namespace perfbench
