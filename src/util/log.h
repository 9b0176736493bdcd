// Leveled structured logging for the long-running tools.
//
// ambit_serve runs for days; when a connection is dropped or a request
// crawls, the operator needs machine-parseable evidence, not printf
// archaeology. Every log line is one record of key=value pairs:
//
//   ts=2026-08-08T12:34:56.789Z mono_us=8211437 level=info
//       event=conn.accept conn=17 transport=tcp      (one line on the wire)
//
// Contract:
//   * `ts` is wall-clock UTC (for correlating with other systems),
//     `mono_us` is the monotonic clock (for computing durations —
//     wall clocks step, monotonic ones do not).
//   * `level` is one of debug|info|warn|error; records below the
//     configured threshold are dropped before any formatting work.
//   * Values containing spaces, quotes or '=' are double-quoted with
//     backslash escapes; everything else is emitted bare. Keys are
//     caller-controlled literals and are emitted as-is.
//   * One line per record, written with a single buffered fwrite under
//     a mutex — concurrent threads never interleave bytes.
//   * The sink is stderr by default; set_file() redirects to a path
//     (append mode). The tools expose both knobs as --log-level and
//     --log-file.
//
// The hot-path discipline differs from metrics.h: logging is NOT
// compiled out (operators need it precisely in production), it is
// rate-limitable instead. RateLimiter caps a noisy call site (e.g.
// malformed-frame warnings under a fuzzing client) to one record per
// interval and folds the overflow into a suppressed=<n> key on the
// next emitted record, so bursts cost almost nothing and still leave
// an accurate count in the log.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace ambit::logs {

enum class Level : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  ///< threshold-only: silences everything
};

/// Current threshold; records below it are dropped. Default: kInfo.
Level threshold();
void set_threshold(Level level);

/// Parses "debug" | "info" | "warn" | "error" | "off" (the --log-level
/// argument); nullopt on anything else.
std::optional<Level> parse_level(std::string_view text);

/// Spelled-out name for a level ("info", ...).
const char* level_name(Level level);

/// Redirects the sink to `path` (append mode); empty restores stderr.
/// Returns false (sink unchanged) when the file cannot be opened.
bool set_file(const std::string& path);

/// One key=value field. Values are strings; use the fields() helpers
/// below for numbers.
using Field = std::pair<std::string_view, std::string>;

/// Emits one record at `level` with the given event name and fields.
/// Thread-safe; a no-op (no formatting) below the threshold.
void write(Level level, std::string_view event,
           std::initializer_list<Field> fields);

inline void debug(std::string_view event, std::initializer_list<Field> f = {}) {
  write(Level::kDebug, event, f);
}
inline void info(std::string_view event, std::initializer_list<Field> f = {}) {
  write(Level::kInfo, event, f);
}
inline void warn(std::string_view event, std::initializer_list<Field> f = {}) {
  write(Level::kWarn, event, f);
}
inline void error(std::string_view event, std::initializer_list<Field> f = {}) {
  write(Level::kError, event, f);
}

/// Token-bucket-of-one for noisy call sites: allow() is true at most
/// once per `min_interval_us`; denied calls are counted and the next
/// allowed record should carry take_suppressed() as suppressed=<n>.
/// Lock-free — safe to share across threads.
class RateLimiter {
 public:
  explicit RateLimiter(std::uint64_t min_interval_us)
      : min_interval_us_(min_interval_us) {}

  /// True when enough time has passed since the last allowed call.
  bool allow();

  /// Returns the number of suppressed calls since the last drain and
  /// resets it.
  std::uint64_t take_suppressed() {
    return suppressed_.exchange(0, std::memory_order_relaxed);
  }

 private:
  const std::uint64_t min_interval_us_;
  std::atomic<std::uint64_t> last_allowed_us_{0};
  std::atomic<std::uint64_t> suppressed_{0};
};

/// warn() through a RateLimiter: emits at most one record per the
/// limiter's interval, appending suppressed=<n> when calls were
/// dropped since the last emitted record.
void warn_rate_limited(RateLimiter& limiter, std::string_view event,
                       std::initializer_list<Field> fields);

}  // namespace ambit::logs
