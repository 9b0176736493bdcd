// The serve front door: one request line in, one response line out.
//
// Server binds a Session to the wire protocol (serve/protocol.h,
// normative reference: docs/PROTOCOL.md) and drives it over any of
// three transports:
//
//   * serve_stream — any istream/ostream pair: ambit_cli --serve and
//     ambit_serve --stdio run it over stdin/stdout, tests over
//     stringstreams;
//   * serve_unix — a Unix-domain socket;
//   * serve_tcp  — a TCP socket, so clients on other hosts (or ones
//     that only speak TCP) reach the same service.
//
// Every transport frames its byte stream with the same ConnState
// machine (serve/conn_state.h) and answers through the same
// serve_line. The two socket transports run one epoll event loop
// (serve/event_loop.h, Linux only): one thread multiplexes up to
// ServerOptions::max_connections non-blocking connections and serves
// the cheap requests (one-word EVAL/EVALB, the bookkeeping verbs)
// itself; LOAD, VERIFY, SIM, SIMB and multi-word evaluations run on
// the Session's ThreadPool. All of them share the one thread-safe
// Session, and idle/send timeouts live on a timer wheel.
// QUIT ends a connection; SHUTDOWN stops accepting, drains the
// in-flight connections (their input is cut, responses already owed
// are still written), then closes the listener — and, for serve_unix,
// unlinks the socket file.
//
// Per-connection state (the framing buffer, the outbox, the QUIT flag)
// is owned by the loop, never by the shared Server object — the only
// cross-connection state is the SHUTDOWN latch, the Session, and the
// coalescing queue below.
//
// Bulk evaluation uses the EVALB binary frame (see protocol.h): the
// payload words load straight into a logic::PatternBatch via its
// load_words/store_words lane helpers, so a million-pattern request
// pays two memcpys instead of a million hex parses. All transports
// speak it. SIMB rides the exact same input framing and answers from
// the switch-level simulator instead — output lanes plus the three
// per-pattern phase-delay arrays as raw doubles.
//
// Cross-connection coalescing (serve/coalesce.h): when
// ServerOptions::coalesce.window_us > 0, small EVAL/EVALB requests
// against the same circuit arriving concurrently from different
// connections are fused into one bit-packed sharded sweep and the
// per-request responses scattered back — bit-identical to uncoalesced
// execution, at most window_us of added latency per request.
//
// Request failures — unknown verbs, malformed covers, missing circuits
// — never kill the server: every ambit::Error becomes one "ERR ..."
// response line and the loop continues, which is what makes malformed
// LOAD input a routine event instead of a crash. The one exception is a
// malformed EVALB HEADER, which leaves the byte stream unframed; the
// server answers ERR and closes that connection (a well-formed header
// whose request fails is fine — the length prefix lets the server skip
// the payload and stay in sync).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "serve/coalesce.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "util/log.h"
#include "util/metrics.h"

namespace ambit::serve {

/// Backlog passed to listen(): sized for a burst of concurrent clients,
/// not the single interactive user the prototype assumed.
inline constexpr int kListenBacklog = 128;

/// Default cap on simultaneously served connections.
inline constexpr int kDefaultMaxConnections = 64;

/// Upper bound on one EVALB/SIMB payload AND response (words): 128 MiB
/// of lane data either way. A header announcing more is rejected before
/// any allocation (and the connection closed); a request whose OUTPUT
/// lanes would exceed it is rejected before evaluation. A hostile
/// request cannot OOM the server from either direction.
inline constexpr std::uint64_t kMaxEvalbWords = std::uint64_t{1} << 24;

/// Upper bound on one SIMB request's PATTERN count. Switch-level
/// simulation costs three full network settles per pattern — orders of
/// magnitude more than a word-packed EVALB — so the byte-level framing
/// limit alone would admit requests that pin the pool for minutes. The
/// cap keeps one hostile (or merely ambitious) SIMB bounded; larger
/// sweeps just split into multiple requests.
inline constexpr std::uint64_t kMaxSimbPatterns = std::uint64_t{1} << 20;

/// Default send timeout per connection (seconds): a peer that stops
/// reading its responses for this long is dropped (which also bounds
/// the SHUTDOWN drain, which waits for owed responses to flush).
inline constexpr long kSendTimeoutSecs = 30;

/// Default idle receive timeout per connection (seconds): a peer that
/// sends nothing for this long is dropped. Without it,
/// max_connections silent clients would pin every slot forever and
/// even SHUTDOWN could not get a connection to be heard on.
inline constexpr long kIdleTimeoutSecs = 300;

/// Upper bound on one request LINE (bytes). A peer streaming data with
/// no newline would otherwise grow the receive buffer without limit —
/// the text-side counterpart of kMaxEvalbWords.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Knobs for the socket transports (serve_unix / serve_tcp).
struct ServerOptions {
  /// Connections served at once; further accepts wait for a free slot.
  int max_connections = kDefaultMaxConnections;
  /// A peer the server has waited this many seconds on for its next
  /// request is dropped (tests shrink it; 0 = never).
  long idle_timeout_secs = kIdleTimeoutSecs;
  /// A peer whose owed response made no write progress for this many
  /// seconds is dropped (0 = never).
  long send_timeout_secs = kSendTimeoutSecs;
  /// Cross-connection EVAL/EVALB coalescing (serve/coalesce.h);
  /// window_us == 0 (default) disables it.
  CoalesceOptions coalesce;
  /// Metrics sink (util/metrics.h): null = the process-global registry.
  /// Tests and benches pass their own Registry for isolated, exactly
  /// assertable counts.
  metrics::Registry* registry = nullptr;
  /// Runtime master switch for the per-request instrumentation (the
  /// compile-time switch is -DAMBIT_METRICS). bench_serve_throughput
  /// flips it off to measure the instrumentation overhead.
  bool enable_metrics = true;
  /// Requests whose total wall time reaches this many microseconds log
  /// their phase trace (parse / coalesce_wait / queue_wait / evaluate /
  /// serialize) at warn, rate-limited. 0 (default) disables the dump.
  std::uint64_t slow_request_us = 0;
};

/// Splits "host:port" into its parts; throws ambit::Error on a missing
/// or non-numeric port, a port beyond 65535, or an empty host — always
/// quoting the offending spec in the error text ("0.0.0.0:7878" and
/// "localhost:0" are fine — port 0 asks the kernel for an ephemeral
/// port, see Server::serve_tcp).
std::pair<std::string, int> parse_host_port(const std::string& spec);

#ifndef _WIN32
/// Binds and listens an IPv4 TCP socket on `host`:`port` (SO_REUSEADDR
/// set, kListenBacklog deep; port 0 binds an ephemeral port) and
/// returns the listening fd. When `bound_port_out` is non-null it
/// receives the actually bound port. `what` prefixes error messages.
/// Shared by Server::serve_tcp and the --metrics HTTP side listener
/// (serve/metrics_http.h). Throws ambit::Error on failure.
int bind_tcp_listener(const std::string& host, int port,
                      const std::string& what, int* bound_port_out);
#endif

/// Serves the line protocol for one Session. A single Server instance
/// drives every connection of a socket transport; it holds no
/// per-connection state, so one instance can serve any number of
/// consecutive serve_* calls (but only one listener at a time — the
/// SHUTDOWN latch is shared).
class Server {
 public:
  explicit Server(Session& session, ServerOptions options = {});
  ~Server();

  /// Handles one TEXT request line; returns the response line (no
  /// trailing newline). Never throws for request-level failures — they
  /// come back as "ERR ..." responses. EVALB is answered with ERR here:
  /// its binary payload only exists on a transport (see serve_stream /
  /// serve_unix / serve_tcp).
  std::string handle_line(const std::string& line);

  /// Serves one connection read from `in` until QUIT, SHUTDOWN or EOF,
  /// writing each response to `out` (flushed per response). EVALB/SIMB
  /// payloads are read from / written to the same streams. Each read
  /// stops at the end of the current frame — a line up to its '\n', a
  /// payload up to its last byte — so a peer that waits for each
  /// response before sending the next request (a pipe, a terminal)
  /// never stalls the server. Returns the number of requests served.
  std::uint64_t serve_stream(std::istream& in, std::ostream& out);

  /// Binds and listens on `socket_path` and serves connections on the
  /// epoll event loop until a SHUTDOWN request, then drains the
  /// in-flight connections and unlinks the socket. A STALE socket file
  /// (no listener behind it) is replaced; a LIVE one — another server
  /// still accepting — is a hard ambit::Error, never silently stolen.
  /// Returns the number of requests served across all connections.
  /// Throws ambit::Error on socket-level failures, and on platforms
  /// without epoll.
  std::uint64_t serve_unix(const std::string& socket_path);

  /// Binds and listens on TCP `host:port` and serves connections
  /// exactly like serve_unix (same event loop, framing, timeouts and
  /// SHUTDOWN drain). `host` is an IPv4 dotted-quad or
  /// "localhost"; port 0 binds an ephemeral port. When `bound_port` is
  /// non-null it receives the actually bound port (release-stored)
  /// BEFORE the first accept, so a caller that runs serve_tcp on its
  /// own thread can bind port 0, spin until the atomic goes non-zero,
  /// and connect — no extra synchronization needed. Returns the number
  /// of requests served; throws ambit::Error on socket-level failures.
  std::uint64_t serve_tcp(const std::string& host, int port,
                          std::atomic<int>* bound_port = nullptr);

  /// Feeds ONE connection's byte stream through the ConnState machine
  /// every transport runs (serve/conn_state.h) — no sockets involved.
  /// `next_chunk` returns the peer's next burst of bytes (empty string
  /// = clean EOF); every chunk boundary is a potential read() boundary,
  /// so a caller that returns one byte at a time exercises every split
  /// point of the framing. Responses are appended to `out`. Returns the
  /// number of requests served. This is the harness the
  /// arbitrary-chunking fuzz mode and the golden transcripts drive.
  std::uint64_t serve_chunks(const std::function<std::string()>& next_chunk,
                             std::string& out);

  /// True once a SHUTDOWN request was handled.
  bool shutdown_requested() const { return shutdown_.load(); }

  /// The coalescing queue (for tests and benches; counters only).
  const CoalescingQueue& coalescer() const { return coalescer_; }

  /// The Prometheus text-format exposition page: refreshes the sampled
  /// gauges (pool depth/utilization, active connections), then renders
  /// the server's registry. Served by the METRICS verb and by the
  /// --metrics HTTP side listener (serve/metrics_http.h). The page
  /// reflects requests COMPLETED before the one serving it — per-verb
  /// counters are bumped after the response is built.
  std::string metrics_page();

 private:
  /// Outcome of one request on a connection.
  struct Outcome {
    std::string response;  ///< the response line (no trailing newline)
    bool quit = false;     ///< close this connection (QUIT, SHUTDOWN,
                           ///< or an unframed/oversized EVALB header)
  };

  /// Dispatches one parsed text request (everything but EVALB).
  Outcome dispatch(const Request& request);

  /// EVAL/EVALB evaluation entry: through the coalescer when enabled,
  /// directly through the Session otherwise. Either way the result and
  /// the counters are bit-identical.
  logic::PatternBatch coalesced_eval(
      const std::shared_ptr<const LoadedCircuit>& circuit,
      const logic::PatternBatch& inputs);

  /// Serves one complete request on any transport: `line` plus, for
  /// EVALB/SIMB, the `payload` bytes ConnState reassembled behind it.
  /// Appends the response bytes — the line and any binary frame — to
  /// `out`. Returns false, appending nothing, when the payload is
  /// shorter than its header declares (EOF truncated the frame);
  /// `outcome` is valid either way. `conn_id` identifies the connection
  /// in slow-request logs (0 for the in-process transports).
  /// `queued_at_us` is the metrics::monotonic_us() stamp at which the
  /// event loop queued the request for a pool worker (0 = served where
  /// it was framed): the gap to now is the request's queue_wait phase
  /// and counts toward its total. This wrapper owns the per-request
  /// instrumentation — timing, phase trace, per-verb counters, the
  /// slow-request dump; serve_line_inner does the protocol work.
  bool serve_line(const std::string& line, std::string_view payload,
                  std::string& out, Outcome& outcome,
                  std::uint64_t conn_id = 0, std::uint64_t queued_at_us = 0);

  /// The uninstrumented request path shared by every transport.
  /// `verb_index_out`, when non-null, receives the parsed verb's enum
  /// index (-1 when the line failed to parse).
  bool serve_line_inner(const std::string& line, std::string_view payload,
                        std::string& out, Outcome& outcome,
                        int* verb_index_out);

  /// True when instrumentation should record: compiled in AND enabled
  /// by ServerOptions::enable_metrics.
  bool metrics_on() const {
    return metrics::metrics_enabled() && options_.enable_metrics;
  }

  /// The coalescer's metric hooks (empty when metrics are off).
  CoalesceInstruments coalesce_instruments() const;

  /// The in-process connection loop behind serve_stream and
  /// serve_chunks: drives one ConnState, calling `feed(state)` whenever
  /// it needs input (feed appends bytes or notes EOF) and `emit(bytes)`
  /// with each response (false when the peer is gone). Defined and
  /// instantiated in server.cpp only.
  template <typename Feed, typename Emit>
  std::uint64_t serve_framed(Feed&& feed, Emit&& emit);

  /// Connection-lifecycle accounting for the event loop, defined in
  /// server.cpp where ServeMetrics is visible.
  void note_connection_accepted();
  void note_connection_dropped(const char* reason, std::uint64_t conn_id,
                               std::uint64_t served);
  /// Event-loop instrumentation (no-ops when metrics are off): one
  /// wakeup = one epoll_wait return with `ready_events` descriptors.
  void note_loop_wakeup(std::size_t ready_events);
  /// Tracks the aggregate write-backpressure outbox size.
  void note_pending_write_delta(std::int64_t delta);

  /// Handles are registered once at construction; recording is relaxed
  /// atomics only. Defined in server.cpp (one member per metric).
  struct ServeMetrics;

  /// The epoll event loop (serve/event_loop.cpp) drives serve_line and
  /// the connection accounting directly — it IS the socket transport.
  friend class EventLoop;

  Session& session_;
  ServerOptions options_;
  // metrics_ precedes coalescer_: the coalescer captures pointers into
  // it at construction.
  std::unique_ptr<ServeMetrics> metrics_;
  CoalescingQueue coalescer_;
  std::atomic<bool> shutdown_{false};
  // Connection lifecycle counters for STATS (`connections=<active>/
  // <accepted>`). Deliberately NOT behind the metrics layer: STATS
  // stays exact under -DAMBIT_METRICS=OFF.
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  // One slow-request warn per interval, surplus folded into
  // suppressed=<n> — a storm of slow requests must not flood the log.
  logs::RateLimiter slow_log_limiter_{1'000'000};
};

}  // namespace ambit::serve
