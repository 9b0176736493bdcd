// The serve front door: one request line in, one response line out.
//
// Server binds a Session to the wire protocol (serve/protocol.h,
// normative reference: docs/PROTOCOL.md) and drives it over any of
// three transports:
//
//   * serve_stream — any istream/ostream pair: ambit_serve --stdio
//     runs it over stdin/stdout, tests over stringstreams;
//   * serve_unix — a Unix-domain socket;
//   * serve_tcp  — a TCP socket, so clients on other hosts (or ones
//     that only speak TCP) reach the same service.
//
// Every transport frames its byte stream with the same ConnState
// machine (serve/conn_state.h), which parses each line's head once into
// a FramedRequest record, and every request it frames is served by one
// call, serve_batch, on whichever thread makes it. The two socket
// transports run one epoll event loop (serve/event_loop.h, Linux only):
// one thread multiplexes up to ServerOptions::max_connections
// non-blocking connections and serves the cheap requests (one-word
// EVAL/EVALB, the bookkeeping verbs, lines that do not parse) itself,
// one batch per loop turn; LOAD, VERIFY, SIM, SIMB and multi-word
// evaluations run on the Session's ThreadPool, a batch of one each.
// serve_stream, serve_chunks and handle_line serve a batch of one per
// request. All of them share the one thread-safe Session, and the
// loop's housekeeping pass enforces the idle/send timeouts.
// QUIT ends a connection; SHUTDOWN stops accepting, drains the
// in-flight connections (their input is cut, responses already owed
// are still written), then closes the listener — and, for serve_unix,
// unlinks the socket file.
//
// Per-connection state (the framing buffer, the outbox, the QUIT flag)
// is owned by the loop, never by the shared Server object — the only
// cross-connection state is the SHUTDOWN latch, the metrics registry
// (which STATS renders) and the Session.
//
// Bulk evaluation uses the EVALB binary frame (see protocol.h). The
// payload is reassembled in lane words (ConnState), which the input
// logic::PatternBatch takes over (from_words); the output batch's lanes
// become the response's binary part (release_words), which the
// transport writes after the header line. On the socket path a
// million-pattern request makes no user-space copy of its lanes either
// way: read() writes the input, the evaluator writes the output, and
// sendmsg() takes it from there. All transports speak it. SIMB rides
// the exact same input framing and answers from the switch-level
// simulator instead — output lanes plus the three per-pattern
// phase-delay arrays as raw doubles, assembled once.
//
// Per-turn fusion: within a batch, the EVAL/EVALB requests for one
// circuit share a sweep. The event loop's batch takes one request from
// each connection on its ready list, so its one-word ones share a lane
// word — packed bit-contiguously into one sweep, then each answered
// from its own slice. Every batch kernel is bit-local
// (core/evaluator.h), so the answers are bit-identical to separate
// sweeps; nothing waits for company, so no request is delayed.
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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "logic/pattern_batch.h"
#include "serve/conn_state.h"
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

/// The largest EVAL/EVALB the event loop serves itself, and the most
/// patterns one fused sweep packs (serve_batch): one 64-bit lane word,
/// far below the 16 words at which Evaluator::evaluate_batch shards.
inline constexpr std::uint64_t kLoopMaxPatterns = 64;

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
  /// Metrics sink (util/metrics.h): null = a registry the Server owns.
  /// Tests and benches pass their own to read it directly; Servers that
  /// share one share every count, STATS included.
  metrics::Registry* registry = nullptr;
  /// Switch for the per-request instrumentation: per-verb counters and
  /// latency, phase histograms, connection drops, loop and fusion
  /// counters, the slow-request dump. The STATS counters (loads, evals,
  /// patterns, sims, sim_patterns, verifies, connections) record
  /// either way. bench_serve_throughput flips it off to measure the
  /// instrumentation overhead.
  bool enable_metrics = true;
  /// Requests whose total wall time reaches this many microseconds log
  /// their phase trace (parse / queue_wait / evaluate / serialize) at
  /// warn, rate-limited. 0 (default) disables the dump.
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

  /// Serves one TEXT request line as a batch of one, recorded like any
  /// other request; returns the response line (no trailing newline).
  /// Never throws for request-level failures — they come back as
  /// "ERR ..." responses. EVALB is answered with ERR here: its binary
  /// payload only exists on a transport (see serve_stream / serve_unix /
  /// serve_tcp).
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

  /// Runs LOAD: Session::load, counted in STATS `loads=`. ambit_serve's
  /// --preload calls it too. Throws like Session::load.
  std::shared_ptr<const LoadedCircuit> load(const std::string& name,
                                            const std::string& path);

  /// The Prometheus text-format exposition page: refreshes the sampled
  /// pool gauges, then renders the server's registry. Served by the
  /// METRICS verb and by the --metrics HTTP side listener
  /// (serve/metrics_http.h). The page reflects requests served by
  /// earlier batches than the one serving it — serve_batch records its
  /// requests once all of them are answered.
  std::string metrics_page();

 private:
  /// An EVAL/EVALB/SIM/SIMB between its answer step and its encode:
  /// the verb, the circuit its lookup returned and the patterns decoded
  /// against that circuit.
  struct EvalJob {
    Verb verb = Verb::kEval;
    std::shared_ptr<const LoadedCircuit> circuit;
    logic::PatternBatch inputs{0, 0};

    /// SIM/SIMB: answered by the simulator, never packed into a sweep.
    bool simulates() const {
      return verb == Verb::kSim || verb == Verb::kSimB;
    }
  };

  /// Decodes an EVAL/SIM's hex tokens, or takes over the payload of an
  /// EVALB/SIMB as its input lanes after checking its counts, against
  /// the circuit named in r's head. Throws ambit::Error on a bad
  /// request.
  EvalJob decode(FramedRequest& r);

  /// Session::eval and Session::sim, counted in STATS once they return;
  /// one sweep answers `requests` EVAL/EVALB requests (serve_batch packs
  /// several into one).
  logic::PatternBatch eval(const std::shared_ptr<const LoadedCircuit>& circuit,
                           const logic::PatternBatch& inputs,
                           std::uint64_t requests = 1);
  simulate::BatchSimResult sim(
      const std::shared_ptr<const LoadedCircuit>& circuit,
      const logic::PatternBatch& inputs);

  /// Encodes `outputs` (the job's own patterns, in order) as the EVAL
  /// or EVALB response into `out`; an EVALB's lanes move into
  /// out.lanes.
  static void encode_eval(const EvalJob& job, logic::PatternBatch outputs,
                          Response& out);
  /// Encodes a simulated job as the SIM or SIMB response into `out`: a
  /// SIMB's output lanes and delay arrays move into out.lanes.
  static void encode_sim(const EvalJob& job,
                         const simulate::BatchSimResult& result,
                         Response& out);

  /// Serves `requests` on the calling thread — the only code that serves
  /// a request. Each is answered from the head its framing parsed, or
  /// decoded into a held job (answer). Each held job is then evaluated
  /// and encoded: the EVAL/EVALBs for one circuit are packed, first fit
  /// in arrival order, into sweeps of at most kLoopMaxPatterns patterns,
  /// one Session::eval each (a sweep of one evaluates its own batch, no
  /// copy), and each is answered from its slice; a SIM/SIMB runs the
  /// simulator on its own. With enable_metrics the clock is read once
  /// per step boundary, and each step — an answer, a sweep or
  /// simulation, an encode — is charged to the total of every request
  /// it serves and to at most one phase. Every answered request is
  /// recorded once the whole batch is answered.
  void serve_batch(std::span<FramedRequest> requests);

  /// serve_batch's answer step, one switch over every verb: answers r
  /// into r.out, setting r.quit or r.truncated, unless it is an
  /// EVAL/EVALB/SIM/SIMB that decodes, which lands in `held` (circuit
  /// set) for serve_batch to evaluate. Any exception becomes the
  /// request's ERR line. Returns the verb's enum index, -1 when the line
  /// did not parse.
  int answer(FramedRequest& r, EvalJob& held);

  /// serve_batch's instrumentation tail for one answered request:
  /// per-verb counters and latency, the phase histograms, the
  /// slow-request dump.
  void record(const metrics::PhaseTrace& trace, int verb_index,
              const FramedRequest& r);

  /// The in-process connection loop behind serve_stream and
  /// serve_chunks: drives one ConnState, calling `feed(state)` whenever
  /// it needs input (feed appends bytes or notes EOF) and
  /// `emit(response)` with each Response (false when the peer is gone).
  /// Defined and instantiated in server.cpp only.
  template <typename Feed, typename Emit>
  std::uint64_t serve_framed(Feed&& feed, Emit&& emit);

  /// Connection-lifecycle accounting for the event loop, defined in
  /// server.cpp where ServeMetrics is visible. `reason` is null for a
  /// close the peer asked for, else why the server dropped it.
  void note_connection_accepted();
  void note_connection_closed(const char* reason, std::uint64_t conn_id,
                              std::uint64_t served);
  /// Event-loop instrumentation (no-ops when metrics are off): one
  /// wakeup = one epoll_wait return with `ready_events` descriptors.
  void note_loop_wakeup(std::size_t ready_events);
  /// Tracks the aggregate write-backpressure outbox size (text and lanes).
  void note_pending_write_delta(std::int64_t delta);

  /// Handles are registered once at construction; recording is relaxed
  /// atomics only. Defined in server.cpp (one member per metric), with
  /// the registry the Server owns when ServerOptions gave none.
  struct ServeMetrics;

  /// The epoll event loop (serve/event_loop.cpp) drives serve_batch and
  /// the connection accounting directly — it IS the socket transport.
  friend class EventLoop;

  Session& session_;
  ServerOptions options_;
  std::unique_ptr<ServeMetrics> metrics_;
  std::atomic<bool> shutdown_{false};
  // One slow-request and one conn.drop warn per interval each, surplus
  // folded into suppressed=<n> — a storm of slow requests or of
  // malformed peers must not flood the log from the loop thread.
  logs::RateLimiter slow_log_limiter_{1'000'000};
  logs::RateLimiter drop_log_limiter_{1'000'000};
};

}  // namespace ambit::serve
