// The epoll serve core behind Server::serve_unix and serve_tcp: one
// loop thread multiplexing every accepted connection through
// non-blocking sockets and the ConnState framing machine
// (serve/conn_state.h). Cheap requests — one-word EVAL/EVALB while the
// coalescer is off, STATS, HELP, METRICS, UNLOAD, QUIT, SHUTDOWN and
// unparseable lines — are served to completion on the loop thread, at
// most one per connection per loop turn. LOAD, VERIFY, SIM, SIMB and
// larger evaluations go to the session ThreadPool, so the loop never
// blocks on a multi-word sweep or an Espresso run.
//
// Division of labor (ownership rules in docs/ARCHITECTURE.md):
//
//   * the LOOP THREAD owns every per-connection object — fds, the
//     ConnState buffer, the write-backpressure outbox, the timer-wheel
//     deadlines — and serves the cheap requests in place, reading
//     their payload where it sits in the buffer. No lock guards
//     connection state because no other thread touches it.
//   * WORKERS own only what a dispatched request job captured: the
//     request line, its payload bytes (moved out of the connection
//     buffer before dispatch), and the response bytes they build.
//   * the ONE shared structure is the completion queue (LockRank::
//     kEventLoop) workers post finished results to, paired with an
//     eventfd that wakes the loop.
//
// Timeouts run on a hashed timer wheel: an idle peer is dropped
// (reason=idle) after idle_timeout_secs without input while the server
// is waiting on it, and a peer that stops reading its responses is
// dropped (reason=send) after send_timeout_secs without write
// progress. Running out of descriptors is not fatal: accept pauses
// until a connection closes or the next housekeeping tick.
#pragma once

#ifdef __linux__

#include <cstdint>
#include <functional>
#include <string>

namespace ambit::serve {

class Server;

/// Runs `server`'s accept + connection machinery as an epoll event
/// loop until a SHUTDOWN request — or a fatal socket error — drains
/// it (Server::serve_unix and serve_tcp call this). Takes ownership of
/// `listener`; `what` prefixes error messages; `cleanup` runs after
/// the listener closes (serve_unix unlinks its socket file there).
/// Returns the number of requests served; throws ambit::Error on fatal
/// socket-level failures (after draining in-flight connections).
std::uint64_t serve_event_loop(Server& server, int listener,
                               const std::string& what,
                               const std::function<void()>& cleanup);

}  // namespace ambit::serve

#endif  // __linux__
