// The epoll serve core behind Server::serve_unix and serve_tcp: one
// loop thread multiplexing every accepted connection through
// non-blocking sockets and the ConnState framing machine
// (serve/conn_state.h), which parses each request line's head once, as
// it frames the line, into the FramedRequest record the loop routes.
// Cheap requests — one-word EVAL/EVALB, STATS, HELP, METRICS, UNLOAD,
// QUIT, SHUTDOWN and every line that does not parse — join one ready
// list, at most one per connection; the end of each loop turn serves
// one request from each listed connection on the loop thread as one
// batch, in which the EVAL/EVALBs for one circuit share one sweep
// (Server::serve_batch). LOAD, VERIFY, SIM, SIMB and larger evaluations
// go to the session ThreadPool, a batch of one each, so the loop never
// blocks on a multi-word sweep or an Espresso run. A SHUTDOWN answered
// in a turn's batch starts the drain in that same turn, and the next
// turn serves what the drain listed.
//
// Division of labor (ownership rules in docs/ARCHITECTURE.md):
//
//   * the LOOP THREAD owns every per-connection object — fds, the
//     ConnState buffers, the write-backpressure outbox, the idle and
//     send deadlines — and serves the cheap requests itself. No lock
//     guards connection state because no other thread touches it.
//   * WORKERS own only what a dispatched request job captured: the
//     request's record (line, head and payload lanes, moved out of the
//     connection's ConnState before dispatch) and the response they
//     build into it, whose lanes move on into the connection's outbox.
//   * the ONE shared structure is the completion queue (LockRank::
//     kEventLoop) workers post served records to, paired with an
//     eventfd that wakes the loop.
//
// Timeouts run in one housekeeping pass over every connection, at most
// once per 50 ms tick: an idle peer is dropped (reason=idle) after
// idle_timeout_secs without input while the server is waiting on it,
// and a peer that stops reading its responses is dropped (reason=send)
// after send_timeout_secs without write progress, each within one pass
// of its deadline. Running out of descriptors is not fatal: accept
// pauses until a connection closes or the next pass finds a free slot.
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
