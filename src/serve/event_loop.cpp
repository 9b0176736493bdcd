#include "serve/event_loop.h"

#ifdef __linux__

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/conn_state.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/error.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace ambit::serve {

namespace {

/// Loop clock (ms, steady). Only differences matter, never wall time.
std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// epoll_event.data.u64 tags for the two non-connection descriptors.
/// Connection tags are accept-order ids counting up from 1, so the top
/// of the u64 space can never collide with one.
constexpr std::uint64_t kListenerTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;

/// Reads per readable connection per wakeup, and bytes per read.
/// Level-triggered epoll re-reports the rest, so one huge sender cannot
/// starve the other connections.
constexpr int kReadsPerWakeup = 4;
constexpr std::size_t kReadBytes = 65536;

/// epoll_wait timeout, and the period of the housekeeping pass that
/// expires connection deadlines and re-admits a listener starved of
/// descriptors, so both happen even when no descriptor is ready.
constexpr int kHousekeepingMs = 50;

/// The most pattern bytes a request the loop serves itself may carry
/// (the EVAL line, the EVALB payload) besides its kLoopMaxPatterns
/// patterns: a 64-pattern request against a circuit with thousands of
/// inputs is neither one cheap word nor small to copy. On the
/// 223-product benchmark circuit the one-word sweep costs about 10 us
/// at any count up to 64; a text EVAL adds about 0.7 us of hex codec
/// per pattern, an EVALB nothing.
constexpr std::size_t kLoopMaxPatternBytes = std::size_t{16} << 10;

/// Where a framed request is served.
enum class Where {
  kPool,  ///< on a pool worker, a batch of one
  kLoop,  ///< on the loop thread, in the turn's batch
};

/// Where the framed request `r` is served, read from the head its
/// framing parsed. The switch names every verb and has no default, so a
/// new verb does not compile (-Wswitch) until it is placed here. Cheap
/// requests run on the loop: one-word EVAL/EVALB, the bookkeeping verbs
/// and every line that does not parse, whose answer is its ERR.
Where where_served(const FramedRequest& r) {
  if (!r.parsed()) {
    return Where::kLoop;
  }
  switch (r.head.verb) {
    case Verb::kEval: {
      if (r.line.size() > kLoopMaxPatternBytes) {
        return Where::kPool;
      }
      // One token past the limit settles it.
      std::string_view rest =
          std::string_view(r.line).substr(r.head.patterns_at);
      std::uint64_t patterns = 0;
      while (patterns <= kLoopMaxPatterns && !next_token(rest).empty()) {
        ++patterns;
      }
      return patterns <= kLoopMaxPatterns ? Where::kLoop : Where::kPool;
    }
    case Verb::kEvalB:
      return r.head.num_patterns <= kLoopMaxPatterns &&
                     r.head.num_words <=
                         kLoopMaxPatternBytes / sizeof(std::uint64_t)
                 ? Where::kLoop
                 : Where::kPool;
    case Verb::kStats:
    case Verb::kMetrics:
    case Verb::kUnload:
    case Verb::kHelp:
    case Verb::kQuit:
    case Verb::kShutdown:
      return Where::kLoop;
    case Verb::kLoad:
    case Verb::kSim:
    case Verb::kSimB:
    case Verb::kVerify:
      return Where::kPool;
  }
  return Where::kPool;  // unreachable: the switch names every verb
}

}  // namespace

/// The epoll loop: see event_loop.h for the ownership rules. A friend
/// of Server — on this path the loop IS the transport, driving
/// serve_batch and the drop accounting directly.
class EventLoop {
 public:
  EventLoop(Server& server, int listener, std::string what,
            const std::function<void()>& cleanup)
      : server_(server),
        listener_(listener),
        what_(std::move(what)),
        cleanup_(cleanup) {}

  std::uint64_t run();

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    ConnState state;
    /// Write-backpressure queue: the response the socket has not taken
    /// yet, text then lanes. It holds one response at most, because the
    /// next request is not taken until it drains. out_off counts the
    /// bytes flushed; both reset when it drains.
    Response outbox;
    std::size_t out_off = 0;
    bool busy = false;        ///< its request is a job on the pool
    /// On ready_: its framed request waits for the turn's batch. Not
    /// read from while listed, which bounds the buffer of a peer that
    /// pipelines.
    bool ready = false;
    bool want_close = false;  ///< close once the outbox drains
    const char* drop_reason = nullptr;
    std::uint64_t served = 0;
    /// Deadlines (loop clock ms); 0 = disarmed. Activity moves them;
    /// housekeep() closes the connection once one has passed.
    std::uint64_t idle_deadline_ms = 0;
    std::uint64_t send_deadline_ms = 0;
    std::uint32_t interest = 0;  ///< epoll interest currently registered
  };

  std::size_t active() const { return conns_.size(); }

  /// The loop-clock deadline `secs` seconds from now; 0 (disarmed) for
  /// a timeout of 0, which never fires.
  static std::uint64_t deadline_after(long secs) {
    return secs > 0 ? now_ms() + static_cast<std::uint64_t>(secs) * 1000 : 0;
  }

  /// Serves `requests` as one Server::serve_batch — a pool job's batch
  /// of one, or the turn's batch on the loop thread. Touches no
  /// connection state.
  static void serve(Server& server, std::span<FramedRequest> requests) {
    try {
      server.serve_batch(requests);
    } catch (...) {
      // serve_batch's guards make this near-unreachable (bad_alloc
      // building a response); cost the connections, not the loop.
      for (FramedRequest& r : requests) {
        r.failed = true;
      }
    }
  }

  void post(FramedRequest&& done) {
    const MutexLock lock(mutex_);
    completions_.push_back(std::move(done));
    const std::uint64_t one = 1;
    // A full eventfd counter (impossible at 2^64) or EINTR just means
    // the loop is already awake or will be; nothing to handle. The
    // write stays INSIDE the critical section: the loop exits (and
    // closes wake_fd_) only after draining every completion under this
    // mutex, so draining the last one orders this write before the
    // close — outside the lock the loop could close the fd between our
    // unlock and write.
    (void)!::write(wake_fd_, &one, sizeof(one));
  }

  void set_listener_registered(bool want) {
    if (want == listener_registered_) {
      return;
    }
    if (want) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kListenerTag;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_, &ev);
    } else {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_, nullptr);
    }
    listener_registered_ = want;
  }

  /// Moves `response` into the (drained) outbox: its lanes are the
  /// buffer the evaluator wrote, and the socket takes them from there.
  void queue_output(Conn& c, Response&& response) {
    if (response.size() == 0) {
      return;
    }
    AMBIT_CHECK(c.outbox.size() == 0,
                "event loop: outbox already holds a response");
    c.outbox = std::move(response);
    c.out_off = 0;
    server_.note_pending_write_delta(
        static_cast<std::int64_t>(c.outbox.size()));
    c.send_deadline_ms = deadline_after(server_.options_.send_timeout_secs);
  }

  /// One send of the outbox's unflushed bytes: one sendmsg() over the
  /// rest of the text and the rest of the lanes (either may be empty).
  static ssize_t send_outbox(const Conn& c) {
    const Response& r = c.outbox;
    const std::size_t text_off = std::min(c.out_off, r.text.size());
    const std::size_t lanes_off = c.out_off - text_off;
    iovec iov[2] = {
        {const_cast<char*>(r.text.data()) + text_off,
         r.text.size() - text_off},
        {const_cast<char*>(r.lane_bytes()) + lanes_off,
         r.size() - r.text.size() - lanes_off},
    };
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    return ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
  }

  /// Non-blocking flush of the outbox; false when the peer is gone (a
  /// hard write error — the "send" drop).
  bool try_flush(Conn& c) {
    std::size_t flushed = 0;
    bool ok = true;
    while (c.out_off < c.outbox.size()) {
      const ssize_t n = send_outbox(c);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        flushed += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;  // socket buffer full: EPOLLOUT will resume this
      }
      ok = false;  // peer reset / closed its read side
      break;
    }
    if (flushed > 0) {
      server_.note_pending_write_delta(-static_cast<std::int64_t>(flushed));
      // Progress re-arms the send deadline: the timeout bounds a stall,
      // not a whole large response.
      c.send_deadline_ms = deadline_after(server_.options_.send_timeout_secs);
    }
    if (c.out_off >= c.outbox.size()) {
      c.outbox = Response();  // frees the lanes
      c.out_off = 0;
      c.send_deadline_ms = 0;
    }
    return ok;
  }

  /// What every close of a connection does, here or at the loop's
  /// teardown: reports it (`reason` as for
  /// Server::note_connection_closed), un-counts the outbox bytes the
  /// socket never took, and closes the descriptor.
  void release(const Conn& c, const char* reason) {
    server_.note_connection_closed(reason, c.id, c.served);
    const std::size_t unflushed = c.outbox.size() - c.out_off;
    if (unflushed > 0) {
      server_.note_pending_write_delta(-static_cast<std::int64_t>(unflushed));
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
  }

  void close_conn(Conn& c, const char* reason) {
    logs::debug("conn.close", {{"conn", std::to_string(c.id)},
                               {"served", std::to_string(c.served)}});
    release(c, reason);
    conns_.erase(c.id);  // invalidates c — callers return immediately
    // A freed slot — and a freed descriptor, if accept was starved —
    // lets the listener back in.
    if (!draining_ && active() < static_cast<std::size_t>(max_connections_)) {
      set_listener_registered(true);
    }
  }

  /// Hands the framed request to a pool worker: the job owns the record
  /// (line, head and payload lanes, moved, not copied), serves it as a
  /// batch of one, and posts it back with its response — it never
  /// touches connection state. With metrics on, the dispatch stamp
  /// makes the wait for a worker the request's queue_wait phase.
  void dispatch(Conn& c) {
    c.busy = true;
    c.idle_deadline_ms = 0;  // the idle clock only runs while reading
    FramedRequest r = c.state.take_request();
    r.conn_id = c.id;
    r.queued_at_us =
        server_.options_.enable_metrics ? metrics::monotonic_us() : 0;
    Server* server = &server_;
    EventLoop* loop = this;
    server_.session_.pool().submit([loop, server, r = std::move(r)]() mutable {
      serve(*server, {&r, 1});
      loop->post(std::move(r));
    });
  }

  /// The turn's batch: one request from each connection on ready_,
  /// served as one Server::serve_batch on the loop thread (which sweeps
  /// the EVAL/EVALBs for one circuit together). Each connection is then
  /// stepped on, which lists it again when another cheap request is
  /// buffered — for the next turn's batch, so one peer's pipelined
  /// burst takes turns with every other peer. Runs last in the turn,
  /// before the loop next waits.
  void serve_ready() {
    if (ready_.empty()) {
      return;
    }
    for (const std::uint64_t id : ready_) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) {
        continue;  // closed since it was listed
      }
      it->second->ready = false;
      batch_.push_back(it->second->state.take_request());
      batch_.back().conn_id = id;
    }
    ready_.clear();
    serve(server_, batch_);
    // Every response is queued before the first is sent, so the batch's
    // answers leave back to back.
    for (FramedRequest& r : batch_) {
      finish(*conns_.at(r.conn_id), r);
    }
    for (const FramedRequest& r : batch_) {
      step(r.conn_id);
    }
    batch_.clear();
  }

  /// Settles a served request on its connection, wherever it ran: the
  /// served counts, the QUIT/SHUTDOWN close, the drop reasons, and the
  /// queued response, which it moves out of `r`. The caller steps the
  /// connection next.
  void finish(Conn& c, FramedRequest& r) {
    c.busy = false;
    const bool alive = !r.failed && !r.truncated;
    if (alive) {
      ++c.served;
      ++served_total_;
    }
    c.state.finish_request(r.quit);
    if (!alive) {
      // A truncated bulk frame is the peer's protocol error; a failed
      // batch is treated like the peer gone mid-exchange.
      c.drop_reason = r.failed ? "send" : "malformed";
      c.want_close = true;
    } else if (r.quit) {
      if (r.out.text.rfind("ERR", 0) == 0) {
        // Server-initiated close with an ERR response: an unframed or
        // over-limit bulk request. QUIT/SHUTDOWN answer OK and are
        // peer-initiated, not drops.
        c.drop_reason = "malformed";
      }
      c.want_close = true;
    }
    queue_output(c, std::move(r.out));
  }

  /// Drives one connection as far as it can go without new input:
  /// flush pending writes, serve buffered requests (one at a time — a
  /// response must drain before the next request is taken, so a peer
  /// that stops reading stops being served), then settle interest and
  /// the idle deadline. A cheap request (where_served) is listed on
  /// ready_ for the turn's batch, which steps the connection again; the
  /// rest go to the pool, and the connection waits for the record to
  /// come back. May close (and erase) the connection.
  void step(std::uint64_t id) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) {
      return;
    }
    Conn& c = *it->second;
    if (c.ready) {
      return;  // the turn's batch steps it
    }
    for (;;) {
      if (!try_flush(c)) {
        close_conn(c, c.drop_reason != nullptr ? c.drop_reason : "send");
        return;
      }
      if (c.busy || c.want_close || c.out_off < c.outbox.size()) {
        break;
      }
      const ConnState::Step s = c.state.advance();
      if (s == ConnState::Step::kNeedInput) {
        break;  // wait for the socket
      }
      if (s == ConnState::Step::kClosed) {
        close_conn(c, c.drop_reason);
        return;
      }
      if (s == ConnState::Step::kOversized) {
        queue_output(c, Response{oversized_line_response(), {}});
        c.drop_reason = "malformed";
        c.want_close = true;
        continue;  // flush the ERR line, then close
      }
      // kRequest
      if (where_served(c.state.request()) == Where::kPool) {
        dispatch(c);
        break;
      }
      // Interest and deadline settle when the batch steps it: listing
      // leaves the read interest as it is, so a request that the batch
      // answers costs no epoll_ctl.
      c.ready = true;
      c.idle_deadline_ms = 0;
      ready_.push_back(c.id);
      return;
    }
    if (c.want_close && !c.busy && c.out_off >= c.outbox.size()) {
      close_conn(c, c.drop_reason);
      return;
    }
    // Interest: read only while actually waiting for the peer's next
    // bytes (not while a job runs, a response drains or a request waits
    // its turn, which is what bounds per-connection memory); write while
    // the outbox has bytes.
    std::uint32_t want = 0;
    if (!c.busy && !c.want_close && !c.state.eof() &&
        c.out_off >= c.outbox.size()) {
      want |= EPOLLIN;
    }
    if (c.out_off < c.outbox.size()) {
      want |= EPOLLOUT;
    }
    if (want != c.interest) {
      epoll_event ev{};
      ev.events = want;
      ev.data.u64 = c.id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
      c.interest = want;
    }
    if ((want & EPOLLIN) != 0) {
      c.idle_deadline_ms = deadline_after(server_.options_.idle_timeout_secs);
    }
  }

  /// Reads what the peer sent, up to kReadsPerWakeup reads: request
  /// lines into the ConnState buffer, and a framed bulk header's
  /// payload straight into its lanes. Each read is framed at once, so
  /// the reads after a bulk header land in the lanes, and the reads
  /// stop at the first complete request (step() serves it).
  void handle_readable(Conn& c) {
    if (c.busy || c.ready || c.want_close || c.state.eof()) {
      return;  // stale event; completion/flush paths own the next move
    }
    char chunk[kReadBytes];
    for (int burst = 0; burst < kReadsPerWakeup; ++burst) {
      const std::size_t missing = c.state.missing_payload_bytes();
      ssize_t n = 0;
      if (missing > 0) {
        c.state.read_payload(std::min(missing, kReadBytes),
                             [&](char* dst, std::size_t len) {
                               n = ::read(c.fd, dst, len);
                               return n > 0 ? static_cast<std::size_t>(n) : 0;
                             });
      } else {
        n = ::read(c.fd, chunk, sizeof(chunk));
        if (n > 0) {
          c.state.append(chunk, static_cast<std::size_t>(n));
        }
      }
      if (n > 0) {
        if (c.state.advance() != ConnState::Step::kNeedInput) {
          break;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      // read()==0 is a clean close only when the PEER closed; during a
      // SHUTDOWN drain a residual partial line is still treated as
      // truncated, never served.
      c.state.note_eof(n == 0 && !server_.shutdown_.load());
      break;
    }
  }

  void handle_accepts() {
    for (;;) {
      if (active() >= static_cast<std::size_t>(max_connections_)) {
        // Every slot is taken: stop watching the listener (the kernel
        // backlog queues the overflow) until a connection closes.
        set_listener_registered(false);
        return;
      }
      const int conn =
          ::accept4(listener_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (conn < 0) {
        if (errno == EINTR || errno == ECONNABORTED) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;
        }
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Out of descriptors or kernel memory: the live connections
          // are fine, only this accept is not. Park the listener (the
          // backlog holds the new peer) until a connection closes or
          // the next housekeeping pass, like a full max_connections.
          const std::string reason = std::strerror(errno);
          set_listener_registered(false);
          logs::warn_rate_limited(accept_log_limiter_, "conn.accept_starved",
                                  {{"transport", what_},
                                   {"error", reason},
                                   {"active", std::to_string(active())}});
          return;
        }
        fatal_ = what_ + ": accept failed: " + std::strerror(errno);
        begin_drain();
        return;
      }
      // Request lines are tens of bytes; Nagle batching them behind a
      // 40 ms delayed ACK would dwarf every latency in the server.
      // No-op (EOPNOTSUPP) on a Unix-domain connection.
      const int nodelay = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      const std::uint64_t conn_id = ++accepted_;
      server_.note_connection_accepted();
      logs::debug("conn.accept", {{"conn", std::to_string(conn_id)},
                                  {"transport", what_}});
      auto state = std::make_unique<Conn>();
      state->fd = conn;
      state->id = conn_id;
      Conn& c = *state;
      conns_.emplace(conn_id, std::move(state));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conn_id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn, &ev);
      c.interest = EPOLLIN;
      c.idle_deadline_ms = deadline_after(server_.options_.idle_timeout_secs);
    }
  }

  /// The housekeeping pass, at most once per kHousekeepingMs: closes
  /// every connection past its idle deadline (reason=idle) or its send
  /// deadline (reason=send), then re-registers a listener parked for
  /// want of descriptors if a slot is free. A drop fires within one
  /// pass of its deadline.
  void housekeep() {
    const std::uint64_t now = now_ms();
    if (now < next_housekeeping_ms_) {
      return;
    }
    next_housekeeping_ms_ = now + kHousekeepingMs;
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& c = *(it++)->second;  // close_conn erases c, not the next entry
      if (c.idle_deadline_ms != 0 && now >= c.idle_deadline_ms) {
        close_conn(c, "idle");
      } else if (c.send_deadline_ms != 0 && now >= c.send_deadline_ms) {
        close_conn(c, "send");
      }
    }
    if (!draining_ && active() < static_cast<std::size_t>(max_connections_)) {
      set_listener_registered(true);
    }
  }

  /// SHUTDOWN (or a fatal error): stop accepting and stop reading every
  /// connection. Buffered complete requests are still served, in-flight
  /// jobs finish, owed responses flush; only then do the connections
  /// close and the loop exit.
  void begin_drain() {
    if (draining_) {
      return;
    }
    draining_ = true;
    set_listener_registered(false);
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, c] : conns_) {
      c->state.note_eof(false);  // eof() holds: no further reads
      ids.push_back(id);
    }
    for (const std::uint64_t id : ids) {
      step(id);  // may close (and erase) the connection
    }
  }

  void drain_completions() {
    std::vector<FramedRequest> done;
    {
      const MutexLock lock(mutex_);
      done.swap(completions_);
    }
    for (FramedRequest& r : done) {
      const auto it = conns_.find(r.conn_id);
      if (it == conns_.end()) {
        continue;
      }
      finish(*it->second, r);
      step(r.conn_id);
    }
  }

  Server& server_;
  const int listener_;
  const std::string what_;
  const std::function<void()>& cleanup_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int max_connections_ = 1;
  bool listener_registered_ = false;
  /// The loop clock time from which housekeep() runs its next pass.
  std::uint64_t next_housekeeping_ms_ = 0;
  logs::RateLimiter accept_log_limiter_{1'000'000};
  bool draining_ = false;
  std::string fatal_;
  std::uint64_t served_total_ = 0;
  /// Connections accepted so far; the latest one's id.
  std::uint64_t accepted_ = 0;
  /// Connections whose framed request waits for the turn's batch, at
  /// most one each (Conn::ready). Kept, like batch_, with its capacity.
  std::vector<std::uint64_t> ready_;
  /// The turn's batch: the records serve_ready took off ready_.
  std::vector<FramedRequest> batch_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  // The worker→loop handoff: the ONLY state two threads share.
  Mutex mutex_{LockRank::kEventLoop};
  std::vector<FramedRequest> completions_ AMBIT_GUARDED_BY(mutex_);
};

std::uint64_t EventLoop::run() {
  // One Server may serve consecutive listeners: each starts un-shut.
  server_.shutdown_.store(false);
  max_connections_ = server_.options_.max_connections < 1
                         ? 1
                         : server_.options_.max_connections;
  // The listener arrives BLOCKING from bind_tcp_listener/serve_unix.
  // SOCK_NONBLOCK in accept4 only shapes the ACCEPTED socket — the
  // accept call itself blocks on a blocking listener, so the
  // accept-burst loop would hang on the call after the last pending
  // connection.
  ::fcntl(listener_, F_SETFL,
          ::fcntl(listener_, F_GETFL, 0) | O_NONBLOCK);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener_);
    cleanup_();
    throw Error(what_ + ": epoll_create1 failed: " + reason);
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const std::string reason = std::strerror(errno);
    ::close(epoll_fd_);
    ::close(listener_);
    cleanup_();
    throw Error(what_ + ": eventfd failed: " + reason);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
  set_listener_registered(true);

  std::vector<epoll_event> events(512);
  while (!(draining_ && conns_.empty())) {
    // A listed request must not wait out the housekeeping tick: poll,
    // list whatever became ready, then serve the batch.
    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   ready_.empty() ? kHousekeepingMs : 0);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      fatal_ = what_ + ": epoll_wait failed: " + std::strerror(errno);
      begin_drain();
      serve_ready();
      // Without a working epoll there is nothing left to wait on;
      // busy jobs still post completions, drained below.
      break;
    }
    server_.note_loop_wakeup(static_cast<std::size_t>(ready));
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (tag == kWakeTag) {
        std::uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        continue;  // completions are drained once per iteration below
      }
      if (tag == kListenerTag) {
        if (!draining_) {
          handle_accepts();
        }
        continue;
      }
      const auto it = conns_.find(tag);
      if (it == conns_.end()) {
        continue;  // closed earlier in this batch
      }
      // EPOLLERR/EPOLLHUP surface through a read attempt: read()
      // reports the reset or the close.
      if ((mask & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        handle_readable(*it->second);
      }
      step(tag);
    }
    drain_completions();
    // Last, after every step that may list a request.
    serve_ready();
    // A SHUTDOWN answered in that batch drains before the loop reads
    // again, so no request sent after its answer is served. The drain
    // steps every connection, which may list a buffered request: the
    // next turn's batch serves it.
    if (server_.shutdown_.load() && !draining_) {
      begin_drain();
    }
    housekeep();
  }

  // A handful of jobs may still be in flight after a hard epoll
  // failure; their completions must land before the loop object dies.
  for (;;) {
    bool busy = false;
    for (const auto& [id, c] : conns_) {
      busy = busy || c->busy;
    }
    if (!busy) {
      break;
    }
    pollfd pfd{wake_fd_, POLLIN, 0};
    ::poll(&pfd, 1, 10);
    std::uint64_t drained = 0;
    (void)!::read(wake_fd_, &drained, sizeof(drained));
    drain_completions();
  }
  for (const auto& [id, c] : conns_) {
    release(*c, nullptr);
  }
  conns_.clear();
  ::close(wake_fd_);
  ::close(epoll_fd_);
  ::close(listener_);
  cleanup_();
  if (!fatal_.empty()) {
    throw Error(fatal_);
  }
  return served_total_;
}

std::uint64_t serve_event_loop(Server& server, int listener,
                               const std::string& what,
                               const std::function<void()>& cleanup) {
  EventLoop loop(server, listener, what, cleanup);
  return loop.run();
}

}  // namespace ambit::serve

#endif  // __linux__
