#include "serve/event_loop.h"

#ifdef __linux__

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/conn_state.h"
#include "serve/protocol.h"
#include "serve/server.h"
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

/// epoll_wait timeout: the housekeeping tick that advances the timer
/// wheel and retries an accept starved of descriptors, even when no
/// descriptor is ready.
constexpr int kHousekeepingMs = 50;

/// The largest EVAL/EVALB the loop serves itself: one lane word, far
/// below the 16 words at which Evaluator::evaluate_batch shards. On the
/// 223-product benchmark circuit the one-word sweep costs about 10 us
/// at any count up to 64; a text EVAL adds about 0.7 us of hex codec
/// per pattern, an EVALB nothing.
constexpr std::uint64_t kLoopMaxPatterns = 64;

/// ... and the most pattern bytes it may carry (the EVAL line, the
/// EVALB payload): a 64-pattern request against a circuit with
/// thousands of inputs is neither one cheap word nor small to copy.
constexpr std::size_t kLoopMaxPatternBytes = std::size_t{16} << 10;

/// Whether the loop thread serves the request on `line` itself (true)
/// or hands it to the pool (false), read from the line alone with the
/// tokenizer parse_request uses, but without its allocations. The
/// switch names every verb and has no default, so a new verb does not
/// compile (-Wswitch) until it is placed here. Cheap requests run on
/// the loop: one-word EVAL/EVALB (only while the coalescer is off — its
/// leader parks on a CondVar, which must never park the loop), the
/// bookkeeping verbs, and the lines whose answer is one ERR: an unknown
/// verb, an EVAL without patterns, an EVALB header whose counts do not
/// parse. A LOAD, VERIFY, SIM or SIMB line with bad arguments is
/// answered on the pool like a good one.
bool runs_on_loop(std::string_view line, bool coalescing) {
  std::string_view rest = line;
  const std::optional<Verb> verb = find_verb(next_token(rest));
  if (!verb.has_value()) {
    return true;
  }
  switch (*verb) {
    case Verb::kEval: {
      if (coalescing || line.size() > kLoopMaxPatternBytes) {
        return false;
      }
      next_token(rest);  // the circuit name
      std::uint64_t patterns = 0;
      while (!next_token(rest).empty()) {
        ++patterns;
      }
      return patterns <= kLoopMaxPatterns;
    }
    case Verb::kEvalB: {
      if (coalescing) {
        return false;
      }
      next_token(rest);  // the circuit name
      const std::string_view patterns_token = next_token(rest);
      const std::string_view words_token = next_token(rest);
      std::uint64_t patterns = 0;
      std::uint64_t words = 0;
      const auto parse = [](std::string_view token, std::uint64_t& value) {
        const auto [end, error] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        return error == std::errc() && end == token.data() + token.size();
      };
      if (!parse(patterns_token, patterns) || !parse(words_token, words)) {
        return true;  // an unframed header: ERR, then the drop
      }
      return patterns <= kLoopMaxPatterns &&
             words <= kLoopMaxPatternBytes / sizeof(std::uint64_t);
    }
    case Verb::kStats:
    case Verb::kMetrics:
    case Verb::kUnload:
    case Verb::kHelp:
    case Verb::kQuit:
    case Verb::kShutdown:
      return true;
    case Verb::kLoad:
    case Verb::kSim:
    case Verb::kSimB:
    case Verb::kVerify:
      return false;
  }
  return false;  // unreachable: the switch names every verb
}

}  // namespace

/// Which per-connection deadline a wheel entry tracks.
enum class TimerKind { kIdle, kSend };

/// A hashed timing wheel over the connection deadlines: arming is O(1)
/// (file the entry in the slot its deadline hashes to), and each loop
/// iteration sweeps only the slots whose tick just passed — never all
/// connections. Entries are lazy: the wheel hands expiry CANDIDATES to
/// the loop, which checks them against the connection's CURRENT
/// deadline (refreshed on activity without touching the wheel) and
/// re-files the ones whose deadline moved. That caps wheel traffic at
/// O(1) amortized per connection per timeout period, regardless of how
/// chatty the connection is.
class TimerWheel {
 public:
  static constexpr std::uint64_t kTickMs = 100;
  static constexpr std::size_t kSlots = 128;

  struct Entry {
    std::uint64_t conn_id;
    TimerKind kind;
    std::uint64_t deadline_ms;  ///< deadline at filing time
  };

  explicit TimerWheel(std::uint64_t start) : last_tick_(start / kTickMs) {}

  void arm(std::uint64_t conn_id, TimerKind kind, std::uint64_t deadline_ms) {
    slots_[(deadline_ms / kTickMs) % kSlots].push_back(
        Entry{conn_id, kind, deadline_ms});
  }

  /// Sweeps the slots for every FULLY elapsed tick since the last
  /// advance, handing each due entry to `fire` (which owns re-filing
  /// against live deadlines). A slot holds deadlines from anywhere in
  /// its tick's 100 ms span, so it is ripe only once `now` has passed
  /// the tick's END — sweeping at the tick's start would misread a
  /// deadline in the tick's final milliseconds as a later rotation and
  /// park it for a full wheel turn. Due-ness is therefore decided by
  /// rotation (the entry's tick vs the sweep target), never by
  /// comparing the raw deadline against `now`.
  template <typename Fire>
  void advance(std::uint64_t now, Fire&& fire) {
    const std::uint64_t tick = now / kTickMs;
    if (tick == 0 || tick - 1 <= last_tick_) {
      return;
    }
    const std::uint64_t target = tick - 1;
    // A stall longer than one full rotation only requires each slot to
    // be swept once.
    const std::uint64_t steps =
        target - last_tick_ < kSlots ? target - last_tick_ : kSlots;
    for (std::uint64_t s = 1; s <= steps; ++s) {
      std::vector<Entry>& slot = slots_[(last_tick_ + s) % kSlots];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < slot.size(); ++i) {
        if (slot[i].deadline_ms / kTickMs <= target) {
          fire(slot[i]);
        } else {
          slot[keep++] = slot[i];  // a later rotation of this slot
        }
      }
      slot.resize(keep);
    }
    last_tick_ = target;
  }

 private:
  std::uint64_t last_tick_;
  std::vector<Entry> slots_[kSlots];
};

/// The epoll loop: see event_loop.h for the ownership rules. A friend
/// of Server — on this path the loop IS the transport, driving
/// serve_line and the drop accounting directly.
class EventLoop {
 public:
  EventLoop(Server& server, int listener, std::string what,
            const std::function<void()>& cleanup)
      : server_(server),
        listener_(listener),
        what_(std::move(what)),
        cleanup_(cleanup),
        wheel_(now_ms()) {}

  std::uint64_t run();

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    ConnState state;
    /// Write-backpressure queue: response bytes the socket has not
    /// taken yet. out_off tracks the flushed prefix; both reset when
    /// the outbox drains.
    std::string outbox;
    std::size_t out_off = 0;
    bool busy = false;        ///< a request job is on the pool
    bool want_close = false;  ///< close once the outbox drains
    bool no_reads = false;    ///< SHUTDOWN drain cut the input side
    /// On runnable_: a complete request is buffered but this turn
    /// already served one. Not read from while listed, which bounds
    /// the buffer of a peer that pipelines.
    bool runnable = false;
    std::uint64_t inline_turn = 0;  ///< last turn the loop served it
    const char* drop_reason = nullptr;
    std::uint64_t served = 0;
    /// Deadlines (loop clock ms); 0 = disarmed. Refreshed on activity
    /// without touching the wheel — see TimerWheel.
    std::uint64_t idle_deadline_ms = 0;
    std::uint64_t send_deadline_ms = 0;
    bool idle_filed = false;
    bool send_filed = false;
    std::uint32_t interest = 0;  ///< epoll interest currently registered
  };

  /// A served request: posted by a pool worker, or built on the loop
  /// for a request it served itself.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string out;  ///< response bytes (line + any bulk payload)
    bool alive = false;
    bool quit = false;
    bool payload_truncated = false;
  };

  std::size_t active() const { return conns_.size(); }

  void post(Completion&& done) {
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

  void queue_output(Conn& c, const std::string& bytes) {
    if (bytes.empty()) {
      return;
    }
    const bool was_empty = c.out_off >= c.outbox.size();
    c.outbox.append(bytes);
    server_.note_pending_write_delta(static_cast<std::int64_t>(bytes.size()));
    if (was_empty && server_.options_.send_timeout_secs > 0) {
      c.send_deadline_ms =
          now_ms() +
          static_cast<std::uint64_t>(server_.options_.send_timeout_secs) * 1000;
    }
  }

  /// Non-blocking flush of the outbox; false when the peer is gone (a
  /// hard write error — the "send" drop).
  bool try_flush(Conn& c) {
    std::size_t flushed = 0;
    bool ok = true;
    while (c.out_off < c.outbox.size()) {
      const ssize_t n = ::send(c.fd, c.outbox.data() + c.out_off,
                               c.outbox.size() - c.out_off, MSG_NOSIGNAL);
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
      if (server_.options_.send_timeout_secs > 0) {
        // Progress re-arms the send deadline: the timeout bounds a
        // stall, not a whole large response.
        c.send_deadline_ms =
            now_ms() +
            static_cast<std::uint64_t>(server_.options_.send_timeout_secs) *
                1000;
      }
    }
    if (c.out_off >= c.outbox.size()) {
      c.outbox.clear();
      c.out_off = 0;
      c.send_deadline_ms = 0;
    }
    return ok;
  }

  void close_conn(Conn& c, const char* reason) {
    if (reason != nullptr) {
      server_.note_connection_dropped(reason, c.id, c.served);
    }
    logs::debug("conn.close", {{"conn", std::to_string(c.id)},
                               {"served", std::to_string(c.served)}});
    const std::size_t unflushed = c.outbox.size() - c.out_off;
    if (unflushed > 0) {
      server_.note_pending_write_delta(-static_cast<std::int64_t>(unflushed));
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    server_.connections_active_.fetch_sub(1, std::memory_order_relaxed);
    conns_.erase(c.id);  // invalidates c — callers return immediately
    // A freed slot — and a freed descriptor, if accept was starved —
    // lets the listener back in.
    if (!draining_ && active() < static_cast<std::size_t>(max_connections_)) {
      accept_retry_ms_ = 0;
      set_listener_registered(true);
    }
  }

  /// Runs one framed request through serve_line, on a pool worker or
  /// on the loop thread. Touches no connection state: `payload` is the
  /// job's own copy or a view into the connection's buffer.
  static Completion serve(Server& server, std::uint64_t conn_id,
                          const std::string& line, std::string_view payload,
                          std::uint64_t queued_at_us) {
    Completion done;
    done.conn_id = conn_id;
    Server::Outcome outcome;
    try {
      done.alive =
          server.serve_line(line, payload, done.out, outcome, conn_id,
                            queued_at_us);
      // serve_line fails only when EOF truncated the buffered frame.
      done.payload_truncated = !done.alive;
    } catch (...) {
      // serve_line's guards make this near-unreachable (bad_alloc
      // building a response); cost the connection, not the loop.
      done.alive = false;
    }
    done.quit = outcome.quit;
    return done;
  }

  /// Hands the ready request to a pool worker: the job owns copies of
  /// the line and payload, builds its response bytes locally, and posts
  /// a Completion — it never touches connection state. The dispatch
  /// stamp makes the wait for a worker the request's queue_wait phase.
  void dispatch(Conn& c) {
    c.busy = true;
    c.idle_deadline_ms = 0;  // the idle clock only runs while reading
    const std::uint64_t queued_at_us = metrics::monotonic_us();
    const std::uint64_t id = c.id;
    std::string line = c.state.line();
    std::string payload = c.state.take_request_payload();
    Server* server = &server_;
    EventLoop* loop = this;
    server_.session_.pool().submit([loop, server, id, queued_at_us,
                                    line = std::move(line),
                                    payload = std::move(payload)] {
      loop->post(serve(*server, id, line, payload, queued_at_us));
    });
  }

  /// Serves the ready request to completion on the loop thread, reading
  /// the payload where it sits in the connection buffer.
  void serve_inline(Conn& c) {
    c.idle_deadline_ms = 0;
    c.inline_turn = turn_;
    finish(c, serve(server_, c.id, c.state.line(), c.state.request_payload(),
                    /*queued_at_us=*/0));
  }

  /// Settles a served request on its connection, wherever it ran: the
  /// served counts, the QUIT/SHUTDOWN close, the drop reasons, and the
  /// queued response. The caller steps the connection next.
  void finish(Conn& c, const Completion& done) {
    c.busy = false;
    if (done.alive) {
      ++c.served;
      ++served_total_;
    }
    c.state.finish_request(done.quit);
    if (!done.alive) {
      // A truncated bulk frame is the peer's protocol error; anything
      // else here is the peer gone mid-exchange.
      c.drop_reason = done.payload_truncated ? "malformed" : "send";
      c.want_close = true;
    } else if (done.quit) {
      if (done.out.rfind("ERR", 0) == 0) {
        // Server-initiated close with an ERR response: an unframed or
        // over-limit bulk request. QUIT/SHUTDOWN answer OK and are
        // peer-initiated, not drops.
        c.drop_reason = "malformed";
      }
      c.want_close = true;
    }
    queue_output(c, done.out);
  }

  /// Drives one connection as far as it can go without new input:
  /// flush pending writes, serve buffered requests (one at a time — a
  /// response must drain before the next request is parsed, so a peer
  /// that stops reading stops being served), then settle interest and
  /// timers. A cheap request (runs_on_loop) is served right here, but
  /// only one per connection per turn: a second one waits on runnable_
  /// for the next turn, so one peer's pipelined burst cannot hold the
  /// loop while another peer waits. Any other request goes to the pool,
  /// and the connection waits for its Completion. May close (and
  /// erase) the connection.
  void step(std::uint64_t id) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) {
      return;
    }
    Conn& c = *it->second;
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
        queue_output(c, oversized_line_response());
        c.drop_reason = "malformed";
        c.want_close = true;
        continue;  // flush the ERR line, then close
      }
      // kRequest
      if (!runs_on_loop(c.state.line(), server_.coalescer_.enabled())) {
        dispatch(c);
        break;
      }
      if (c.inline_turn == turn_) {
        if (!c.runnable) {
          c.runnable = true;
          runnable_.push_back(c.id);
        }
        break;
      }
      serve_inline(c);
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
    if (!c.busy && !c.want_close && !c.no_reads && !c.runnable &&
        !c.state.eof() && c.out_off >= c.outbox.size()) {
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
    const std::uint64_t now = now_ms();
    if ((want & EPOLLIN) != 0 && server_.options_.idle_timeout_secs > 0) {
      c.idle_deadline_ms =
          now +
          static_cast<std::uint64_t>(server_.options_.idle_timeout_secs) * 1000;
      if (!c.idle_filed) {
        wheel_.arm(c.id, TimerKind::kIdle, c.idle_deadline_ms);
        c.idle_filed = true;
      }
    }
    if ((want & EPOLLOUT) != 0 && c.send_deadline_ms != 0 && !c.send_filed) {
      wheel_.arm(c.id, TimerKind::kSend, c.send_deadline_ms);
      c.send_filed = true;
    }
  }

  /// Steps every connection that waited a turn with a request buffered.
  void serve_runnable() {
    std::vector<std::uint64_t> batch;
    batch.swap(runnable_);
    for (const std::uint64_t id : batch) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) {
        continue;  // closed since it was queued
      }
      Conn& c = *it->second;
      if (c.inline_turn == turn_) {
        runnable_.push_back(id);  // already served this turn
        continue;
      }
      c.runnable = false;
      step(id);  // may queue it again
    }
  }

  void handle_readable(Conn& c) {
    if (c.busy || c.runnable || c.no_reads || c.state.eof()) {
      return;  // stale event; completion/flush paths own the next move
    }
    char chunk[65536];
    // Level-triggered: a few bursts per wakeup, the rest re-triggers —
    // one huge sender cannot starve the other connections.
    for (int burst = 0; burst < 4; ++burst) {
      const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
      if (n > 0) {
        c.state.append(chunk, static_cast<std::size_t>(n));
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
          // the next housekeeping tick, like a full max_connections.
          const std::string reason = std::strerror(errno);
          set_listener_registered(false);
          accept_retry_ms_ = now_ms() + kHousekeepingMs;
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
      const std::uint64_t conn_id =
          server_.connections_accepted_.fetch_add(1,
                                                  std::memory_order_relaxed) +
          1;
      server_.note_connection_accepted();
      server_.connections_active_.fetch_add(1, std::memory_order_relaxed);
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
      const std::uint64_t now = now_ms();
      if (server_.options_.idle_timeout_secs > 0) {
        c.idle_deadline_ms =
            now +
            static_cast<std::uint64_t>(server_.options_.idle_timeout_secs) *
                1000;
        wheel_.arm(conn_id, TimerKind::kIdle, c.idle_deadline_ms);
        c.idle_filed = true;
      }
    }
  }

  void on_timer(const TimerWheel::Entry& entry) {
    const auto it = conns_.find(entry.conn_id);
    if (it == conns_.end()) {
      return;  // connection already gone; the entry just dies
    }
    Conn& c = *it->second;
    if (entry.kind == TimerKind::kIdle) {
      c.idle_filed = false;
      if (c.idle_deadline_ms == 0) {
        return;  // disarmed (busy serving); re-filed when reading resumes
      }
      if (now_ms() < c.idle_deadline_ms) {
        // Activity moved the deadline since filing: re-file, don't fire.
        wheel_.arm(c.id, TimerKind::kIdle, c.idle_deadline_ms);
        c.idle_filed = true;
        return;
      }
      close_conn(c, "idle");
      return;
    }
    c.send_filed = false;
    if (c.send_deadline_ms == 0) {
      return;  // outbox drained since filing
    }
    if (now_ms() < c.send_deadline_ms) {
      wheel_.arm(c.id, TimerKind::kSend, c.send_deadline_ms);
      c.send_filed = true;
      return;
    }
    close_conn(c, "send");
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
      c->no_reads = true;
      c->state.note_eof(false);
      ids.push_back(id);
    }
    for (const std::uint64_t id : ids) {
      step(id);  // may close (and erase) the connection
    }
  }

  void drain_completions() {
    std::vector<Completion> batch;
    {
      const MutexLock lock(mutex_);
      batch.swap(completions_);
    }
    for (const Completion& done : batch) {
      const auto it = conns_.find(done.conn_id);
      if (it == conns_.end()) {
        continue;
      }
      finish(*it->second, done);
      step(done.conn_id);
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
  /// Non-zero while accept is starved of descriptors: the loop clock
  /// time at which the parked listener is re-registered.
  std::uint64_t accept_retry_ms_ = 0;
  logs::RateLimiter accept_log_limiter_{1'000'000};
  bool draining_ = false;
  std::string fatal_;
  std::uint64_t served_total_ = 0;
  /// Loop iterations so far: a connection is served on the loop at most
  /// once per turn.
  std::uint64_t turn_ = 0;
  /// Connections holding a request that waits for the next turn.
  std::vector<std::uint64_t> runnable_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  TimerWheel wheel_;
  // The worker→loop handoff: the ONLY state two threads share.
  Mutex mutex_{LockRank::kEventLoop};
  std::vector<Completion> completions_ AMBIT_GUARDED_BY(mutex_);
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
    ++turn_;
    // A runnable connection must not wait out the housekeeping tick:
    // poll, serve whatever became ready, then serve it.
    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   runnable_.empty() ? kHousekeepingMs : 0);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      fatal_ = what_ + ": epoll_wait failed: " + std::strerror(errno);
      begin_drain();
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
    serve_runnable();
    // A SHUTDOWN served this turn, on the loop or on a worker.
    if (server_.shutdown_.load() && !draining_) {
      begin_drain();
    }
    const std::uint64_t now = now_ms();
    wheel_.advance(now, [this](const TimerWheel::Entry& e) { on_timer(e); });
    if (accept_retry_ms_ != 0 && now >= accept_retry_ms_ && !draining_) {
      accept_retry_ms_ = 0;
      if (active() < static_cast<std::size_t>(max_connections_)) {
        set_listener_registered(true);
      }
    }
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
  for (auto& [id, c] : conns_) {
    const std::size_t unflushed = c->outbox.size() - c->out_off;
    if (unflushed > 0) {
      server_.note_pending_write_delta(-static_cast<std::int64_t>(unflushed));
    }
    ::close(c->fd);
    server_.connections_active_.fetch_sub(1, std::memory_order_relaxed);
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
