// Adversarial-peer tests for the socket serve path (the epoll event
// loop): trickled one-byte-at-a-time frames (request lines and
// EVALB/SIMB headers split across reads), slow readers that force the
// server to hold a multi-megabyte response under write backpressure,
// slow-loris peers that must be idle-dropped at the configured deadline
// without pinning healthy connections while a chatty peer outlives its
// own, SHUTDOWN completing promptly under continuous connect pressure,
// a process out of file descriptors, which must pause accepting rather
// than take the live connections down and resume once descriptors come
// back, and a peer that stops reading, dropped at its send deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "logic/pla_io.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/error.h"
#include "util/metrics.h"

#ifdef __linux__  // the socket transports run on epoll

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ambit::serve {
namespace {

using logic::Cover;
using logic::PatternBatch;

/// Writes a small 3-input/2-output cover to a temp .pla file and
/// returns its path.
std::string write_sample_pla(const std::string& filename) {
  const Cover f = Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"});
  const std::string path = testing::TempDir() + "/" + filename;
  logic::write_pla_file(path, logic::make_pla(f, "sample"));
  return path;
}

/// Raw little-endian bytes of a batch's packed lanes — the EVALB/SIMB
/// wire payload.
std::string frame_payload(const PatternBatch& batch) {
  std::vector<std::uint64_t> words(batch.total_words());
  batch.store_words(words.data(), words.size());
  return std::string(reinterpret_cast<const char*>(words.data()),
                     words.size() * sizeof(std::uint64_t));
}

/// Sends every byte of `wire`, optionally sleeping between bytes so
/// consecutive bytes land in separate reads on the server side.
void send_bytes(int fd, const std::string& wire,
                std::chrono::microseconds pause = {}) {
  for (const char byte : wire) {
    for (;;) {
      const ssize_t n = ::send(fd, &byte, 1, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      ASSERT_EQ(n, 1);
      break;
    }
    if (pause.count() > 0) {
      std::this_thread::sleep_for(pause);
    }
  }
}

/// Reads the connection to EOF and returns everything received.
std::string drain(int fd) {
  std::string buffer;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return buffer;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// A Unix-socket server running on its own thread, shut down (if the
/// test has not already done so) on destruction.
class UnixServer {
 public:
  UnixServer(Session& session, const ServerOptions& options,
             const std::string& tag)
      : server_(session, options),
        socket_path_(testing::TempDir() + "/ambit_slow_" + tag + ".sock") {
    thread_ = std::thread([this] { server_.serve_unix(socket_path_); });
  }
  ~UnixServer() {
    if (thread_.joinable()) {
      shutdown();
    }
  }

  const std::string& socket_path() const { return socket_path_; }

  int connect() const { return connect_with_retry(socket_path_); }

  void shutdown() {
    const int fd = connect();
    if (fd >= 0) {
      socket_transact(fd, "SHUTDOWN\n", 1);
      ::close(fd);
    }
    thread_.join();
  }

  /// Joins the serve thread directly — for tests that already sent
  /// SHUTDOWN on their own connection (a fresh connect against the
  /// dying listener would only add retry latency to the measurement).
  void join() { thread_.join(); }

 private:
  Server server_;
  std::string socket_path_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Trickled frames: every frame boundary lands mid-read.
// ---------------------------------------------------------------------------

TEST(SlowPeerTest, TrickledBytesProduceSameResponsesAsOneWrite) {
  // One byte per send, with a pause so the server really sees the
  // request line, the EVALB/SIMB headers, AND their binary payloads
  // split across arbitrary read boundaries — then the trickled
  // response stream must be byte-identical to a single-write replay of
  // the same wire bytes. (LOAD happens on a separate control
  // connection: its response embeds a wall-clock load time, the one
  // non-deterministic response line in the protocol.)
  Session session(2);
  UnixServer server(session, {}, "trickle");
  const std::string path = write_sample_pla("slow_trickle.pla");
  const int ctl = server.connect();
  ASSERT_GE(ctl, 0);
  ASSERT_EQ(socket_transact(ctl, "LOAD s " + path + "\n", 1).size(), 1u);
  ::close(ctl);

  PatternBatch inputs = PatternBatch::exhaustive(3);
  std::ostringstream wire;
  wire << "EVAL s 7 0\n"
       << "EVALB s " << inputs.num_patterns() << " " << inputs.total_words()
       << "\n"
       << frame_payload(inputs) << "SIMB s " << inputs.num_patterns() << " "
       << inputs.total_words() << "\n"
       << frame_payload(inputs) << "VERIFY s\nQUIT\n";

  const int fast = server.connect();
  ASSERT_GE(fast, 0);
  send_bytes(fast, wire.str());
  ::shutdown(fast, SHUT_WR);
  const std::string expected = drain(fast);
  ::close(fast);
  ASSERT_NE(expected.find("OK EVALB "), std::string::npos);
  ASSERT_NE(expected.find("OK SIMB "), std::string::npos);
  ASSERT_NE(expected.find("OK bye"), std::string::npos);

  const int slow = server.connect();
  ASSERT_GE(slow, 0);
  send_bytes(slow, wire.str(), std::chrono::microseconds(300));
  ::shutdown(slow, SHUT_WR);
  const std::string trickled = drain(slow);
  ::close(slow);
  EXPECT_EQ(trickled, expected);
}

// ---------------------------------------------------------------------------
// Slow reader: the server owes megabytes while the peer sips.
// ---------------------------------------------------------------------------

TEST(SlowPeerTest, SlowReaderReceivesFullBackpressuredResponse) {
  // A 100k-pattern SIMB response (~2.4 MB: output lanes plus the 3*np
  // delay doubles) far exceeds any default socket buffer, so the
  // server must hold the overflow in its outbox, flushing on EPOLLOUT,
  // while the client reads 4 KB at a time with pauses. The frame must arrive
  // complete and the connection must still serve a follow-up request,
  // proving backpressure neither truncated nor wedged the stream.
  Session session(2);
  UnixServer server(session, {}, "slowread");
  const std::string path = write_sample_pla("slow_reader.pla");

  constexpr std::uint64_t kPatterns = 100000;
  PatternBatch inputs(3, kPatterns);
  for (std::uint64_t p = 0; p < kPatterns; ++p) {
    inputs.set(p, 0, (p & 1) != 0);
    inputs.set(p, 1, (p & 2) != 0);
    inputs.set(p, 2, (p & 4) != 0);
  }
  std::ostringstream wire;
  wire << "LOAD s " << path << "\nSIMB s " << kPatterns << " "
       << inputs.total_words() << "\n"
       << frame_payload(inputs) << "EVAL s 7 0\nQUIT\n";

  const int fd = server.connect();
  ASSERT_GE(fd, 0);
  const std::string request = wire.str();
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);

  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    response.append(chunk, static_cast<std::size_t>(n));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ::close(fd);

  // First line: "OK loaded ...". Second: the SIMB frame header.
  const std::size_t load_end = response.find('\n');
  ASSERT_NE(load_end, std::string::npos);
  const std::string after_load = response.substr(load_end + 1);
  const std::size_t header_end = after_load.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  std::istringstream header(after_load.substr(0, header_end));
  std::string ok;
  std::string verb;
  std::uint64_t np = 0;
  std::uint64_t nw = 0;
  header >> ok >> verb >> np >> nw;
  EXPECT_EQ(ok, "OK");
  EXPECT_EQ(verb, "SIMB");
  EXPECT_EQ(np, kPatterns);
  std::vector<std::uint64_t> words;
  std::size_t consumed = 0;
  ASSERT_TRUE(decode_simb_response(after_load, kPatterns, nw, words, consumed));
  // Then the pipelined EVAL response and the QUIT ack, intact.
  const std::string tail = after_load.substr(consumed);
  EXPECT_EQ(tail.compare(0, 3, "OK "), 0);
  EXPECT_NE(tail.find("OK bye"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Slow loris: a silent (or byte-dribbling-then-silent) peer is dropped
// at the idle deadline and never pins healthy traffic.
// ---------------------------------------------------------------------------

TEST(SlowPeerTest, SlowLorisIsIdleDroppedWithoutPinningOthers) {
  Session session(2);
  metrics::Registry registry;
  ServerOptions options;
  options.idle_timeout_secs = 1;
  options.registry = &registry;
  UnixServer server(session, options, "loris");

  // The loris: half a request line, then silence.
  const auto start = std::chrono::steady_clock::now();
  const int loris = server.connect();
  ASSERT_GE(loris, 0);
  send_bytes(loris, "EVA");

  // A healthy connection opened AFTER the loris completes a full
  // session while the loris is still idling toward its deadline.
  const std::string path = write_sample_pla("slow_loris.pla");
  const int healthy = server.connect();
  ASSERT_GE(healthy, 0);
  const auto lines = socket_transact(
      healthy, "LOAD s " + path + "\nEVAL s 7 0\nQUIT\n", 3);
  ::close(healthy);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "OK bye");
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));

  // The loris is dropped at the deadline: EOF, and its half-line is
  // NOT served (an idle drop discards the residual — only a clean
  // peer-initiated EOF serves one).
  const std::string leftovers = drain(loris);
  ::close(loris);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(leftovers.empty()) << "idle drop served residual: " << leftovers;
  EXPECT_GE(elapsed, std::chrono::milliseconds(900));
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  server.shutdown();
  const metrics::Counter* idle = registry.find_counter(
      "ambit_serve_connections_dropped_total", {{"reason", "idle"}});
  ASSERT_NE(idle, nullptr);
  EXPECT_EQ(idle->value(), 1u);
}

TEST(SlowPeerTest, ChattyPeerOutlivesItsIdleTimeout) {
  // The idle clock moves with activity: a peer that sends one EVAL
  // every 250 ms for 2.5 s, more than twice its 1 s idle timeout, gets
  // every answer and is never idle-dropped.
  Session session(2);
  metrics::Registry registry;
  ServerOptions options;
  options.idle_timeout_secs = 1;
  options.registry = &registry;
  UnixServer server(session, options, "chatty");
  const std::string path = write_sample_pla("slow_chatty.pla");
  const int fd = server.connect();
  ASSERT_GE(fd, 0);
  ASSERT_EQ(socket_transact(fd, "LOAD s " + path + "\n", 1).size(), 1u);
  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const auto lines = socket_transact(fd, "EVAL s 7 0\n", 1);
    if (lines.size() == 1 && lines[0].compare(0, 3, "OK ") == 0) {
      ++answered;
    }
  }
  ::close(fd);

  server.shutdown();
  EXPECT_EQ(answered, 10);
  const metrics::Counter* idle = registry.find_counter(
      "ambit_serve_connections_dropped_total", {{"reason", "idle"}});
  ASSERT_NE(idle, nullptr);
  EXPECT_EQ(idle->value(), 0u);
}

// ---------------------------------------------------------------------------
// SHUTDOWN under continuous connect pressure.
// ---------------------------------------------------------------------------

TEST(SlowPeerTest, ShutdownCompletesWithinOneSecondUnderConnectPressure) {
  // max_connections=1: one held slot parks the listener while connect
  // pressure keeps its backlog full — SHUTDOWN must still drain and
  // finish serving within one second of the SHUTDOWN response.
  Session session(1);
  ServerOptions options;
  options.max_connections = 1;
  UnixServer server(session, options, "pressure");

  // Occupy the only slot first, so pressure connections pile up behind
  // it in the accept queue / slot wait.
  const int holder = server.connect();
  ASSERT_GE(holder, 0);

  std::atomic<bool> stop{false};
  std::vector<std::thread> pressure;
  for (int i = 0; i < 3; ++i) {
    pressure.emplace_back([&] {
      while (!stop.load()) {
        const int fd = connect_with_retry(server.socket_path(),
                                          /*attempts=*/1);
        if (fd >= 0) {
          ::close(fd);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  // Let the pressure build while the slot is held.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto lines = socket_transact(holder, "SHUTDOWN\n", 1);
  ASSERT_EQ(lines.size(), 1u);
  const auto acked = std::chrono::steady_clock::now();
  ::close(holder);
  server.join();  // SHUTDOWN already sent on the holder connection
  const auto elapsed = std::chrono::steady_clock::now() - acked;
  stop.store(true);
  for (std::thread& t : pressure) {
    t.join();
  }
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "the server took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms to exit after SHUTDOWN was acknowledged";
}

// ---------------------------------------------------------------------------
// Out of file descriptors: accept pauses, live connections carry on.
// ---------------------------------------------------------------------------

/// Fills this process's descriptor table: lowers the RLIMIT_NOFILE soft
/// limit to just above the lowest free descriptor and opens /dev/null
/// until that fails with EMFILE. release_one() frees one slot; the
/// destructor frees the rest and restores the limit.
class FdExhaustion {
 public:
  FdExhaustion() {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    const int lowest = ::open("/dev/null", O_RDONLY);
    if (lowest < 0) {
      return;
    }
    fillers_.push_back(lowest);
    rlimit tight = saved_;
    tight.rlim_cur = static_cast<rlim_t>(lowest) + 16;
    ::setrlimit(RLIMIT_NOFILE, &tight);
    for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) {
      fillers_.push_back(fd);
    }
  }
  ~FdExhaustion() {
    for (const int fd : fillers_) {
      ::close(fd);
    }
    ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  FdExhaustion(const FdExhaustion&) = delete;
  FdExhaustion& operator=(const FdExhaustion&) = delete;

  void release_one() {
    ::close(fillers_.back());
    fillers_.pop_back();
  }

 private:
  rlimit saved_{};
  std::vector<int> fillers_;
};

TEST(SlowPeerTest, RunningOutOfDescriptorsPausesOnlyAccept) {
  // With the descriptor table full, the server's accept of a new client
  // fails with EMFILE. The connection already open must keep getting
  // answers, and the queued client must be served once a connection
  // closes and frees a descriptor.
  const std::string socket_path = testing::TempDir() + "/ambit_slow_fds.sock";
  Session session(1);
  Server server(session);
  std::atomic<bool> server_failed{false};
  std::thread server_thread([&] {
    try {
      server.serve_unix(socket_path);
    } catch (const Error& e) {
      ADD_FAILURE() << "serve_unix threw: " << e.what();
      server_failed = true;
    }
  });

  const int live = connect_with_retry(socket_path);
  const bool warmed_up =
      live >= 0 && socket_transact(live, "STATS\n", 1).size() == 1;
  int queued = -1;
  std::vector<std::string> starved_lines;
  std::vector<std::string> queued_lines;
  if (warmed_up) {
    FdExhaustion exhausted;
    exhausted.release_one();  // room for exactly the client's socket
    queued = connect_with_retry(socket_path, /*attempts=*/1);
    if (queued >= 0) {
      const timeval timeout{10, 0};
      ::setsockopt(queued, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout));
      const std::string stats = "STATS\n";
      (void)!::send(queued, stats.data(), stats.size(), MSG_NOSIGNAL);
    }
    // Several housekeeping ticks of failing accepts.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    starved_lines = socket_transact(live, "STATS\n", 1);
    ::close(live);  // frees descriptors: the queued client gets in
    if (queued >= 0) {
      queued_lines = socket_transact(queued, "", 1);
    }
  }
  if (queued >= 0) {
    ::close(queued);
  }
  if (!server_failed) {
    const int ctl = connect_with_retry(socket_path);
    if (ctl >= 0) {
      socket_transact(ctl, "SHUTDOWN\n", 1);
      ::close(ctl);
    }
  }
  server_thread.join();

  ASSERT_TRUE(warmed_up);
  ASSERT_GE(queued, 0);
  ASSERT_EQ(starved_lines.size(), 1u)
      << "the live connection lost its answer while accept was starved";
  // Accepted count 1: the queued client was really held off.
  EXPECT_TRUE(starved_lines[0].size() >= 16 &&
              starved_lines[0].compare(starved_lines[0].size() - 16, 16,
                                       " connections=1/1") == 0)
      << starved_lines[0];
  ASSERT_EQ(queued_lines.size(), 1u) << "the queued client was never served";
  EXPECT_TRUE(queued_lines[0].size() >= 2 &&
              queued_lines[0].compare(queued_lines[0].size() - 2, 2, "/2") ==
                  0)
      << queued_lines[0];
}

TEST(SlowPeerTest, ParkedListenerReturnsWhenDescriptorsFreeWithoutAClose) {
  // As above, but the descriptors come back while the live connection
  // stays open: no close re-admits the parked listener, so the loop's
  // housekeeping must, and the queued client is served with both
  // connections open.
  const std::string socket_path =
      testing::TempDir() + "/ambit_slow_fds_back.sock";
  Session session(1);
  Server server(session);
  std::atomic<bool> server_failed{false};
  std::thread server_thread([&] {
    try {
      server.serve_unix(socket_path);
    } catch (const Error& e) {
      ADD_FAILURE() << "serve_unix threw: " << e.what();
      server_failed = true;
    }
  });

  const int live = connect_with_retry(socket_path);
  const bool warmed_up =
      live >= 0 && socket_transact(live, "STATS\n", 1).size() == 1;
  int queued = -1;
  std::vector<std::string> starved_lines;
  std::vector<std::string> queued_lines;
  if (warmed_up) {
    {
      FdExhaustion exhausted;
      exhausted.release_one();  // room for exactly the client's socket
      queued = connect_with_retry(socket_path, /*attempts=*/1);
      if (queued >= 0) {
        const timeval timeout{10, 0};
        ::setsockopt(queued, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        const std::string stats = "STATS\n";
        (void)!::send(queued, stats.data(), stats.size(), MSG_NOSIGNAL);
      }
      // Several housekeeping ticks of failing accepts.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      starved_lines = socket_transact(live, "STATS\n", 1);
    }  // the descriptors come back; `live` stays open
    if (queued >= 0) {
      queued_lines = socket_transact(queued, "", 1);
    }
  }
  if (live >= 0) {
    ::close(live);
  }
  if (queued >= 0) {
    ::close(queued);
  }
  if (!server_failed) {
    const int ctl = connect_with_retry(socket_path);
    if (ctl >= 0) {
      socket_transact(ctl, "SHUTDOWN\n", 1);
      ::close(ctl);
    }
  }
  server_thread.join();

  ASSERT_TRUE(warmed_up);
  ASSERT_GE(queued, 0);
  ASSERT_EQ(starved_lines.size(), 1u)
      << "the live connection lost its answer while accept was starved";
  EXPECT_TRUE(starved_lines[0].size() >= 16 &&
              starved_lines[0].compare(starved_lines[0].size() - 16, 16,
                                       " connections=1/1") == 0)
      << starved_lines[0];
  ASSERT_EQ(queued_lines.size(), 1u) << "the queued client was never served";
  EXPECT_TRUE(queued_lines[0].size() >= 16 &&
              queued_lines[0].compare(queued_lines[0].size() - 16, 16,
                                      " connections=2/2") == 0)
      << queued_lines[0];
}

// ---------------------------------------------------------------------------
// The lane outbox: an EVALB answer leaves from the lanes the evaluator
// wrote, as the text line plus one lane buffer, flushed by sendmsg.
// ---------------------------------------------------------------------------

/// A 3-input cover with 64 outputs: a 1M-pattern EVALB answer carries
/// 8 MiB of output lanes, more than a socket's send buffer may grow to
/// (tcp_wmem's usual 4 MiB ceiling), so the outbox must hold the rest.
std::string write_wide_pla(const std::string& filename) {
  std::string a;
  std::string b;
  std::string c;
  for (int o = 0; o < 64; ++o) {
    a += o % 2 == 0 ? '1' : '0';
    b += o % 2 == 0 ? '0' : '1';
    c += o % 3 == 0 ? '1' : '0';
  }
  const Cover f = Cover::parse(3, 64, {"11- " + a, "0-1 " + b, "10- " + c});
  const std::string path = testing::TempDir() + "/" + filename;
  logic::write_pla_file(path, logic::make_pla(f, "wide"));
  return path;
}

/// Connects to 127.0.0.1:`port` with a 16 KiB receive buffer, set before
/// connect() so the advertised window stays small: the server's
/// outbox, not the kernel, holds what the client has not read yet.
int connect_small_window(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int rcvbuf = 16 << 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

TEST(SlowPeerTest, LaneOutboxServesASlowReaderAndDropsAResetPeer) {
  // A 1M-pattern EVALB with an EVAL pipelined behind it, read 4 KiB at
  // a time with pauses: the bytes must equal serve_chunks on a fresh
  // session, and ambit_serve_pending_write_bytes must have counted the
  // queued lanes meanwhile. A second client resets the connection in
  // the middle of its lanes: it is dropped with reason=send and the
  // server keeps serving. With both gone the gauge is back to 0.
  const std::string path = write_wide_pla("lane_outbox.pla");
  constexpr std::uint64_t kPatterns = std::uint64_t{1} << 20;
  PatternBatch inputs(3, kPatterns);
  for (std::uint64_t w = 0; w < inputs.words_per_lane(); ++w) {
    inputs.lane(0)[w] = 0xAAAAAAAAAAAAAAAAULL;  // pattern p = p mod 8
    inputs.lane(1)[w] = 0xCCCCCCCCCCCCCCCCULL;
    inputs.lane(2)[w] = 0xF0F0F0F0F0F0F0F0ULL;
  }
  const std::string frame = "EVALB w " + std::to_string(kPatterns) + " " +
                            std::to_string(inputs.total_words()) + "\n" +
                            frame_payload(inputs);
  const std::string wire = frame + "EVAL w 5 2\nQUIT\n";

  std::string expected;
  {
    Session fresh(0);
    fresh.load("w", path);
    metrics::Registry registry;
    ServerOptions options;
    options.registry = &registry;
    Server reference(fresh, options);
    bool fed = false;
    reference.serve_chunks(
        [&]() -> std::string {
          if (fed) {
            return {};
          }
          fed = true;
          return wire;
        },
        expected);
  }
  ASSERT_GT(expected.size(), std::size_t{8} << 20);

  Session session(2);
  session.load("w", path);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::atomic<int> port{0};
  std::thread serve_thread([&] {
    try {
      server.serve_tcp("127.0.0.1", 0, &port);
    } catch (const Error& e) {
      ADD_FAILURE() << "serve_tcp threw: " << e.what();
      port.store(-1);
    }
  });
  const int bound = await_bound_port(port);
  const auto pending = [&] {
    const metrics::Gauge* gauge =
        registry.find_gauge("ambit_serve_pending_write_bytes");
    return gauge != nullptr ? gauge->value() : -1;
  };

  std::string slow_response;
  std::int64_t most_pending = 0;
  std::uint64_t dropped_send = 0;
  std::vector<std::string> after_reset;
  if (bound > 0) {
    const int slow = connect_small_window(bound);
    if (slow >= 0) {
      send_all(slow, wire);
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::read(slow, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n <= 0) {
          break;
        }
        slow_response.append(chunk, static_cast<std::size_t>(n));
        most_pending = std::max(most_pending, pending());
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      ::close(slow);
    }

    const int reset = connect_small_window(bound);
    if (reset >= 0) {
      send_all(reset, frame);
      char chunk[4096];
      std::size_t got = 0;
      while (got < sizeof(chunk)) {  // the header and the first lanes
        const ssize_t n = ::read(reset, chunk, sizeof(chunk) - got);
        if (n <= 0) {
          break;
        }
        got += static_cast<std::size_t>(n);
      }
      const linger hard{1, 0};  // close() sends RST
      ::setsockopt(reset, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
      ::close(reset);
    }
    const metrics::Counter* send_drops = registry.find_counter(
        "ambit_serve_connections_dropped_total", {{"reason", "send"}});
    for (int i = 0; i < 500 && send_drops != nullptr &&
                    send_drops->value() == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    dropped_send = send_drops != nullptr ? send_drops->value() : 0;

    const int after = connect_tcp_with_retry("127.0.0.1", bound);
    if (after >= 0) {
      after_reset = socket_transact(after, "EVAL w 5\nSHUTDOWN\n", 2);
      ::close(after);
    }
  }
  serve_thread.join();

  ASSERT_GT(bound, 0);
  EXPECT_TRUE(slow_response == expected)
      << "slow reader got " << slow_response.size() << " bytes, serve_chunks "
      << expected.size();
  EXPECT_GT(most_pending, 0) << "the outbox never held the queued lanes";
  EXPECT_LE(most_pending, static_cast<std::int64_t>(expected.size()));
  EXPECT_EQ(dropped_send, 1u);
  ASSERT_EQ(after_reset.size(), 2u) << "the server stopped serving";
  EXPECT_EQ(after_reset[0].compare(0, 3, "OK "), 0) << after_reset[0];
  EXPECT_EQ(pending(), 0);
}

TEST(SlowPeerTest, SendTimeoutDropsAPeerThatStopsReading) {
  // A peer that sends a 1M-pattern EVALB and never reads its 8 MiB
  // answer stalls the outbox: with send_timeout_secs = 1 it is dropped
  // with reason=send about a second after the last write progress,
  // while a second connection is answered meanwhile.
  const std::string path = write_wide_pla("send_timeout.pla");
  constexpr std::uint64_t kPatterns = std::uint64_t{1} << 20;
  const PatternBatch inputs(3, kPatterns);
  const std::string frame = "EVALB w " + std::to_string(kPatterns) + " " +
                            std::to_string(inputs.total_words()) + "\n" +
                            frame_payload(inputs);

  Session session(2);
  session.load("w", path);
  metrics::Registry registry;
  ServerOptions options;
  options.send_timeout_secs = 1;
  options.registry = &registry;
  Server server(session, options);
  std::atomic<int> port{0};
  std::thread serve_thread([&] {
    try {
      server.serve_tcp("127.0.0.1", 0, &port);
    } catch (const Error& e) {
      ADD_FAILURE() << "serve_tcp threw: " << e.what();
      port.store(-1);
    }
  });
  const int bound = await_bound_port(port);
  const metrics::Counter* send_drops = registry.find_counter(
      "ambit_serve_connections_dropped_total", {{"reason", "send"}});

  std::vector<std::string> meanwhile;
  std::uint64_t drops_when_answered = 0;
  auto dropped_after = std::chrono::milliseconds(-1);
  if (bound > 0 && send_drops != nullptr) {
    const int stalled = connect_small_window(bound);
    if (stalled >= 0) {
      send_all(stalled, frame);
      const auto sent = std::chrono::steady_clock::now();
      const int other = connect_tcp_with_retry("127.0.0.1", bound);
      if (other >= 0) {
        meanwhile = socket_transact(other, "EVAL w 5\n", 1);
        drops_when_answered = send_drops->value();
        ::close(other);
      }
      while (send_drops->value() == 0 &&
             std::chrono::steady_clock::now() - sent <
                 std::chrono::seconds(10)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (send_drops->value() > 0) {
        dropped_after = std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - sent);
      }
      ::close(stalled);
    }
    const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
    if (ctl >= 0) {
      socket_transact(ctl, "SHUTDOWN\n", 1);
      ::close(ctl);
    }
  }
  serve_thread.join();

  ASSERT_GT(bound, 0);
  ASSERT_NE(send_drops, nullptr);
  ASSERT_EQ(meanwhile.size(), 1u) << "the second connection was not answered";
  EXPECT_EQ(meanwhile[0].compare(0, 3, "OK "), 0) << meanwhile[0];
  EXPECT_EQ(drops_when_answered, 0u) << "answered only after the drop";
  EXPECT_EQ(send_drops->value(), 1u);
  EXPECT_GE(dropped_after, std::chrono::milliseconds(900));
  EXPECT_LT(dropped_after, std::chrono::seconds(10));
}

}  // namespace
}  // namespace ambit::serve

#endif  // __linux__
