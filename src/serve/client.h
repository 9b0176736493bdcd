// A minimal socket client for the ambit::serve protocol, over both the
// Unix-domain and the TCP transport.
//
// Header-only on purpose: the serve tests and bench_serve_throughput
// both drive live servers over AF_UNIX and AF_INET, and the
// connect-retry / line-transact plumbing must be ONE implementation so
// the two can never drift into exercising different client behavior.
// It is also the reference for anyone writing a real client against
// the wire protocol (serve/protocol.h; normative reference
// docs/PROTOCOL.md). Everything below a connected fd —
// socket_transact, the bulk-response decoders — is transport-agnostic,
// exactly like the server side.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace ambit::serve {

/// Decodes a bulk success response (EVALB or SIMB, per `verb`) sitting
/// at the start of `response`: the header line
/// "OK <verb> <num_patterns> <num_words>" plus `num_words` raw
/// little-endian words of payload. On a match with the expected pattern
/// count, fills `words` and sets `consumed` to the total frame size
/// (header line + payload), so the caller can keep parsing pipelined
/// responses after it. Returns false — outputs untouched — on a header
/// mismatch or a truncated payload.
inline bool decode_bulk_response(const std::string& verb,
                                 const std::string& response,
                                 std::uint64_t expected_patterns,
                                 std::uint64_t expected_words,
                                 std::vector<std::uint64_t>& words,
                                 std::size_t& consumed) {
  const std::string header = "OK " + verb + " " +
                             std::to_string(expected_patterns) + " " +
                             std::to_string(expected_words) + "\n";
  if (response.compare(0, header.size(), header) != 0) {
    return false;
  }
  const std::size_t payload_bytes = expected_words * sizeof(std::uint64_t);
  if (response.size() < header.size() + payload_bytes) {
    return false;
  }
  words.resize(expected_words);
  std::memcpy(words.data(), response.data() + header.size(), payload_bytes);
  consumed = header.size() + payload_bytes;
  return true;
}

/// EVALB frame: `expected_words` output-lane words.
inline bool decode_evalb_response(const std::string& response,
                                  std::uint64_t expected_patterns,
                                  std::uint64_t expected_words,
                                  std::vector<std::uint64_t>& words,
                                  std::size_t& consumed) {
  return decode_bulk_response("EVALB", response, expected_patterns,
                              expected_words, words, consumed);
}

/// SIMB frame: output lanes followed by the 3*np per-pattern delay
/// doubles (see serve/protocol.h for the exact layout).
inline bool decode_simb_response(const std::string& response,
                                 std::uint64_t expected_patterns,
                                 std::uint64_t expected_words,
                                 std::vector<std::uint64_t>& words,
                                 std::size_t& consumed) {
  return decode_bulk_response("SIMB", response, expected_patterns,
                              expected_words, words, consumed);
}

/// Replaces the load time in every "OK loaded ..., <t> ms" response
/// line of a transcript with "T". It is the one wall-clock value in the
/// protocol; with it canonicalised, the responses to the same requests
/// compare byte for byte.
inline std::string canonical_load_times(std::string transcript) {
  const std::string key = "OK loaded ";
  const std::string cells = " cells, ";
  for (std::size_t at = transcript.find(key); at != std::string::npos;
       at = transcript.find(key, at + key.size())) {
    const std::size_t eol = transcript.find('\n', at);
    const std::size_t start = transcript.find(cells, at);
    const std::size_t end = start == std::string::npos
                                ? std::string::npos
                                : transcript.find(" ms", start);
    if (end != std::string::npos && end < eol) {
      transcript.replace(start + cells.size(), end - start - cells.size(), 1,
                         'T');
    }
  }
  return transcript;
}

/// Waits for a thread running Server::serve_tcp(host, 0, &port) to
/// publish its kernel-assigned port. Returns the port once non-zero;
/// a NEGATIVE value means the caller's server thread reported failure
/// (the convention: store -1 when serve_tcp throws), 0 that the wait
/// timed out. One shared implementation so the tests, the bench, and
/// the tools cannot drift on this handshake. (Portable on purpose —
/// the tools call it unconditionally; on Windows serve_tcp itself
/// throws at runtime, but everything must still compile.)
inline int await_bound_port(const std::atomic<int>& port, int attempts = 2000,
                            int delay_ms = 2) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int bound = port.load(std::memory_order_acquire);
    if (bound != 0) {
      return bound;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return 0;
}

/// Runs a blocking Server::serve_tcp call while announcing the
/// kernel-assigned port: `serve_fn()` must invoke serve_tcp(...,
/// &port); a reporter thread waits on `port` and calls
/// `announce(bound)` once the server is listening (skipped when it
/// never binds). The reporter is joined on BOTH exit paths — on a
/// serve failure, -1 is stored first so the reporter cannot be left
/// waiting. ambit_serve's TCP mode is its one caller.
template <typename ServeFn, typename Announce>
std::uint64_t serve_tcp_announced(std::atomic<int>& port, ServeFn&& serve_fn,
                                  Announce&& announce) {
  std::thread reporter([&port, &announce] {
    const int bound = await_bound_port(port, /*attempts=*/5000);
    if (bound > 0) {
      announce(bound);
    }
  });
  try {
    const std::uint64_t served = serve_fn();
    reporter.join();
    return served;
  } catch (...) {
    port.store(-1);  // unblock the reporter before rethrowing
    reporter.join();
    throw;
  }
}

#ifndef _WIN32

/// Connects to `socket_path`, retrying until the server has bound it.
/// Returns the connected fd, or -1 once the attempts are exhausted.
inline int connect_with_retry(const std::string& socket_path,
                              int attempts = 500, int delay_ms = 5) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (fd >= 0) {
      ::close(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return -1;
}

/// Connects to TCP `host:port` (IPv4 dotted-quad or "localhost"),
/// retrying until the server has bound it. TCP_NODELAY is set so small
/// request lines are not Nagle-delayed behind the server's responses.
/// Returns the connected fd, or -1 once the attempts are exhausted.
inline int connect_tcp_with_retry(const std::string& host, int port,
                                  int attempts = 500, int delay_ms = 5) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string node = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1) {
    return -1;
  }
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      return fd;
    }
    if (fd >= 0) {
      ::close(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return -1;
}

/// Sends `requests` and reads exactly `expected_lines` response lines
/// back (fewer if the server closes the connection first).
inline std::vector<std::string> socket_transact(int fd,
                                                const std::string& requests,
                                                std::size_t expected_lines) {
  std::size_t sent = 0;
  while (sent < requests.size()) {
    // MSG_NOSIGNAL: a server that drops the connection mid-request
    // (oversized line, unframed EVALB header) must surface as a short
    // response, not SIGPIPE the client process.
    const ssize_t n = ::send(fd, requests.data() + sent,
                             requests.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string buffer;
  char chunk[65536];
  std::vector<std::string> lines;
  while (lines.size() < expected_lines) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      lines.push_back(buffer.substr(0, newline));
      buffer.erase(0, newline + 1);
    }
  }
  return lines;
}

#endif  // !_WIN32

}  // namespace ambit::serve
