// The per-connection framing state machine behind every serve transport
// (serve/server.h): incremental line reassembly over a byte buffer, the
// kMaxLineBytes bound, EVALB/SIMB payload reassembly, the
// residual-line-at-clean-EOF rule, and the post-QUIT discard policy.
//
// The epoll event loop (serve/event_loop.h) feeds it whatever a socket
// had ready; Server::serve_stream feeds it one line or one payload at a
// time from an istream; Server::serve_chunks feeds it caller-chosen
// split points (the fuzz harness and the golden transcripts). All three
// make the SAME framing decisions because the decisions live here, not
// in the transports — which is what lets every transport reproduce the
// golden transcripts in tests/data/serve_golden/ byte for byte.
//
// ConnState never touches a socket or a stream and never blocks:
// callers append() bytes as they arrive, call advance() to learn what
// the connection needs next, and note_eof() when the peer is done. A
// request is ready once its whole frame is buffered — the line and, for
// EVALB/SIMB, every payload byte its header declares. The protocol work
// itself (dispatch, payload validation, responses) stays in
// Server::serve_line.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace ambit::serve {

/// The one ERR line every transport answers before dropping a
/// connection whose request line exceeded kMaxLineBytes.
std::string oversized_line_response();

class ConnState {
 public:
  /// How a bulk request's payload is framed. There is one policy: the
  /// request is ready only once its whole payload is buffered. The type
  /// stays so callers that spell the policy out keep compiling.
  enum class PayloadMode { kBuffered };

  /// What the connection needs next.
  enum class Step {
    kNeedInput,  ///< no complete request buffered; feed more bytes
    kRequest,    ///< line() and its payload are ready
    kOversized,  ///< line exceeded kMaxLineBytes: answer
                 ///< oversized_line_response(), drop as "malformed"
    kClosed,     ///< nothing more will be served (EOF / post-QUIT)
  };

  explicit ConnState(PayloadMode /*mode*/ = PayloadMode::kBuffered) {}

  /// Appends peer bytes as they arrived from the transport.
  void append(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Lets `read(dst, n)` store up to `n` bytes straight into the buffer
  /// and keeps the count it returns: a transport that reads exactly
  /// missing_payload_bytes() this way (serve_stream) takes a payload in
  /// one read, with no intermediate copy.
  template <typename Read>
  std::size_t append_from(std::size_t n, Read&& read) {
    const std::size_t old = buffer_.size();
    buffer_.resize(old + n);
    const std::size_t got = read(buffer_.data() + old, n);
    buffer_.resize(old + got);
    return got;
  }

  /// Records end of input. `clean` distinguishes a real peer close
  /// (read() == 0 outside a SHUTDOWN drain) from a cut — timeout or
  /// SHUTDOWN drain: only a CLEAN close serves a residual unterminated
  /// line; after a cut it is a truncated line from a stalled peer and is
  /// dropped.
  void note_eof(bool clean) {
    eof_ = true;
    clean_eof_ = clean_eof_ || clean;
  }

  bool eof() const { return eof_; }

  /// Advances the machine over the buffered bytes (consuming blank
  /// lines) and reports what the connection needs. kNeedInput is never
  /// returned after note_eof().
  Step advance();

  /// Payload bytes the current request still lacks: non-zero only while
  /// advance() waits on a bulk frame whose line is complete. A transport
  /// that can bound its reads (serve_stream) reads exactly this many
  /// next, so it never consumes bytes past the frame.
  std::size_t missing_payload_bytes() const {
    return have_line_ && buffer_.size() < payload_need_
               ? payload_need_ - buffer_.size()
               : 0;
  }

  /// The request line to serve. Valid after advance() returned
  /// kRequest, until finish_request().
  const std::string& line() const { return line_; }

  /// The current request's payload (up to the byte count its frame
  /// requires), still in the buffer, for Server::serve_line. Shorter
  /// than required only when EOF truncated the frame, which serve_line
  /// reports without answering. Valid until the next call that changes
  /// the buffer.
  std::string_view request_payload() const {
    return std::string_view(buffer_).substr(0, payload_need_);
  }

  /// Moves request_payload() out of the buffer as one string, for a
  /// request served after the buffer has moved on (the event loop hands
  /// it to a pool worker).
  std::string take_request_payload();

  /// Ends the current request, dropping its payload from the buffer if
  /// take_request_payload() did not. `quit` applies the post-QUIT drain
  /// policy: complete lines still buffered are DISCARDED, never
  /// half-processed — the quit response is the last thing the peer
  /// gets, and pipelining past QUIT is a client bug.
  void finish_request(bool quit);

 private:
  /// Payload bytes the current line's request will consume before it
  /// can be served: <num_words> * 8 for a well-formed EVALB/SIMB header
  /// within kMaxEvalbWords, else 0 — a malformed or over-limit header is
  /// answered (and the connection dropped) without waiting for any
  /// payload.
  static std::size_t required_payload(const std::string& line);

  std::string buffer_;
  std::string line_;
  bool have_line_ = false;
  std::size_t payload_need_ = 0;
  bool eof_ = false;
  bool clean_eof_ = false;
  bool closed_ = false;
};

}  // namespace ambit::serve
