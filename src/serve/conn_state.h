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
// Server::serve_batch.
//
// Lines are reassembled in a byte buffer read from an offset, compacted
// only once the consumed prefix is half of it, so a burst of pipelined
// requests costs each one its own bytes, not the bytes behind it. A
// bulk payload is reassembled apart from the lines, in the aligned lane
// words (logic::LaneWords) its input PatternBatch takes over: once the
// header is framed, read_payload() lets a transport read() straight
// into them. That buffer grows with the bytes received — never past
// twice what has arrived, or one 64 KiB read — so a header alone holds
// no memory for its declared size.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "logic/pattern_batch.h"
#include "util/error.h"

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
                 ///< (returned from then on)
    kClosed,     ///< nothing more will be served (EOF / post-QUIT)
  };

  explicit ConnState(PayloadMode /*mode*/ = PayloadMode::kBuffered) {}

  /// Appends peer bytes as they arrived from the transport. Bytes the
  /// current bulk request's payload still lacks go straight to its
  /// lanes; the rest are buffered as lines.
  void append(const char* data, std::size_t n);

  /// Lets `read(dst, k)` store up to `k` <= `n` bytes of the current
  /// request's payload straight into its lanes, and keeps the count it
  /// returns. Only while missing_payload_bytes() > 0. `k` may be less
  /// than `n`: the lanes grow with the bytes received (see above).
  template <typename Read>
  std::size_t read_payload(std::size_t n, Read&& read) {
    check(missing_payload_bytes() > 0, "ConnState: no payload to read");
    const std::size_t k = payload_room(n);
    const std::size_t got = read(payload_bytes() + payload_have_, k);
    payload_have_ += got;
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
  /// lines, framing a bulk header's payload) and reports what the
  /// connection needs. kNeedInput is never returned after note_eof().
  /// Calling it again without new input returns the same step.
  Step advance();

  /// Payload bytes the current request still lacks: non-zero only while
  /// advance() waits on a bulk frame whose line is complete. A transport
  /// reads them with read_payload(), never past the frame.
  std::size_t missing_payload_bytes() const {
    return have_line_ ? payload_need_ - payload_have_ : 0;
  }

  /// The request line to serve. Valid after advance() returned
  /// kRequest, until finish_request().
  const std::string& line() const { return line_; }

  /// The current request's payload bytes, in its lanes. Shorter than
  /// the header declares only when EOF truncated the frame, which
  /// Server::serve_batch reports without answering. Valid until the payload is
  /// taken or the request finished.
  std::string_view request_payload() const {
    return {payload_bytes(), payload_have_};
  }

  /// Moves the current request's payload out as lane words, no copy:
  /// as many whole words as arrived, which is the header's word count
  /// unless EOF truncated the frame. Every transport hands them to
  /// Server::serve_batch, whose input batch takes them over.
  logic::LaneWords take_payload_words();

  /// request_payload() as one string (a copy), for callers that want
  /// bytes; the payload is gone from the connection afterwards.
  std::string take_request_payload();

  /// Ends the current request, dropping its payload if it was not
  /// taken. `quit` applies the post-QUIT drain policy: complete lines
  /// still buffered are DISCARDED, never half-processed — the quit
  /// response is the last thing the peer gets, and pipelining past QUIT
  /// is a client bug.
  void finish_request(bool quit);

 private:
  /// Payload bytes the current line's request will consume before it
  /// can be served: <num_words> * 8 for a well-formed EVALB/SIMB header
  /// within kMaxEvalbWords, else 0 — a malformed or over-limit header is
  /// answered (and the connection dropped) without waiting for any
  /// payload.
  static std::size_t required_payload(const std::string& line);

  char* payload_bytes() {
    return reinterpret_cast<char*>(payload_.data());
  }
  const char* payload_bytes() const {
    return reinterpret_cast<const char*>(payload_.data());
  }

  /// Bytes (at most `want`, at least 1) the payload can take next at
  /// payload_have_, growing the lanes first when they are full.
  std::size_t payload_room(std::size_t want);

  /// Copies as many of `n` bytes as the current payload still lacks into
  /// its lanes; returns that count.
  std::size_t write_payload(const char* data, std::size_t n);

  /// Drops `n` bytes at the read offset, compacting the buffer once the
  /// consumed prefix is at least half of it.
  void consume(std::size_t n);

  std::size_t unread() const { return buffer_.size() - read_at_; }

  std::string buffer_;       ///< line bytes; [read_at_, size) unread
  std::size_t read_at_ = 0;
  std::size_t scanned_ = 0;  ///< no '\n' in [read_at_, scanned_)
  std::string line_;
  bool have_line_ = false;
  std::size_t payload_need_ = 0;  ///< bytes the frame's payload declares
  std::size_t payload_have_ = 0;  ///< bytes of it in payload_
  logic::LaneWords payload_;
  bool eof_ = false;
  bool clean_eof_ = false;
  bool closed_ = false;
  bool oversized_ = false;
};

}  // namespace ambit::serve
