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
// EVALB/SIMB, every payload byte its header declares.
//
// Each line is parsed once, when it is framed: its head (parse_head)
// goes into the FramedRequest record that carries the request from
// here through the event loop's routing, Server::serve_batch and back.
// The head says how many payload bytes follow the line. The rest of
// the protocol work (the hex tokens, payload validation, responses)
// stays in serve_batch.
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
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "logic/pattern_batch.h"
#include "serve/protocol.h"
#include "util/error.h"

namespace ambit::serve {

/// The one ERR line every transport answers before dropping a
/// connection whose request line exceeded kMaxLineBytes.
std::string oversized_line_response();

/// One response's wire bytes: the text (the response line, and a
/// METRICS page), then an EVALB/SIMB answer's binary payload. The lanes
/// are the buffer the evaluator wrote, moved here, never copied; the
/// transports write them where they lie.
struct Response {
  std::string text;
  logic::LaneWords lanes;

  std::size_t size() const {
    return text.size() + lanes.size() * sizeof(std::uint64_t);
  }
  /// The lanes as bytes.
  const char* lane_bytes() const {
    return reinterpret_cast<const char*>(lanes.data());
  }
};

/// One request from its framing to its answer: the line, its head as
/// parsed once when it was framed, its payload, then the response
/// Server::serve_batch built. The record moves from ConnState into the
/// event loop's turn batch or a pool job, and comes back to the loop
/// with its answer; serve_stream, serve_chunks and handle_line serve
/// one in place.
struct FramedRequest {
  std::string line;
  /// parse_head's result; meaningful only when parsed().
  Request head;
  /// parse_head's message when the line does not parse: the request's
  /// ERR line.
  std::string error;
  /// The verb the line's first token names, whether or not the rest
  /// parses (nullopt for an unknown verb).
  std::optional<Verb> verb;
  /// For EVALB/SIMB, the payload words reassembled behind the line.
  logic::LaneWords payload;
  /// Identifies the connection in slow-request logs (0 for the
  /// in-process transports).
  std::uint64_t conn_id = 0;
  /// The metrics::monotonic_us() stamp at which the event loop queued
  /// the request for a pool worker (0 = served where it was framed, or
  /// metrics off): the gap to the batch's first clock read is its
  /// queue_wait phase and counts toward its total.
  std::uint64_t queued_at_us = 0;
  Response out;  ///< the response: the line, then any binary frame
  /// Close the connection after the response: QUIT, SHUTDOWN, or a
  /// bulk header that is unframed or over the limit.
  bool quit = false;
  /// EOF cut the bulk frame short: nothing answered, nothing recorded.
  bool truncated = false;
  /// serve_batch threw: the response is incomplete and the connection
  /// is dropped as if the peer were gone.
  bool failed = false;

  bool parsed() const { return error.empty(); }
  /// A bulk header that does not parse: how many payload bytes follow
  /// it is unknown, so the stream cannot be resynced.
  bool unframed() const {
    return !parsed() && verb.has_value() && is_bulk_verb(*verb);
  }
  /// Payload bytes that follow the line: <num_words> * 8 for a parsed
  /// EVALB/SIMB header within kMaxEvalbWords, else 0 — an unframed or
  /// over-limit header is answered (and the connection dropped) without
  /// waiting for any payload.
  std::size_t payload_bytes() const;
};

/// Frames `line` as a request: parses its head (parse_head), keeping
/// the error text and the first token's verb when it does not parse.
/// The server parses a request line nowhere else: ConnState calls it
/// for every transport, and so does Server::handle_line.
FramedRequest frame_request(std::string line);

class ConnState {
 public:
  /// How a bulk request's payload is framed. There is one policy: the
  /// request is ready only once its whole payload is buffered. The type
  /// stays so callers that spell the policy out keep compiling.
  enum class PayloadMode { kBuffered };

  /// What the connection needs next.
  enum class Step {
    kNeedInput,  ///< no complete request buffered; feed more bytes
    kRequest,    ///< request() and its payload are ready
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

  /// The framed request to serve. Valid after advance() returned
  /// kRequest, until take_request() or finish_request().
  const FramedRequest& request() const { return request_; }
  const std::string& line() const { return request_.line; }

  /// Moves the framed request out with its payload words
  /// (take_payload_words); the connection keeps only its place in the
  /// stream until finish_request().
  FramedRequest take_request();

  /// The current request's payload bytes, in its lanes. Shorter than
  /// the header declares only when EOF truncated the frame, which
  /// Server::serve_batch reports without answering. Valid until the payload is
  /// taken or the request finished.
  std::string_view request_payload() const {
    return {payload_bytes(), payload_have_};
  }

  /// Moves the current request's payload out as lane words, no copy:
  /// as many whole words as arrived, which is the header's word count
  /// unless EOF truncated the frame. take_request() carries them to
  /// Server::serve_batch, whose input batch takes them over.
  logic::LaneWords take_payload_words();

  /// request_payload() as one string (a copy), for callers that want
  /// bytes; the payload is gone from the connection afterwards.
  std::string take_request_payload();

  /// Ends the current request, dropping it and its payload if they
  /// were not taken. `quit` applies the post-QUIT drain policy: complete lines
  /// still buffered are DISCARDED, never half-processed — the quit
  /// response is the last thing the peer gets, and pipelining past QUIT
  /// is a client bug.
  void finish_request(bool quit);

 private:
  /// Makes `line` the current request (frame_request) and moves the
  /// payload bytes buffered behind it into its lanes.
  void frame(std::string line);

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
  FramedRequest request_;
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
