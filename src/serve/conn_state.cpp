#include "serve/conn_state.h"

#include <cstdint>
#include <optional>
#include <string_view>

#include "serve/protocol.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/strings.h"

namespace ambit::serve {

std::string oversized_line_response() {
  return err_response("request line exceeds " + std::to_string(kMaxLineBytes) +
                      " bytes") +
         "\n";
}

ConnState::Step ConnState::advance() {
  if (closed_) {
    return Step::kClosed;
  }
  for (;;) {
    if (!have_line_) {
      const std::size_t newline = buffer_.find('\n');
      if (newline == std::string::npos) {
        // A newline-free byte stream must not grow the buffer without
        // bound; the boundary is strictly MORE than kMaxLineBytes
        // buffered, so a line of exactly the cap is still accepted once
        // its newline arrives.
        if (buffer_.size() > kMaxLineBytes) {
          closed_ = true;
          return Step::kOversized;
        }
        if (!eof_) {
          return Step::kNeedInput;
        }
        // CLEAN EOF with a residual unterminated line: the peer sent a
        // final request and closed without the trailing newline. Serve
        // it like any other line instead of silently dropping it. The
        // line is MOVED out of the buffer first so a residual bulk
        // header cannot re-read its own text as payload — its payload
        // comes up short and the request fails cleanly.
        if (clean_eof_ && !trim(buffer_).empty()) {
          line_ = std::move(buffer_);
          buffer_.clear();
          have_line_ = true;
          payload_need_ = required_payload(line_);
        } else {
          closed_ = true;
          return Step::kClosed;
        }
      } else {
        // A complete line can still exceed the cap when its newline
        // arrived in the same chunk; the boundary must match the
        // no-newline path exactly.
        if (newline > kMaxLineBytes) {
          closed_ = true;
          return Step::kOversized;
        }
        line_ = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (trim(line_).empty()) {
          continue;  // blank lines are ignored
        }
        have_line_ = true;
        payload_need_ = required_payload(line_);
      }
    }
    if (buffer_.size() < payload_need_ && !eof_) {
      return Step::kNeedInput;  // the frame's payload is still arriving
    }
    return Step::kRequest;
  }
}

std::string ConnState::take_request_payload() {
  std::string payload(request_payload());
  buffer_.erase(0, payload.size());
  payload_need_ = 0;
  return payload;
}

void ConnState::finish_request(bool quit) {
  buffer_.erase(0, payload_need_);
  have_line_ = false;
  line_.clear();
  payload_need_ = 0;
  if (quit) {
    buffer_.clear();
    closed_ = true;
  }
}

std::size_t ConnState::required_payload(const std::string& line) {
  // Only a bulk header declares a payload, so every other line skips
  // the full parse that serve_line repeats.
  std::string_view rest = line;
  const std::optional<Verb> verb = find_verb(next_token(rest));
  if (!verb.has_value() || !is_bulk_verb(*verb)) {
    return 0;
  }
  try {
    const Request request = parse_request(line);
    if (is_bulk_verb(request.verb) && request.num_words <= kMaxEvalbWords) {
      return static_cast<std::size_t>(request.num_words) *
             sizeof(std::uint64_t);
    }
  } catch (const Error&) {
    // Malformed line: serve_line answers ERR (and, for an unframed bulk
    // header, drops the connection) without touching any payload.
  }
  // An over-limit header is likewise rejected before any payload read.
  return 0;
}

}  // namespace ambit::serve
