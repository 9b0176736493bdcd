#include "serve/conn_state.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
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

namespace {

/// The least a growing payload buffer takes: one socket read's worth.
constexpr std::size_t kPayloadStep = std::size_t{64} << 10;

}  // namespace

void ConnState::append(const char* data, std::size_t n) {
  const std::size_t taken = write_payload(data, n);
  buffer_.append(data + taken, n - taken);
}

std::size_t ConnState::write_payload(const char* data, std::size_t n) {
  std::size_t written = 0;
  while (written < n && missing_payload_bytes() > 0) {
    const std::size_t k = payload_room(n - written);
    std::memcpy(payload_bytes() + payload_have_, data + written, k);
    payload_have_ += k;
    written += k;
  }
  return written;
}

std::size_t ConnState::payload_room(std::size_t want) {
  const std::size_t capacity = payload_.size() * sizeof(std::uint64_t);
  if (payload_have_ == capacity) {
    // Full: grow to twice what has arrived (at least one read). Only
    // the bytes that arrived move; the new words stay unwritten until
    // they do.
    const std::size_t target =
        std::min(payload_need_, std::max(kPayloadStep, 2 * payload_have_));
    logic::LaneWords grown;
    grown.resize((target + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t));
    if (payload_have_ > 0) {
      std::memcpy(grown.data(), payload_.data(), payload_have_);
    }
    payload_.swap(grown);
  }
  return std::min({want, payload_need_ - payload_have_,
                   payload_.size() * sizeof(std::uint64_t) - payload_have_});
}

void ConnState::consume(std::size_t n) {
  read_at_ += n;
  scanned_ = std::max(scanned_, read_at_);
  if (read_at_ == buffer_.size()) {
    buffer_.clear();
    read_at_ = 0;
    scanned_ = 0;
  } else if (read_at_ >= buffer_.size() - read_at_) {
    buffer_.erase(0, read_at_);
    scanned_ -= read_at_;
    read_at_ = 0;
  }
}

ConnState::Step ConnState::advance() {
  if (oversized_) {
    return Step::kOversized;
  }
  if (closed_) {
    return Step::kClosed;
  }
  for (;;) {
    if (!have_line_) {
      const std::size_t newline =
          buffer_.find('\n', std::max(scanned_, read_at_));
      if (newline == std::string::npos) {
        scanned_ = buffer_.size();
        // A newline-free byte stream must not grow the buffer without
        // bound; the boundary is strictly MORE than kMaxLineBytes
        // buffered, so a line of exactly the cap is still accepted once
        // its newline arrives.
        if (unread() > kMaxLineBytes) {
          oversized_ = true;
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
        if (clean_eof_ &&
            !trim(std::string_view(buffer_).substr(read_at_)).empty()) {
          line_.assign(buffer_, read_at_);
          consume(unread());
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
        if (newline - read_at_ > kMaxLineBytes) {
          oversized_ = true;
          return Step::kOversized;
        }
        line_.assign(buffer_, read_at_, newline - read_at_);
        consume(newline + 1 - read_at_);
        if (trim(line_).empty()) {
          continue;  // blank lines are ignored
        }
        have_line_ = true;
        payload_need_ = required_payload(line_);
      }
      // The payload bytes that arrived with the line move to its lanes;
      // the rest of the payload is read straight into them.
      consume(write_payload(buffer_.data() + read_at_, unread()));
    }
    if (payload_have_ < payload_need_ && !eof_) {
      return Step::kNeedInput;  // the frame's payload is still arriving
    }
    return Step::kRequest;
  }
}

logic::LaneWords ConnState::take_payload_words() {
  logic::LaneWords words = std::move(payload_);
  words.resize(payload_have_ / sizeof(std::uint64_t));
  payload_ = logic::LaneWords();
  payload_have_ = 0;
  payload_need_ = 0;
  return words;
}

std::string ConnState::take_request_payload() {
  std::string payload(request_payload());
  take_payload_words();
  return payload;
}

void ConnState::finish_request(bool quit) {
  payload_ = logic::LaneWords();
  payload_have_ = 0;
  payload_need_ = 0;
  have_line_ = false;
  line_.clear();
  if (quit) {
    buffer_.clear();
    read_at_ = 0;
    scanned_ = 0;
    closed_ = true;
  }
}

std::size_t ConnState::required_payload(const std::string& line) {
  // Only a bulk header declares a payload, so every other line skips
  // the full parse that Server::serve_batch repeats.
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
    // Malformed line: serve_batch answers ERR (and, for an unframed bulk
    // header, drops the connection) without touching any payload.
  }
  // An over-limit header is likewise rejected before any payload read.
  return 0;
}

}  // namespace ambit::serve
