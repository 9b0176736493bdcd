#include "serve/conn_state.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

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

std::size_t FramedRequest::payload_bytes() const {
  if (!parsed() || !is_bulk_verb(head.verb) ||
      head.num_words > kMaxEvalbWords) {
    return 0;
  }
  return static_cast<std::size_t>(head.num_words) * sizeof(std::uint64_t);
}

FramedRequest frame_request(std::string line) {
  FramedRequest r;
  r.line = std::move(line);
  try {
    r.head = parse_head(r.line);
    r.verb = r.head.verb;
  } catch (const Error& e) {
    r.error = e.what();
    std::string_view rest = r.line;
    r.verb = find_verb(next_token(rest));
  }
  return r;
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
          std::string line(buffer_, read_at_);
          consume(unread());
          frame(std::move(line));
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
        std::string line(buffer_, read_at_, newline - read_at_);
        consume(newline + 1 - read_at_);
        if (trim(line).empty()) {
          continue;  // blank lines are ignored
        }
        frame(std::move(line));
      }
    }
    if (payload_have_ < payload_need_ && !eof_) {
      return Step::kNeedInput;  // the frame's payload is still arriving
    }
    return Step::kRequest;
  }
}

void ConnState::frame(std::string line) {
  request_ = frame_request(std::move(line));
  have_line_ = true;
  payload_need_ = request_.payload_bytes();
  // The payload bytes that arrived with the line move to its lanes; the
  // rest of the payload is read straight into them.
  consume(write_payload(buffer_.data() + read_at_, unread()));
}

FramedRequest ConnState::take_request() {
  request_.payload = take_payload_words();
  return std::move(request_);
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
  request_ = FramedRequest();
  if (quit) {
    buffer_.clear();
    read_at_ = 0;
    scanned_ = 0;
    closed_ = true;
  }
}

}  // namespace ambit::serve
