#include "harness.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/client.h"

namespace perfbench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

Conn::Conn(int port) {
  fd_ = ambit::serve::connect_tcp_with_retry("127.0.0.1", port);
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
}

Conn::~Conn() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Conn::send_all(const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t k = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      throw std::runtime_error("send failed: server closed the connection");
    }
    sent += static_cast<std::size_t>(k);
  }
}

bool Conn::fill() {
  if (head_ > 0 && head_ * 2 >= buf_.size()) {
    buf_.erase(0, head_);
    head_ = 0;
  }
  char chunk[65536];
  for (;;) {
    const ssize_t k = ::read(fd_, chunk, sizeof(chunk));
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(k));
    return true;
  }
}

std::string Conn::read_line() {
  std::size_t scanned = head_;
  for (;;) {
    const std::size_t newline = buf_.find('\n', scanned);
    if (newline != std::string::npos) {
      std::string line = buf_.substr(head_, newline - head_);
      head_ = newline + 1;
      return line;
    }
    scanned = buf_.size() - head_;
    if (!fill()) {
      throw std::runtime_error("server closed the connection mid-response");
    }
    scanned += head_;
  }
}

void Conn::read_exact(char* dst, std::size_t n) {
  const std::size_t buffered = std::min(n, buf_.size() - head_);
  std::memcpy(dst, buf_.data() + head_, buffered);
  head_ += buffered;
  std::size_t got = buffered;
  while (got < n) {
    const ssize_t k = ::read(fd_, dst + got, n - got);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      throw std::runtime_error("server closed the connection mid-payload");
    }
    got += static_cast<std::size_t>(k);
  }
}

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) {
      span.parent += base;
    }
    spans_.push_back(span);
  }
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(span.us());
    }
  }
  return out;
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] += span.us();
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(spans_[i].us() - child_us[i]);
    }
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path, Clock::time_point origin) const {
  std::ofstream out(path);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu}\n",
                  i, s.name, us_between(origin, s.start),
                  us_between(origin, s.end), static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
}

}  // namespace perfbench
