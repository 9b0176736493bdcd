#include "live.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using std::chrono::duration_cast;
using std::chrono::nanoseconds;

/// What one client thread measured.
struct ClientOut {
  Tally tally;
  std::uint64_t completed = 0;
  Clock::time_point last_done{};
  std::vector<double> latency_us;
  std::vector<std::vector<double>> slices;  // latency_us by second of window
  Tracer tracer;
};

/// The measured window: [from, end). Requests sent before `from` are
/// warm-up, checked but not timed.
struct Schedule {
  Clock::time_point start;
  Clock::time_point from;
  Clock::time_point end;

  explicit Schedule(const WindowOptions& opt)
      : start(Clock::now()),
        from(start + duration_cast<nanoseconds>(
                         std::chrono::duration<double>(opt.warmup_s))),
        end(from + duration_cast<nanoseconds>(
                       std::chrono::duration<double>(opt.seconds))) {}

  std::size_t num_slices() const {
    return static_cast<std::size_t>(std::ceil(seconds_between(from, end))) + 2;
  }
};

/// Records one completed request that began at `t0`.
void record(ClientOut& out, const Schedule& sched, Clock::time_point t0,
            Clock::time_point t1, bool trace, std::uint64_t request_id) {
  if (t0 < sched.from) {
    return;
  }
  ++out.completed;
  out.last_done = std::max(out.last_done, t1);
  const double us = us_between(t0, t1);
  out.latency_us.push_back(us);
  const auto slice = static_cast<std::size_t>(seconds_between(sched.from, t1));
  if (slice < out.slices.size()) {
    out.slices[slice].push_back(us);
  }
  if (trace) {
    out.tracer.add("client.request", t0, t1, -1, request_id);
  }
}

/// Folds the client threads' results into one window.
Window merge(std::vector<ClientOut>& outs, const Schedule& sched,
             std::uint64_t patterns_per_request) {
  Window w;
  w.patterns_per_request = patterns_per_request;
  Clock::time_point last = sched.from;
  w.slices.resize(sched.num_slices());
  for (ClientOut& out : outs) {
    w.tally.add(out.tally);
    w.completed += out.completed;
    last = std::max(last, out.last_done);
    w.latency_us.insert(w.latency_us.end(), out.latency_us.begin(),
                        out.latency_us.end());
    for (std::size_t s = 0; s < out.slices.size(); ++s) {
      w.slices[s].insert(w.slices[s].end(), out.slices[s].begin(),
                         out.slices[s].end());
    }
    w.tracer.absorb(out.tracer);
  }
  w.elapsed_s = seconds_between(sched.from, last);
  w.slices.resize(std::min(static_cast<std::size_t>(w.elapsed_s),
                           w.slices.size()));
  return w;
}

ClientOut make_out(const Schedule& sched, bool trace) {
  ClientOut out;
  out.slices.resize(sched.num_slices());
  if (trace) {
    out.tracer.reserve(1 << 16);
  }
  return out;
}

/// Runs `body(i)` for every i in [0, n), each on its own thread, and joins
/// them.
template <typename Body>
void run_threads(std::size_t n, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back(body, i);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

/// One classify EVAL: sends it, checks the answer. False when the
/// connection broke (the failure is counted).
bool classify_once(Conn& conn, const ClassifyRequest& req, Tally& tally) {
  ++tally.attempted;
  try {
    if (!check_classify(req, conn.transact(req.line))) {
      ++tally.failed;
    }
    return true;
  } catch (const std::runtime_error&) {
    ++tally.failed;
    return false;
  }
}

}  // namespace

Setup start_server(const std::string& binary, const std::string& log_path,
                   const Reference& ref) {
  Setup s;
  const auto t0 = Clock::now();
  s.server = std::make_unique<ServerProcess>(binary, log_path);
  Conn conn(s.server->port());
  s.tally.attempted += 2;
  if (!check_load(ref.heavy(), conn.transact(ref.heavy().load_request))) {
    ++s.tally.failed;
  }
  const ClassifyRequest& first = ref.classify.front();
  if (!check_classify(first, conn.transact(first.line))) {
    ++s.tally.failed;
  }
  s.setup_s = seconds_between(t0, Clock::now());
  return s;
}

Window run_classify(const Reference& ref, const WindowOptions& opt,
                    int connections) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Conn>(opt.port));
  }
  const Schedule sched(opt);
  std::vector<ClientOut> outs;
  for (int c = 0; c < connections; ++c) {
    outs.push_back(make_out(sched, opt.trace));
  }
  run_threads(outs.size(), [&](std::size_t c) {
    ClientOut& out = outs[c];
    const std::size_t pool = ref.classify.size();
    for (std::uint64_t i = 0;; ++i) {
      const auto t0 = Clock::now();
      if (t0 >= sched.end) {
        break;
      }
      const ClassifyRequest& req = ref.classify[(c * 257 + i) % pool];
      if (!classify_once(*conns[c], req, out.tally)) {
        break;
      }
      record(out, sched, t0, Clock::now(), opt.trace, (c << 40) | i);
    }
  });
  return merge(outs, sched, kClassifyPatterns);
}

Window run_bulk(const Reference& ref, const WindowOptions& opt) {
  Conn conn(opt.port);
  const Schedule sched(opt);
  std::vector<ClientOut> outs;
  outs.push_back(make_out(sched, opt.trace));
  ClientOut& out = outs.front();
  std::vector<std::uint64_t> words;
  for (std::uint64_t i = 0;; ++i) {
    const auto t0 = Clock::now();
    if (t0 >= sched.end) {
      break;
    }
    const BulkFrame& frame = ref.bulk[i % ref.bulk.size()];
    ++out.tally.attempted;
    try {
      conn.send_all(frame.request);
      const std::string header = conn.read_line();
      if (header != frame.expected_header) {
        // The payload length is unknown: the stream cannot be trusted.
        ++out.tally.failed;
        break;
      }
      words.resize(frame.expected_words.size());
      conn.read_exact(reinterpret_cast<char*>(words.data()),
                      words.size() * sizeof(std::uint64_t));
    } catch (const std::runtime_error&) {
      ++out.tally.failed;
      break;
    }
    const auto t1 = Clock::now();
    if (!check_bulk(frame, frame.expected_header, words)) {
      ++out.tally.failed;
    }
    record(out, sched, t0, t1, opt.trace, i);
  }
  return merge(outs, sched, kBulkPatterns);
}

std::map<std::string, double> scrape_metrics(int port) {
  Conn conn(port);
  const std::string header = conn.transact("METRICS\n");
  const std::string prefix = "OK METRICS ";
  if (header.compare(0, prefix.size(), prefix) != 0) {
    throw std::runtime_error("unexpected METRICS response: " + header);
  }
  std::string page(std::stoull(header.substr(prefix.size())), '\0');
  conn.read_exact(page.data(), page.size());
  std::map<std::string, double> series;
  std::size_t pos = 0;
  while (pos < page.size()) {
    std::size_t eol = page.find('\n', pos);
    if (eol == std::string::npos) {
      eol = page.size();
    }
    const std::string line = page.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) {
      continue;
    }
    series[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return series;
}

int server_workers(int port) {
  Conn conn(port);
  const std::string stats = conn.transact("STATS\n");
  const std::string key = "workers=";
  const std::size_t at = stats.find(key);
  return at == std::string::npos ? -1 : std::stoi(stats.substr(at + key.size()));
}

}  // namespace perfbench
