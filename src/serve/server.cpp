#include "serve/server.h"

#include <array>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "serve/conn_state.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/strings.h"
#include "util/thread_annotations.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <map>
#include <thread>
#endif

namespace ambit::serve {

std::pair<std::string, int> parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  check(colon != std::string::npos && colon > 0 && colon + 1 < spec.size(),
        "expected <host>:<port>, got '" + spec + "'");
  const std::string host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  int port = 0;
  for (const char c : port_text) {
    check(c >= '0' && c <= '9',
          "port '" + port_text + "' in '" + spec + "' is not a number");
    port = port * 10 + (c - '0');
    check(port <= 65535,
          "port '" + port_text + "' in '" + spec + "' exceeds 65535");
  }
  return {host, port};
}

const char* io_model_name(IoModel model) {
  return model == IoModel::kThreads ? "threads" : "epoll";
}

IoModel parse_io_model(const std::string& text) {
  if (text == "threads") {
    return IoModel::kThreads;
  }
  if (text == "epoll") {
    return IoModel::kEpoll;
  }
  throw Error("unknown io model '" + text + "' (expected threads or epoll)");
}

IoModel resolve_io_model(IoModel requested) {
  // getenv, not a cached static: tests flip the variable between
  // listeners in one process.
  const char* forced = std::getenv("AMBIT_IO_MODEL");
  if (forced != nullptr && *forced != '\0') {
    requested = parse_io_model(forced);
  }
#ifndef __linux__
  requested = IoModel::kThreads;  // epoll is Linux-only
#endif
  return requested;
}

/// Every handle the per-request path records through, registered once
/// at Server construction. Pointers, not references, so the struct can
/// live behind a unique_ptr; all of them point into deque-backed
/// registry storage whose addresses never move.
struct Server::ServeMetrics {
  metrics::Registry& registry;
  // Indexed by Verb enum value — verb_names() lists the verbs in enum
  // order, which is what makes static_cast<size_t>(verb) valid here.
  std::vector<metrics::Counter*> requests;
  std::vector<metrics::Histogram*> request_us;
  metrics::Counter* request_errors;
  metrics::Counter* requests_malformed;
  std::array<metrics::Histogram*, metrics::kNumPhases> phase_us;
  metrics::Gauge* connections_active;
  metrics::Counter* connections_accepted;
  metrics::Counter* dropped_idle;
  metrics::Counter* dropped_send;
  metrics::Counter* dropped_malformed;
  metrics::Gauge* pool_workers;
  metrics::Gauge* pool_queue_depth;
  metrics::Gauge* pool_busy;
  metrics::Counter* coalesce_requests;
  metrics::Counter* coalesce_fused;
  metrics::Counter* coalesce_batches;
  metrics::Histogram* coalesce_wait_us;
  metrics::Counter* loop_iterations;
  metrics::Histogram* loop_ready_events;
  metrics::Gauge* pending_write_bytes;

  explicit ServeMetrics(metrics::Registry& reg) : registry(reg) {
    const std::vector<std::string> verbs = verb_names();
    requests.reserve(verbs.size());
    request_us.reserve(verbs.size());
    for (const std::string& verb : verbs) {
      const metrics::Labels labels{{"verb", verb}};
      requests.push_back(&reg.counter(
          "ambit_serve_requests_total",
          "Requests served, by verb (bumped after the response is written, "
          "so a METRICS page excludes the request serving it)",
          labels));
      request_us.push_back(&reg.histogram(
          "ambit_serve_request_us",
          "End-to-end request wall time in microseconds, by verb",
          metrics::Histogram::default_latency_bounds_us(), labels));
    }
    request_errors =
        &reg.counter("ambit_serve_request_errors_total",
                     "Requests answered with an ERR response");
    requests_malformed =
        &reg.counter("ambit_serve_malformed_requests_total",
                     "Request lines that failed to parse");
    for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
      phase_us[p] = &reg.histogram(
          "ambit_serve_phase_us",
          "Per-request phase time in microseconds; the phases are "
          "additive",
          metrics::Histogram::default_latency_bounds_us(),
          {{"phase", metrics::phase_name(static_cast<metrics::Phase>(p))}});
    }
    connections_active = &reg.gauge("ambit_serve_connections_active",
                                    "Connections currently being served");
    connections_accepted =
        &reg.counter("ambit_serve_connections_accepted_total",
                     "Connections accepted since server start");
    const std::string drop_help =
        "Connections the SERVER closed, by reason: idle (receive "
        "timeout), send (peer stopped reading), malformed (oversized "
        "line or an unframed/oversized bulk request)";
    dropped_idle = &reg.counter("ambit_serve_connections_dropped_total",
                                drop_help, {{"reason", "idle"}});
    dropped_send = &reg.counter("ambit_serve_connections_dropped_total",
                                drop_help, {{"reason", "send"}});
    dropped_malformed = &reg.counter("ambit_serve_connections_dropped_total",
                                     drop_help, {{"reason", "malformed"}});
    pool_workers = &reg.gauge("ambit_pool_workers",
                              "Worker threads in the session pool");
    pool_queue_depth =
        &reg.gauge("ambit_pool_queue_depth",
                   "Tasks (request jobs and sharded-sweep helpers) "
                   "waiting in the session pool queue, sampled at "
                   "scrape time");
    pool_busy = &reg.gauge("ambit_pool_busy_workers",
                           "Pool workers executing a task, sampled at "
                           "scrape time");
    coalesce_requests =
        &reg.counter("ambit_serve_coalesce_requests_total",
                     "Requests routed through the coalescing queue");
    coalesce_fused =
        &reg.counter("ambit_serve_coalesce_fused_total",
                     "Coalesced requests answered from a shared fused sweep");
    coalesce_batches =
        &reg.counter("ambit_serve_coalesce_batches_total",
                     "Fused sweeps run (groups of two or more requests)");
    coalesce_wait_us = &reg.histogram(
        "ambit_serve_coalesce_wait_us",
        "Microseconds a coalesced request was parked in the queue (the "
        "leader's follower-wait window, or a follower's wait for the "
        "fused result including the shared sweep)",
        metrics::Histogram::default_latency_bounds_us());
    loop_iterations =
        &reg.counter("ambit_serve_loop_iterations_total",
                     "Event-loop iterations (one epoll_wait return each; "
                     "io_model=epoll only)");
    loop_ready_events = &reg.histogram(
        "ambit_serve_loop_ready_events",
        "Descriptors ready per event-loop iteration — 0 means the "
        "50 ms housekeeping timeout fired with nothing to do",
        {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    pending_write_bytes = &reg.gauge(
        "ambit_serve_pending_write_bytes",
        "Response bytes queued in per-connection write-backpressure "
        "outboxes, not yet taken by the sockets (io_model=epoll only)");
  }
};

Server::Server(Session& session, ServerOptions options)
    : session_(session),
      options_(options),
      metrics_(std::make_unique<ServeMetrics>(options.registry != nullptr
                                                  ? *options.registry
                                                  : metrics::Registry::global())),
      coalescer_(session, options.coalesce, coalesce_instruments()) {}

Server::~Server() = default;

CoalesceInstruments Server::coalesce_instruments() const {
  if (!metrics_on()) {
    return {};
  }
  return CoalesceInstruments{
      .requests = metrics_->coalesce_requests,
      .fused = metrics_->coalesce_fused,
      .batches = metrics_->coalesce_batches,
      .wait_us = metrics_->coalesce_wait_us,
  };
}

std::string Server::metrics_page() {
  // The sampled gauges are refreshed at scrape time — they describe
  // "now", unlike the counters, which are exact cumulative history.
  ThreadPool& pool = session_.pool();
  metrics_->pool_workers->set(pool.num_workers());
  metrics_->pool_queue_depth->set(pool.queued_tasks());
  metrics_->pool_busy->set(pool.busy_workers());
  metrics_->connections_active->set(static_cast<std::int64_t>(
      connections_active_.load(std::memory_order_relaxed)));
  return metrics_->registry.prometheus_text();
}

std::string Server::handle_line(const std::string& line) {
  try {
    const Request request = parse_request(line);
    if (is_bulk_verb(request.verb)) {
      return err_response(
          (request.verb == Verb::kEvalB ? "EVALB" : "SIMB") +
          std::string(" carries a binary payload and needs a stream or "
                      "socket transport (use ") +
          (request.verb == Verb::kEvalB ? "EVAL" : "SIM") + " for text)");
    }
    return dispatch(request).response;
  } catch (const Error& e) {
    return err_response(e.what());
  } catch (const std::exception& e) {
    return err_response(std::string("internal: ") + e.what());
  }
}

namespace {

/// The shared EVAL/SIM front half: one registry handle, every hex
/// token decoded against ITS width. One lookup on purpose — the decode
/// and the evaluation must run against the same circuit even if a
/// same-name reload lands in between, so the caller evaluates the
/// returned circuit, never the name.
std::vector<std::vector<bool>> decode_request_patterns(
    const LoadedCircuit& circuit, const Request& request) {
  const int width = circuit.gnor.num_inputs();
  std::vector<std::vector<bool>> patterns;
  patterns.reserve(request.patterns.size());
  for (const std::string& token : request.patterns) {
    patterns.push_back(hex_decode(token, width));
  }
  return patterns;
}

}  // namespace

Server::Outcome Server::dispatch(const Request& request) {
  try {
    switch (request.verb) {
      case Verb::kLoad: {
        const std::shared_ptr<const LoadedCircuit> circuit =
            session_.load(request.name, request.path);
        return {ok_response(
            "loaded " + circuit->name + ": " +
            std::to_string(circuit->gnor.num_inputs()) + " inputs, " +
            std::to_string(circuit->gnor.num_outputs()) + " outputs, " +
            std::to_string(circuit->gnor.num_products()) + " products, " +
            std::to_string(circuit->gnor.cell_count()) + " cells, " +
            format_double(circuit->load_seconds * 1e3, 1) + " ms")};
      }
      case Verb::kEval: {
        const std::shared_ptr<const LoadedCircuit> circuit =
            session_.get(request.name);
        logic::PatternBatch inputs(0, 0);
        {
          const metrics::ScopedPhaseTimer timer(metrics::Phase::kParse);
          inputs = logic::PatternBatch::from_patterns(
              decode_request_patterns(*circuit, request));
        }
        const logic::PatternBatch outputs = coalesced_eval(circuit, inputs);
        const metrics::ScopedPhaseTimer timer(metrics::Phase::kSerialize);
        std::string detail;
        for (std::uint64_t p = 0; p < outputs.num_patterns(); ++p) {
          if (!detail.empty()) {
            detail += ' ';
          }
          detail += hex_encode(outputs.pattern(p));
        }
        return {ok_response(detail)};
      }
      case Verb::kSim: {
        const std::shared_ptr<const LoadedCircuit> circuit =
            session_.get(request.name);
        logic::PatternBatch inputs(0, 0);
        {
          const metrics::ScopedPhaseTimer timer(metrics::Phase::kParse);
          inputs = logic::PatternBatch::from_patterns(
              decode_request_patterns(*circuit, request));
        }
        simulate::BatchSimResult result(0, 0);
        {
          const metrics::ScopedPhaseTimer timer(metrics::Phase::kEvaluate);
          result = session_.sim(circuit, inputs);
        }
        check(result.all_definite(),
              request.name + ": simulation produced non-digital outputs");
        const metrics::ScopedPhaseTimer timer(metrics::Phase::kSerialize);
        std::string detail;
        for (std::uint64_t p = 0; p < result.num_patterns(); ++p) {
          if (!detail.empty()) {
            detail += ' ';
          }
          detail += sim_token(result.outputs.pattern(p),
                              result.precharge_delay_s[p],
                              result.plane1_eval_delay_s[p],
                              result.plane2_eval_delay_s[p]);
        }
        return {ok_response(detail)};
      }
      case Verb::kEvalB:
      case Verb::kSimB:
        // Handled by serve_line, which owns the payload exchange.
        return {err_response("bulk verb reached the text dispatcher")};
      case Verb::kVerify: {
        // One registry lookup, same reasoning as kEval: the verdict
        // and the reported pattern count must describe the SAME
        // circuit even if a concurrent unload/reload lands in between.
        const std::shared_ptr<const LoadedCircuit> circuit =
            session_.get(request.name);
        bool equivalent = false;
        {
          const metrics::ScopedPhaseTimer timer(metrics::Phase::kEvaluate);
          equivalent = session_.verify(circuit);
        }
        const int inputs = circuit->gnor.num_inputs();
        if (!equivalent) {
          return {err_response(request.name +
                               ": mapped array NOT equivalent to its source "
                               "cover")};
        }
        return {ok_response(
            "verified " + request.name + ": equivalent over " +
            std::to_string(std::uint64_t{1} << inputs) + " patterns")};
      }
      case Verb::kStats: {
        const SessionStats stats = session_.stats();
        std::string detail =
            "circuits=" + std::to_string(stats.circuits) +
            " loads=" + std::to_string(stats.loads) +
            " evals=" + std::to_string(stats.evals) +
            " patterns=" + std::to_string(stats.patterns) +
            " sims=" + std::to_string(stats.sims) +
            " sim_patterns=" + std::to_string(stats.sim_patterns) +
            " verifies=" + std::to_string(stats.verifies) +
            " workers=" + std::to_string(stats.workers);
        if (coalescer_.enabled()) {
          // Only when the feature is on: the trailing fields appear
          // exactly when the operator asked for coalescing, and their
          // absence keeps pre-coalescing STATS consumers byte-stable.
          const CoalesceStats fused = coalescer_.stats();
          detail += " coalesced_requests=" + std::to_string(fused.fused) +
                    " coalesced_batches=" + std::to_string(fused.batches);
        }
        // Appended LAST, after the optional coalescer fields: every
        // STATS consumer so far matches fields by name, and append-only
        // growth keeps any that slice by prefix byte-stable.
        detail +=
            " connections=" +
            std::to_string(connections_active_.load(std::memory_order_relaxed)) +
            "/" +
            std::to_string(
                connections_accepted_.load(std::memory_order_relaxed));
        return {ok_response(detail)};
      }
      case Verb::kMetrics:
        // The page is multi-line; only serve_line's transports can
        // frame it (OK METRICS <nbytes> + raw bytes). handle_line is
        // the one-line text path, so mirror the EVALB refusal.
        return {err_response(
            "METRICS carries a multi-line payload and needs a stream or "
            "socket transport")};
      case Verb::kUnload:
        session_.unload(request.name);
        return {ok_response("unloaded " + request.name)};
      case Verb::kHelp:
        return {ok_response(help_text())};
      case Verb::kQuit:
        return {ok_response("bye"), /*quit=*/true};
      case Verb::kShutdown:
        shutdown_.store(true);
        return {ok_response("shutting down"), /*quit=*/true};
    }
    return {err_response("unhandled verb")};  // unreachable
  } catch (const Error& e) {
    return {err_response(e.what())};
  } catch (const std::exception& e) {
    // Anything the request pipeline can throw beyond ambit::Error —
    // e.g. bad_alloc from a cover declaring absurd widths — is still a
    // request failure, not a reason to take the server down.
    return {err_response(std::string("internal: ") + e.what())};
  }
}

logic::PatternBatch Server::coalesced_eval(
    const std::shared_ptr<const LoadedCircuit>& circuit,
    const logic::PatternBatch& inputs) {
  if (coalescer_.enabled()) {
    // The coalescer attributes its own phases: evaluate at the actual
    // sweep sites, coalesce_wait for the parked time.
    return coalescer_.eval(circuit, inputs);
  }
  const metrics::ScopedPhaseTimer timer(metrics::Phase::kEvaluate);
  return session_.eval(circuit, inputs);
}

bool Server::serve_line(const std::string& line,
                        const PayloadReader& read_payload,
                        const ByteWriter& write_bytes, Outcome& outcome,
                        std::uint64_t conn_id) {
  if (!metrics_on()) {
    return serve_line_inner(line, read_payload, write_bytes, outcome, nullptr);
  }
  metrics::PhaseTrace trace;
  int verb_index = -1;
  const std::uint64_t start_us = metrics::monotonic_us();
  bool alive = false;
  {
    const metrics::TraceScope scope(&trace);
    alive =
        serve_line_inner(line, read_payload, write_bytes, outcome, &verb_index);
  }
  const std::uint64_t total_us = metrics::monotonic_us() - start_us;
  if (verb_index < 0) {
    metrics_->requests_malformed->add();
  } else {
    // Bumped AFTER the response went out: a scrape through the METRICS
    // verb reports the requests completed before it, never itself.
    metrics_->requests[static_cast<std::size_t>(verb_index)]->add();
    metrics_->request_us[static_cast<std::size_t>(verb_index)]->observe(
        total_us);
  }
  if (outcome.response.rfind("ERR", 0) == 0) {
    metrics_->request_errors->add();
  }
  for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
    if (trace.us[p] > 0) {
      metrics_->phase_us[p]->observe(trace.us[p]);
    }
  }
  if (options_.slow_request_us > 0 && total_us >= options_.slow_request_us) {
    logs::warn_rate_limited(
        slow_log_limiter_, "serve.slow_request",
        {{"conn", std::to_string(conn_id)},
         {"verb", verb_index >= 0
                      ? verb_names()[static_cast<std::size_t>(verb_index)]
                      : std::string("malformed")},
         {"total_us", std::to_string(total_us)},
         {"parse_us", std::to_string(trace.get(metrics::Phase::kParse))},
         {"coalesce_wait_us",
          std::to_string(trace.get(metrics::Phase::kCoalesceWait))},
         {"queue_wait_us",
          std::to_string(trace.get(metrics::Phase::kQueueWait))},
         {"evaluate_us", std::to_string(trace.get(metrics::Phase::kEvaluate))},
         {"serialize_us",
          std::to_string(trace.get(metrics::Phase::kSerialize))}});
  }
  return alive;
}

bool Server::serve_line_inner(const std::string& line,
                              const PayloadReader& read_payload,
                              const ByteWriter& write_bytes, Outcome& outcome,
                              int* verb_index_out) {
  outcome = Outcome{};
  if (verb_index_out != nullptr) {
    *verb_index_out = -1;
  }
  // Sends the response line set in `outcome`; false when the peer is
  // gone.
  const auto respond = [&] {
    const std::string text = outcome.response + "\n";
    return write_bytes(text.data(), text.size());
  };
  Request request;
  try {
    const metrics::ScopedPhaseTimer timer(metrics::Phase::kParse);
    request = parse_request(line);
  } catch (const Error& e) {
    outcome.response = err_response(e.what());
    // A malformed EVALB/SIMB header leaves an unknown number of payload
    // bytes unframed in the stream; resyncing is impossible, so the
    // connection must go. Only the exact bulk verbs qualify — a typo'd
    // verb like "EVALBATCH" is an ordinary one-line request.
    const std::vector<std::string> tokens = split_ws(line);
    if (!tokens.empty() && (tokens[0] == "EVALB" || tokens[0] == "SIMB")) {
      outcome.quit = true;
    }
    return respond();
  }
  if (verb_index_out != nullptr) {
    *verb_index_out = static_cast<int>(request.verb);
  }

  if (request.verb == Verb::kMetrics) {
    // The page is framed like a bulk response: a one-line header
    // announcing the byte count, then the raw exposition text — any
    // transport that can carry an EVALB payload can carry it.
    std::string page;
    {
      const metrics::ScopedPhaseTimer timer(metrics::Phase::kSerialize);
      page = metrics_page();
    }
    outcome.response = "OK METRICS " + std::to_string(page.size());
    if (!respond()) {
      return false;
    }
    return write_bytes(page.data(), page.size());
  }

  if (!is_bulk_verb(request.verb)) {
    outcome = dispatch(request);
    return respond();
  }

  // EVALB/SIMB: the length prefix is trusted BEFORE the name or the
  // pattern count, so the payload can always be consumed and the stream
  // stays framed even when the request itself fails.
  const char* verb = request.verb == Verb::kEvalB ? "EVALB" : "SIMB";
  if (request.num_words > kMaxEvalbWords) {
    outcome.response = err_response(
        std::string(verb) + " payload of " + std::to_string(request.num_words) +
        " words exceeds the " + std::to_string(kMaxEvalbWords) +
        "-word limit");
    outcome.quit = true;
    return respond();
  }
  std::vector<std::uint64_t> payload;
  try {
    payload.resize(request.num_words);
  } catch (const std::exception&) {
    // Under memory pressure even a within-limit payload buffer can
    // fail to allocate. The payload cannot be consumed, so the stream
    // is unframed and the connection must go — but the SERVER stays
    // up (a thrown bad_alloc would escape the connection thread and
    // call std::terminate).
    outcome.response = err_response(
        std::string(verb) + ": cannot allocate " +
        std::to_string(request.num_words) + "-word payload buffer");
    outcome.quit = true;
    return respond();
  }
  if (request.num_words > 0 &&
      !read_payload(reinterpret_cast<char*>(payload.data()),
                    payload.size() * sizeof(std::uint64_t))) {
    // EOF mid-payload: nothing sensible to answer.
    outcome.quit = true;
    return false;
  }
  std::vector<std::uint64_t> out_words;
  try {
    check(request.num_patterns > 0,
          std::string(verb) + " needs at least one pattern");
    // A pattern count near 2^64 would wrap the words-per-lane
    // computation to zero and sail through the framing checks; anything
    // above what the word limit can carry is hostile.
    check(request.num_patterns <= kMaxEvalbWords * 64,
          std::string(verb) + " pattern count " +
              std::to_string(request.num_patterns) + " exceeds the " +
              std::to_string(kMaxEvalbWords * 64) + "-pattern limit");
    // Simulated patterns cost three settles each, not one word-op per
    // 64: a SIMB within the byte framing limits could still pin the
    // pool for minutes, so its pattern count has its own cap.
    check(request.verb != Verb::kSimB ||
              request.num_patterns <= kMaxSimbPatterns,
          "SIMB pattern count " + std::to_string(request.num_patterns) +
              " exceeds the " + std::to_string(kMaxSimbPatterns) +
              "-pattern simulation limit");
    const std::shared_ptr<const LoadedCircuit> circuit =
        session_.get(request.name);
    const int width = circuit->gnor.num_inputs();
    const std::uint64_t words_per_lane = (request.num_patterns + 63) / 64;
    const std::uint64_t expected =
        static_cast<std::uint64_t>(width) * words_per_lane;
    check(request.num_words == expected,
          std::string(verb) + ": " + std::to_string(request.num_patterns) +
              " patterns over " + std::to_string(width) + " inputs need " +
              std::to_string(expected) + " words, header declares " +
              std::to_string(request.num_words));
    // The word limit must bound the RESPONSE too: a 1-input circuit
    // with many outputs would otherwise turn a within-limit payload
    // into an output batch far beyond it. A SIMB response additionally
    // carries the three per-pattern delay arrays.
    const std::uint64_t lane_words =
        static_cast<std::uint64_t>(circuit->gnor.num_outputs()) *
        words_per_lane;
    const std::uint64_t response_words =
        request.verb == Verb::kSimB ? lane_words + 3 * request.num_patterns
                                    : lane_words;
    check(response_words <= kMaxEvalbWords,
          std::string(verb) + ": response of " +
              std::to_string(response_words) + " words over " +
              std::to_string(circuit->gnor.num_outputs()) +
              " outputs exceeds the " + std::to_string(kMaxEvalbWords) +
              "-word limit");
    logic::PatternBatch inputs(width, request.num_patterns);
    {
      const metrics::ScopedPhaseTimer timer(metrics::Phase::kParse);
      inputs.load_words(payload.data(), payload.size());
    }
    // Evaluate the circuit the width check ran against — a concurrent
    // same-name reload must not swap it out between the two.
    if (request.verb == Verb::kEvalB) {
      const logic::PatternBatch outputs = coalesced_eval(circuit, inputs);
      const metrics::ScopedPhaseTimer timer(metrics::Phase::kSerialize);
      out_words.resize(outputs.total_words());
      outputs.store_words(out_words.data(), out_words.size());
      outcome.response =
          evalb_response_header(outputs.num_patterns(), out_words.size());
    } else {
      simulate::BatchSimResult result(0, 0);
      {
        const metrics::ScopedPhaseTimer timer(metrics::Phase::kEvaluate);
        result = session_.sim(circuit, inputs);
      }
      check(result.all_definite(),
            request.name + ": simulation produced non-digital outputs");
      const metrics::ScopedPhaseTimer timer(metrics::Phase::kSerialize);
      out_words.resize(response_words);
      result.outputs.store_words(out_words.data(), lane_words);
      // The delay arrays ride as raw doubles, one per 8-byte word —
      // same-endianness memcpy, like the lanes.
      const std::uint64_t np = request.num_patterns;
      std::memcpy(out_words.data() + lane_words,
                  result.precharge_delay_s.data(), np * sizeof(double));
      std::memcpy(out_words.data() + lane_words + np,
                  result.plane1_eval_delay_s.data(), np * sizeof(double));
      std::memcpy(out_words.data() + lane_words + 2 * np,
                  result.plane2_eval_delay_s.data(), np * sizeof(double));
      outcome.response = simb_response_header(np, out_words.size());
    }
  } catch (const Error& e) {
    outcome.response = err_response(e.what());
    out_words.clear();
  } catch (const std::exception& e) {
    outcome.response = err_response(std::string("internal: ") + e.what());
    out_words.clear();
  }
  const metrics::ScopedPhaseTimer timer(metrics::Phase::kSerialize);
  if (!respond()) {
    return false;
  }
  if (!out_words.empty() &&
      !write_bytes(reinterpret_cast<const char*>(out_words.data()),
                   out_words.size() * sizeof(std::uint64_t))) {
    return false;
  }
  return true;
}

std::uint64_t Server::serve_stream(std::istream& in, std::ostream& out) {
  std::uint64_t served = 0;
  bool quit = false;
  const PayloadReader read_payload = [&in](char* dst, std::size_t n) {
    in.read(dst, static_cast<std::streamsize>(n));
    return in.gcount() == static_cast<std::streamsize>(n);
  };
  const ByteWriter write_bytes = [&out](const char* data, std::size_t n) {
    out.write(data, static_cast<std::streamsize>(n));
    out.flush();
    return out.good();
  };
  // istream::getline into a bounded buffer, not std::getline: this
  // transport must enforce kMaxLineBytes too — a newline-free byte
  // stream must not grow a std::string until OOM. The buffer holds
  // kMaxLineBytes + 1 line bytes plus the terminator, so a line of
  // exactly kMaxLineBytes is accepted — the same boundary the socket
  // transport's `buffer.size() > kMaxLineBytes` check draws.
  std::vector<char> linebuf(kMaxLineBytes + 2);
  while (!quit) {
    in.getline(linebuf.data(), static_cast<std::streamsize>(linebuf.size()));
    if (in.bad()) {
      break;
    }
    if (in.fail() && !in.eof()) {
      // The buffer filled before any newline: answer once and stop —
      // the rest of the stream is an unframed continuation of this
      // over-long line.
      const std::string text =
          err_response("request line exceeds " +
                       std::to_string(kMaxLineBytes) + " bytes") +
          "\n";
      write_bytes(text.data(), text.size());
      break;
    }
    const std::string line(linebuf.data());
    if (line.empty() && in.eof()) {
      break;
    }
    if (!trim(line).empty()) {
      Outcome outcome;
      if (!serve_line(line, read_payload, write_bytes, outcome)) {
        break;
      }
      ++served;
      quit = outcome.quit;
    }
    if (in.eof()) {
      break;  // the final unterminated line was just served
    }
  }
  return served;
}

std::uint64_t Server::serve_chunks(
    const std::function<std::string()>& next_chunk, std::string& out) {
  std::uint64_t served = 0;
  ConnState state(ConnState::PayloadMode::kBuffered);
  const ByteWriter write_bytes = [&out](const char* data, std::size_t n) {
    out.append(data, n);
    return true;
  };
  const PayloadReader read_payload = [&state](char* dst, std::size_t n) {
    return state.read_payload(dst, n);
  };
  for (;;) {
    switch (state.advance()) {
      case ConnState::Step::kNeedInput: {
        const std::string chunk = next_chunk();
        if (chunk.empty()) {
          state.note_eof(/*clean=*/true);
        } else {
          state.append(chunk.data(), chunk.size());
        }
        break;
      }
      case ConnState::Step::kRequest: {
        Outcome outcome;
        const bool alive =
            serve_line(state.line(), read_payload, write_bytes, outcome);
        if (alive) {
          ++served;
        }
        state.finish_request(outcome.quit);
        if (!alive || outcome.quit) {
          return served;
        }
        break;
      }
      case ConnState::Step::kOversized:
        out += oversized_line_response();
        return served;
      case ConnState::Step::kClosed:
        return served;
    }
  }
}

void Server::note_connection_accepted() {
  if (metrics_on()) {
    metrics_->connections_accepted->add();
  }
}

void Server::note_connection_dropped(const char* reason,
                                     std::uint64_t conn_id,
                                     std::uint64_t served) {
  if (metrics_on()) {
    if (std::strcmp(reason, "idle") == 0) {
      metrics_->dropped_idle->add();
    } else if (std::strcmp(reason, "send") == 0) {
      metrics_->dropped_send->add();
    } else {
      metrics_->dropped_malformed->add();
    }
  }
  logs::warn("conn.drop", {{"conn", std::to_string(conn_id)},
                           {"reason", reason},
                           {"served", std::to_string(served)}});
}

void Server::note_loop_wakeup(std::size_t ready_events) {
  if (metrics_on()) {
    metrics_->loop_iterations->add();
    metrics_->loop_ready_events->observe(ready_events);
  }
}

void Server::note_pending_write_delta(std::int64_t delta) {
  if (metrics_on()) {
    metrics_->pending_write_bytes->add(delta);
  }
}

#ifndef _WIN32

namespace {

/// Writes all of `data` to `fd`, retrying on short writes. MSG_NOSIGNAL
/// keeps a peer that hung up from raising SIGPIPE; returns false when
/// the peer is gone (any non-EINTR failure), which the caller treats as
/// a dropped connection — never as a server-fatal error.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// One std::thread per live connection, with three jobs: cap the number
/// of simultaneously served connections (launch blocks until a slot
/// frees), reap finished threads opportunistically so a long-running
/// server never accumulates dead thread handles, and cut the pending
/// reads of every live connection on shutdown so the drain is bounded.
/// Connection fds leave the live set BEFORE they are closed, so
/// shutdown_inputs can never touch a recycled descriptor.
class ConnectionRegistry {
 public:
  /// `abort` interrupts the slot wait in launch: when it goes true
  /// (SHUTDOWN handled on an already-running connection), a blocked
  /// accept loop must stop waiting for a slot instead of serving one
  /// more connection.
  ConnectionRegistry(int max_active, const std::atomic<bool>& abort)
      : max_active_(max_active < 1 ? 1 : max_active), abort_(abort) {}

  /// Blocks until fewer than max_active connections are live, then runs
  /// `body` on its own thread and returns true; the registry closes
  /// `fd` when the body returns. Returns false — fd untouched — when
  /// the abort flag went true while waiting.
  bool launch(int fd, std::function<void()> body) {
    MutexLock lock(mutex_);
    while (active_ >= max_active_ && !abort_.load()) {
      slot_free_.wait(lock);
    }
    if (abort_.load()) {
      return false;
    }
    reap_locked();
    const std::uint64_t id = next_id_++;
    // Every allocation happens BEFORE the thread exists (the map nodes
    // below) and nothing that can throw happens AFTER it: if thread
    // creation fails (RLIMIT_NPROC exhaustion), the pre-inserted state
    // is rolled back under this same lock and launch propagates with
    // the registry unchanged — a joinable std::thread is never left
    // for a destructor (std::terminate) and the fd stays owned by the
    // caller. The new thread cannot race the bookkeeping: its tail
    // needs mutex_, which this call still holds.
    const auto slot = threads_.emplace(id, std::thread()).first;
    try {
      live_fds_[id] = fd;
      slot->second = std::thread([this, id, fd, body = std::move(body)] {
        body();
        {
          const MutexLock inner(mutex_);
          live_fds_.erase(id);
          finished_.push_back(id);
          --active_;
        }
        slot_free_.notify_one();
        ::close(fd);
      });
    } catch (...) {
      threads_.erase(slot);
      live_fds_.erase(id);
      throw;
    }
    ++active_;
    return true;
  }

  /// SHUT_RD on every live connection: blocked reads return EOF, so
  /// each connection finishes its current request, flushes, and exits.
  /// Responses still in flight are unaffected (the write side stays
  /// open until the connection thread is done).
  void shutdown_inputs() {
    const MutexLock lock(mutex_);
    for (const auto& [id, fd] : live_fds_) {
      ::shutdown(fd, SHUT_RD);
    }
  }

  /// Joins every connection thread (the SHUTDOWN drain). Must not race
  /// launch — the accept loop has exited by the time this runs.
  void join_all() {
    std::map<std::uint64_t, std::thread> grab;
    {
      const MutexLock lock(mutex_);
      grab.swap(threads_);
      finished_.clear();
    }
    for (auto& [id, thread] : grab) {
      thread.join();
    }
  }

 private:
  void reap_locked() AMBIT_REQUIRES(mutex_) {
    for (const std::uint64_t id : finished_) {
      const auto it = threads_.find(id);
      if (it != threads_.end()) {
        it->second.join();
        threads_.erase(it);
      }
    }
    finished_.clear();
  }

  const int max_active_;
  const std::atomic<bool>& abort_;
  Mutex mutex_{LockRank::kConnectionRegistry};
  CondVar slot_free_;
  int active_ AMBIT_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_id_ AMBIT_GUARDED_BY(mutex_) = 0;
  std::map<std::uint64_t, int> live_fds_ AMBIT_GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::thread> threads_ AMBIT_GUARDED_BY(mutex_);
  std::vector<std::uint64_t> finished_ AMBIT_GUARDED_BY(mutex_);
};

/// True when a listener may still be accepting behind `socket_path` —
/// the probe that keeps serve_unix from silently stealing a live
/// server's socket. Only two outcomes prove the path is SAFE to
/// replace: ECONNREFUSED (a socket file with nobody behind it — a
/// stale crash leftover) and ENOENT (no file at all). Everything else
/// — a successful connect, but also EAGAIN from a listener whose
/// backlog is momentarily full — is treated as live: when in doubt,
/// refuse to unlink.
bool socket_is_live(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) {
    return false;  // cannot probe; let bind() report the real problem
  }
  const bool connected =
      ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0;
  const int reason = errno;
  ::close(probe);
  if (connected) {
    return true;
  }
  return reason != ECONNREFUSED && reason != ENOENT;
}

}  // namespace

std::uint64_t Server::serve_connection(int conn, std::uint64_t conn_id) {
  std::uint64_t served = 0;
  std::string buffer;
  char chunk[4096];
  bool eof = false;
  // True only for a real peer close (read() == 0) — an SO_RCVTIMEO
  // idle timeout also ends the connection, but any truncated partial
  // line it leaves behind must NOT be served as a request: the client
  // is slow, not done, and executing half its line would desync the
  // request/response pairing if it ever resumed.
  bool clean_eof = false;
  // The SO_RCVTIMEO expiry specifically — the one read failure that is
  // a server-side policy drop (counted as reason=idle) rather than the
  // peer going away.
  bool timed_out = false;
  // Set when an EVALB/SIMB payload read hit EOF — distinguishes "the
  // frame was truncated" (reason=malformed) from "the peer stopped
  // reading its response" (reason=send) when serve_line returns false.
  bool payload_eof = false;
  // Why the SERVER closed this connection; nullptr for peer-initiated
  // ends (QUIT, clean close, reset), which are not drops.
  const char* drop_reason = nullptr;

  // Appends the next chunk from the socket; false on EOF, timeout or
  // error.
  const auto read_more = [&]() -> bool {
    for (;;) {
      const ssize_t n = ::read(conn, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        eof = true;
        timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        // read()==0 is a clean close only when the PEER closed; the
        // SHUTDOWN drain's shutdown(SHUT_RD) also yields 0 while the
        // peer may be mid-send, so under shutdown a residual partial
        // line is still treated as truncated, never served.
        clean_eof = (n == 0) && !shutdown_.load();
        return false;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  };
  // EVALB payloads take whatever is already in the line buffer
  // (pipelined clients may have sent payload bytes along with the
  // header), then read the remainder from the socket STRAIGHT into the
  // destination — a 128 MiB frame must not be staged through the line
  // buffer a second time.
  const PayloadReader read_payload = [&](char* dst, std::size_t n) {
    const std::size_t buffered = buffer.size() < n ? buffer.size() : n;
    std::memcpy(dst, buffer.data(), buffered);
    buffer.erase(0, buffered);
    std::size_t done = buffered;
    while (done < n) {
      const ssize_t got = ::read(conn, dst + done, n - done);
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        eof = true;
        payload_eof = true;
        return false;
      }
      done += static_cast<std::size_t>(got);
    }
    return true;
  };
  const ByteWriter write_bytes = [&](const char* data, std::size_t n) {
    return write_all(conn, data, n);
  };

  bool quit = false;
  while (!quit && !eof) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      if (buffer.size() > kMaxLineBytes) {
        // A newline-free byte stream must not grow the buffer without
        // bound; answer once and drop the connection.
        const std::string text =
            err_response("request line exceeds " +
                         std::to_string(kMaxLineBytes) + " bytes") +
            "\n";
        write_all(conn, text.data(), text.size());
        drop_reason = "malformed";
        break;
      }
      if (read_more()) {
        continue;
      }
      if (timed_out) {
        drop_reason = "idle";
      }
      // CLEAN EOF with a residual unterminated line: the peer sent a
      // final request and closed without the trailing newline. Serve it
      // like any other line instead of silently dropping it. (After an
      // idle TIMEOUT the residual is a truncated line from a stalled
      // peer and is dropped, see clean_eof above.) The line is MOVED
      // out of the buffer first so a residual EVALB header can't
      // re-read its own text as payload — its payload read hits the
      // (empty) buffer, then EOF, and fails cleanly.
      if (clean_eof && !trim(buffer).empty()) {
        const std::string line = buffer;
        buffer.clear();
        Outcome outcome;
        if (serve_line(line, read_payload, write_bytes, outcome, conn_id)) {
          ++served;
        }
      }
      break;
    }
    if (newline > kMaxLineBytes) {
      // A complete line can still exceed the cap when its newline
      // arrived in the same read chunk; the boundary must match the
      // no-newline path (and the stream transport) exactly.
      const std::string text =
          err_response("request line exceeds " +
                       std::to_string(kMaxLineBytes) + " bytes") +
          "\n";
      write_all(conn, text.data(), text.size());
      drop_reason = "malformed";
      break;
    }
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (trim(line).empty()) {
      continue;
    }
    Outcome outcome;
    if (!serve_line(line, read_payload, write_bytes, outcome, conn_id)) {
      // A truncated bulk frame is the peer's protocol error; a failed
      // response write means the peer stopped reading (SO_SNDTIMEO or
      // a hard reset mid-response).
      drop_reason = payload_eof ? "malformed" : "send";
      break;
    }
    ++served;
    quit = outcome.quit;
    if (quit && outcome.response.rfind("ERR", 0) == 0) {
      // A server-initiated close with an ERR response: an unframed or
      // over-limit bulk request (see serve_line_inner). QUIT/SHUTDOWN
      // answer OK and are peer-initiated, not drops.
      drop_reason = "malformed";
    }
    // Post-QUIT/SHUTDOWN drain policy: complete lines still sitting in
    // this connection's buffer are deliberately DISCARDED, never
    // half-processed — the quit response is the last thing the peer
    // gets, and pipelining past QUIT is a client bug.
  }
  if (drop_reason != nullptr) {
    note_connection_dropped(drop_reason, conn_id, served);
  }
  return served;
}

std::uint64_t Server::serve_listener(int listener, const std::string& what,
                                     const std::function<void()>& cleanup) {
  shutdown_.store(false);
  const IoModel model = resolve_io_model(options_.io_model);
#ifdef __linux__
  if (model == IoModel::kEpoll) {
    return serve_event_loop(*this, listener, what, cleanup);
  }
#else
  (void)model;  // resolve_io_model already clamped to kThreads
#endif
  return serve_listener_threads(listener, what, cleanup);
}

std::uint64_t Server::serve_listener_threads(
    int listener, const std::string& what,
    const std::function<void()>& cleanup) {
  std::atomic<std::uint64_t> served{0};
  ConnectionRegistry registry(options_.max_connections, shutdown_);

  // Self-pipe SHUTDOWN wakeup: the verb is handled on a CONNECTION
  // thread, while the accept loop sits in poll() or in the registry's
  // slot wait. The handling connection's exit already wakes the slot
  // wait (its slot frees); this pipe wakes the poll, so SHUTDOWN stops
  // the accept loop in one scheduler hop instead of up to a full poll
  // timeout — under continuous connect pressure, that poll timeout
  // never fires at all, and without the pipe the loop would keep
  // accepting as long as clients kept arriving.
  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener);
    cleanup();
    throw Error(what + ": cannot create shutdown pipe: " + reason);
  }

  // Every exit from the accept loop — SHUTDOWN or a socket-level
  // failure — must drain the in-flight connection threads before the
  // registry leaves scope: destroying a joinable std::thread calls
  // std::terminate, which would turn a catchable accept error (e.g.
  // EMFILE under fd exhaustion) into a process abort. The pipe's write
  // end outlives the drain: the connection threads being joined may
  // still write their shutdown byte.
  const auto drain_and_cleanup = [&] {
    registry.shutdown_inputs();
    registry.join_all();
    ::close(wake[0]);
    ::close(wake[1]);
    ::close(listener);
    cleanup();
  };

  while (!shutdown_.load()) {
    // Poll with a timeout as a belt-and-suspenders backstop for the
    // pipe (a SHUTDOWN whose wake byte was somehow lost still stops
    // the loop at the next timeout).
    pollfd pfds[2] = {{listener, POLLIN, 0}, {wake[0], POLLIN, 0}};
    const int ready = ::poll(pfds, 2, /*timeout_ms=*/50);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      const std::string reason = std::strerror(errno);
      drain_and_cleanup();
      throw Error(what + ": poll failed: " + reason);
    }
    if (ready == 0 || (pfds[1].revents & POLLIN) != 0 ||
        (pfds[0].revents & POLLIN) == 0) {
      continue;  // timeout or shutdown wakeup: re-check the latch
    }
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      const std::string reason = std::strerror(errno);
      drain_and_cleanup();
      throw Error(what + ": accept failed: " + reason);
    }
    // A peer that stops READING while the server owes it a big
    // response would otherwise block ::send forever — past SHUT_RD,
    // beyond the reach of shutdown_inputs — and make the SHUTDOWN
    // drain unbounded. The send timeout turns that stall into a
    // dropped connection.
    if (options_.send_timeout_secs > 0) {
      const timeval send_timeout{options_.send_timeout_secs, 0};
      ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                   sizeof(send_timeout));
    }
    // A silent peer must not pin its slot forever: the receive timeout
    // turns an idle connection into an EOF drop (which is also what
    // keeps a slot-saturated server reachable for SHUTDOWN).
    if (options_.idle_timeout_secs > 0) {
      const timeval recv_timeout{options_.idle_timeout_secs, 0};
      ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
                   sizeof(recv_timeout));
    }
    // Request lines are tens of bytes; Nagle batching them behind a
    // 40 ms delayed ACK would dwarf every latency in the server. No-op
    // (EOPNOTSUPP) on a Unix-domain connection — deliberately ignored.
    const int nodelay = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    // The accept-order id doubles as the conn=<n> key in every log line
    // about this connection. The atomic (not a metrics counter) feeds
    // STATS, which must stay exact even with metrics compiled out.
    const std::uint64_t conn_id =
        connections_accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
    note_connection_accepted();
    logs::debug("conn.accept",
                {{"conn", std::to_string(conn_id)}, {"transport", what}});
    try {
      const int wake_w = wake[1];
      const bool launched =
          registry.launch(conn, [this, conn, conn_id, wake_w, &served] {
            connections_active_.fetch_add(1, std::memory_order_relaxed);
            std::uint64_t on_conn = 0;
            try {
              on_conn = serve_connection(conn, conn_id);
              served.fetch_add(on_conn, std::memory_order_relaxed);
            } catch (...) {
              // Whatever a connection manages to throw past
              // serve_line's guards (e.g. bad_alloc building a
              // response string), it costs that one connection — never
              // the process, which is what an exception escaping a
              // thread body would do.
            }
            connections_active_.fetch_sub(1, std::memory_order_relaxed);
            logs::debug("conn.close", {{"conn", std::to_string(conn_id)},
                                       {"served", std::to_string(on_conn)}});
            if (shutdown_.load()) {
              // This connection handled (or raced with) SHUTDOWN: kick
              // the accept loop's poll awake. One byte per exiting
              // connection cannot fill the pipe before the loop drains
              // it by closing the read end.
              const char byte = 1;
              (void)!::write(wake_w, &byte, 1);
            }
          });
      if (!launched) {
        // SHUTDOWN arrived while this accept waited for a slot.
        ::close(conn);
        break;
      }
    } catch (const std::exception& e) {
      // Thread creation failed (e.g. process thread limit): this is a
      // server-fatal condition, but it must surface as a catchable
      // Error after a proper drain — never as std::terminate from a
      // registry destroyed with joinable threads.
      ::close(conn);
      drain_and_cleanup();
      throw Error(what + ": cannot spawn connection thread: " + e.what());
    }
  }

  // Graceful drain: no new accepts, pending reads cut, every in-flight
  // connection finishes its current request and is joined before the
  // listener (and, for serve_unix, the socket file) disappears.
  drain_and_cleanup();
  return served.load();
}

std::uint64_t Server::serve_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  check(socket_path.size() < sizeof(addr.sun_path),
        "serve_unix: socket path too long: " + socket_path);
  if (socket_is_live(socket_path)) {
    throw Error("serve_unix: another server is already accepting on " +
                socket_path + " (shut it down first)");
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  check(listener >= 0, "serve_unix: cannot create socket");
  // Only a STALE socket file (probe above found no listener) is
  // replaced.
  ::unlink(socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, kListenBacklog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener);
    throw Error("serve_unix: cannot bind " + socket_path + ": " + reason);
  }
  return serve_listener(listener, "serve_unix", [socket_path] {
    ::unlink(socket_path.c_str());
  });
}

int bind_tcp_listener(const std::string& host, int port,
                      const std::string& what, int* bound_port_out) {
  check(port >= 0 && port <= 65535,
        what + ": port " + std::to_string(port) + " out of range");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  // inet_pton keeps the dependency surface tiny (no resolver); the one
  // name everyone types is special-cased.
  const std::string node = host == "localhost" ? "127.0.0.1" : host;
  check(::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) == 1,
        what + ": cannot parse host '" + host +
            "' (use an IPv4 address or localhost)");
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  check(listener >= 0, what + ": cannot create socket");
  // There is no stale FILE to replace (unlike a Unix socket), but a
  // just-restarted server must not wait out TIME_WAIT on its own
  // previous address.
  const int reuse = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, kListenBacklog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener);
    throw Error(what + ": cannot bind " + host + ":" + std::to_string(port) +
                ": " + reason);
  }
  if (bound_port_out != nullptr) {
    // Port 0 asked the kernel for an ephemeral port; report the real
    // one so the caller can announce or connect to it.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      const std::string reason = std::strerror(errno);
      ::close(listener);
      throw Error(what + ": getsockname failed: " + reason);
    }
    *bound_port_out = static_cast<int>(ntohs(bound.sin_port));
  }
  return listener;
}

std::uint64_t Server::serve_tcp(const std::string& host, int port,
                                std::atomic<int>* bound_port) {
  int actual_port = 0;
  const int listener = bind_tcp_listener(
      host, port, "serve_tcp", bound_port != nullptr ? &actual_port : nullptr);
  if (bound_port != nullptr) {
    // Release-store BEFORE the first accept: a caller running serve_tcp
    // on its own thread spins on this atomic, then connects.
    bound_port->store(actual_port, std::memory_order_release);
  }
  return serve_listener(listener, "serve_tcp", [] {});
}

#else  // _WIN32

std::uint64_t Server::serve_unix(const std::string&) {
  throw Error("serve_unix: Unix-domain sockets unavailable on this platform");
}

std::uint64_t Server::serve_tcp(const std::string&, int, std::atomic<int>*) {
  throw Error("serve_tcp: socket transports unavailable on this platform");
}

#endif

}  // namespace ambit::serve
