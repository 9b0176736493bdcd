#include "serve/server.h"

#include <array>
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
#include "util/strings.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
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
                     "Event-loop iterations (one epoll_wait return each)");
    loop_ready_events = &reg.histogram(
        "ambit_serve_loop_ready_events",
        "Descriptors ready per event-loop iteration — 0 means the "
        "50 ms housekeeping timeout fired, or a zero-timeout poll made "
        "while pipelined requests wait their turn found nothing new",
        {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    pending_write_bytes = &reg.gauge(
        "ambit_serve_pending_write_bytes",
        "Response bytes queued in per-connection write-backpressure "
        "outboxes, not yet taken by the sockets");
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

bool Server::serve_line(const std::string& line, std::string_view payload,
                        std::string& out, Outcome& outcome,
                        std::uint64_t conn_id, std::uint64_t queued_at_us) {
  if (!metrics_on()) {
    return serve_line_inner(line, payload, out, outcome, nullptr);
  }
  metrics::PhaseTrace trace;
  int verb_index = -1;
  const std::uint64_t start_us = metrics::monotonic_us();
  // A request that waited in the pool queue counts that wait as its
  // first phase, so the phases still add up to total_us.
  const std::uint64_t arrived_us = queued_at_us != 0 ? queued_at_us : start_us;
  trace.add(metrics::Phase::kQueueWait, start_us - arrived_us);
  bool complete = false;
  {
    const metrics::TraceScope scope(&trace);
    complete = serve_line_inner(line, payload, out, outcome, &verb_index);
  }
  const std::uint64_t total_us = metrics::monotonic_us() - arrived_us;
  if (verb_index < 0) {
    metrics_->requests_malformed->add();
  } else {
    // Bumped AFTER the response is built: a scrape through the METRICS
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
  return complete;
}

bool Server::serve_line_inner(const std::string& line,
                              std::string_view payload, std::string& out,
                              Outcome& outcome, int* verb_index_out) {
  outcome = Outcome{};
  if (verb_index_out != nullptr) {
    *verb_index_out = -1;
  }
  // Appends the response line set in `outcome`.
  const auto respond = [&] {
    out += outcome.response;
    out += '\n';
    return true;
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
    respond();
    out += page;
    return true;
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
  std::vector<std::uint64_t> words;
  try {
    words.resize(request.num_words);
  } catch (const std::exception&) {
    // Under memory pressure even a within-limit payload buffer can
    // fail to allocate. The request cannot be served, so the
    // connection must go — but the SERVER stays up.
    outcome.response = err_response(
        std::string(verb) + ": cannot allocate " +
        std::to_string(request.num_words) + "-word payload buffer");
    outcome.quit = true;
    return respond();
  }
  const std::size_t payload_bytes = words.size() * sizeof(std::uint64_t);
  if (payload.size() < payload_bytes) {
    // EOF mid-payload: nothing sensible to answer.
    outcome.quit = true;
    return false;
  }
  if (payload_bytes > 0) {
    std::memcpy(words.data(), payload.data(), payload_bytes);
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
      inputs.load_words(words.data(), words.size());
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
  respond();
  if (!out_words.empty()) {
    out.append(reinterpret_cast<const char*>(out_words.data()),
               out_words.size() * sizeof(std::uint64_t));
  }
  return true;
}

template <typename Feed, typename Emit>
std::uint64_t Server::serve_framed(Feed&& feed, Emit&& emit) {
  ConnState state;
  std::uint64_t served = 0;
  std::string response;
  for (;;) {
    switch (state.advance()) {
      case ConnState::Step::kNeedInput:
        feed(state);
        break;
      case ConnState::Step::kRequest: {
        Outcome outcome;
        response.clear();
        const bool complete = serve_line(
            state.line(), state.request_payload(), response, outcome);
        state.finish_request(outcome.quit);
        if (!complete || !emit(response)) {
          return served;
        }
        ++served;
        if (outcome.quit) {
          return served;
        }
        break;
      }
      case ConnState::Step::kOversized:
        emit(oversized_line_response());
        return served;
      case ConnState::Step::kClosed:
        return served;
    }
  }
}

namespace {

/// Bytes one serve_stream line read may take: a line longer than this
/// arrives in several reads and ConnState reassembles it.
constexpr std::size_t kStreamLineBytes = 65536;

/// Reads from `in` up to and including the next '\n', at most
/// `size` - 1 bytes, into `buf`; returns the byte count (0 at EOF).
std::size_t read_line_piece(std::istream& in, char* buf, std::size_t size) {
  in.getline(buf, static_cast<std::streamsize>(size));
  const auto n = static_cast<std::size_t>(in.gcount());
  if (in.fail() && !in.eof() && !in.bad()) {
    in.clear();  // the buffer filled before the '\n': more to come
  } else if (!in.eof() && n > 0) {
    buf[n - 1] = '\n';  // getline consumed the '\n' but stored a NUL
  }
  return n;
}

}  // namespace

std::uint64_t Server::serve_stream(std::istream& in, std::ostream& out) {
  // Each read stops at the end of the current frame: a line at its
  // '\n', a payload at the bytes ConnState still lacks. A peer that
  // waits for each response before sending its next request has sent
  // nothing past the frame, so reading further would block on input
  // that only follows the response.
  char line[kStreamLineBytes];
  return serve_framed(
      [&](ConnState& state) {
        const std::size_t missing = state.missing_payload_bytes();
        std::size_t got = 0;
        if (missing > 0) {
          got = state.append_from(missing, [&](char* dst, std::size_t n) {
            in.read(dst, static_cast<std::streamsize>(n));
            return static_cast<std::size_t>(in.gcount());
          });
        } else {
          got = read_line_piece(in, line, sizeof(line));
          state.append(line, got);
        }
        if (got == 0) {
          state.note_eof(/*clean=*/!in.bad());
        }
      },
      [&](const std::string& bytes) {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.flush();
        return out.good();
      });
}

std::uint64_t Server::serve_chunks(
    const std::function<std::string()>& next_chunk, std::string& out) {
  return serve_framed(
      [&](ConnState& state) {
        const std::string chunk = next_chunk();
        if (chunk.empty()) {
          state.note_eof(/*clean=*/true);
        } else {
          state.append(chunk.data(), chunk.size());
        }
      },
      [&](const std::string& bytes) {
        out += bytes;
        return true;
      });
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

#endif  // !_WIN32

#ifdef __linux__

namespace {

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
  return serve_event_loop(*this, listener, "serve_unix", [socket_path] {
    ::unlink(socket_path.c_str());
  });
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
  return serve_event_loop(*this, listener, "serve_tcp", [] {});
}

#else  // !__linux__: the event loop needs epoll

std::uint64_t Server::serve_unix(const std::string&) {
  throw Error("serve_unix: socket transports need Linux (epoll)");
}

std::uint64_t Server::serve_tcp(const std::string&, int, std::atomic<int>*) {
  throw Error("serve_tcp: socket transports need Linux (epoll)");
}

#endif  // __linux__

}  // namespace ambit::serve
