#include "serve/server.h"

#include <array>
#include <cstring>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>
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
  std::unique_ptr<metrics::Registry> owned;  // when ServerOptions has none
  metrics::Registry& registry;
  // What STATS reports, counted whatever enable_metrics says.
  metrics::Counter* loads;
  metrics::Counter* evals;
  metrics::Counter* patterns;
  metrics::Counter* sims;
  metrics::Counter* sim_patterns;
  metrics::Counter* verifies;
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
  metrics::Counter* fused_requests;
  metrics::Counter* fused_sweeps;
  metrics::Counter* loop_iterations;
  metrics::Histogram* loop_ready_events;
  metrics::Gauge* pending_write_bytes;

  explicit ServeMetrics(metrics::Registry* given)
      : owned(given == nullptr ? std::make_unique<metrics::Registry>()
                               : nullptr),
        registry(given != nullptr ? *given : *owned) {
    metrics::Registry& reg = registry;
    loads = &reg.counter("ambit_serve_loads_total",
                         "Circuits loaded by LOAD or --preload (STATS loads)");
    evals = &reg.counter("ambit_serve_evals_total",
                         "EVAL/EVALB requests evaluated (STATS evals)");
    patterns =
        &reg.counter("ambit_serve_patterns_total",
                     "Patterns evaluated by EVAL/EVALB (STATS patterns)");
    sims = &reg.counter("ambit_serve_sims_total",
                        "SIM/SIMB requests simulated (STATS sims)");
    sim_patterns =
        &reg.counter("ambit_serve_sim_patterns_total",
                     "Patterns simulated by SIM/SIMB (STATS sim_patterns)");
    verifies = &reg.counter("ambit_serve_verifies_total",
                            "VERIFY sweeps run (STATS verifies)");
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
          "End-to-end request wall time in microseconds, by verb", labels));
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
          {{"phase", metrics::phase_name(static_cast<metrics::Phase>(p))}});
    }
    connections_active =
        &reg.gauge("ambit_serve_connections_active",
                   "Connections currently being served (STATS connections, "
                   "before the slash)");
    connections_accepted =
        &reg.counter("ambit_serve_connections_accepted_total",
                     "Connections accepted since server start (STATS "
                     "connections, after the slash)");
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
    // The names predate per-turn fusion; dashboards and perfbench's
    // srv.* counters read them.
    fused_requests = &reg.counter(
        "ambit_serve_coalesce_fused_total",
        "EVAL/EVALB requests answered from a sweep shared with other "
        "requests for the same circuit in the same event-loop turn");
    fused_sweeps = &reg.counter(
        "ambit_serve_coalesce_batches_total",
        "Shared sweeps run (two or more requests each)");
    loop_iterations =
        &reg.counter("ambit_serve_loop_iterations_total",
                     "Event-loop iterations (one epoll_wait return each)");
    loop_ready_events = &reg.histogram(
        "ambit_serve_loop_ready_events",
        "Descriptors ready per event-loop iteration — 0 means the "
        "50 ms housekeeping timeout fired, or a zero-timeout poll made "
        "while pipelined requests wait their turn found nothing new");
    pending_write_bytes = &reg.gauge(
        "ambit_serve_pending_write_bytes",
        "Response bytes queued in per-connection write-backpressure "
        "outboxes, not yet taken by the sockets");
  }
};

Server::Server(Session& session, ServerOptions options)
    : session_(session),
      options_(options),
      metrics_(std::make_unique<ServeMetrics>(options.registry)) {}

Server::~Server() = default;

std::string Server::metrics_page() {
  // The pool gauges are sampled at scrape time — they describe "now",
  // unlike the counters, which are exact cumulative history.
  ThreadPool& pool = session_.pool();
  metrics_->pool_workers->set(pool.num_workers());
  metrics_->pool_queue_depth->set(pool.queued_tasks());
  metrics_->pool_busy->set(pool.busy_workers());
  return metrics_->registry.prometheus_text();
}

std::shared_ptr<const LoadedCircuit> Server::load(const std::string& name,
                                                  const std::string& path) {
  std::shared_ptr<const LoadedCircuit> circuit = session_.load(name, path);
  metrics_->loads->add();
  return circuit;
}

logic::PatternBatch Server::eval(
    const std::shared_ptr<const LoadedCircuit>& circuit,
    const logic::PatternBatch& inputs, std::uint64_t requests) {
  logic::PatternBatch outputs = session_.eval(circuit, inputs);
  metrics_->evals->add(requests);
  metrics_->patterns->add(inputs.num_patterns());
  return outputs;
}

simulate::BatchSimResult Server::sim(
    const std::shared_ptr<const LoadedCircuit>& circuit,
    const logic::PatternBatch& inputs) {
  simulate::BatchSimResult result = session_.sim(circuit, inputs);
  metrics_->sims->add();
  metrics_->sim_patterns->add(inputs.num_patterns());
  return result;
}

namespace {

/// The ERR line for a failed request: an ambit::Error's own text, any
/// other exception (bad_alloc from a cover declaring absurd widths, say)
/// as "internal: ..." — a request failure, never a reason to take the
/// server down.
std::string error_response(const std::exception& e) {
  return dynamic_cast<const Error*>(&e) != nullptr
             ? err_response(e.what())
             : err_response(std::string("internal: ") + e.what());
}

/// Appends one response line and, for a bulk answer, moves its lanes in
/// (a response carries at most one lane buffer).
void respond(Response& out, const std::string& response,
             logic::LaneWords lanes = {}) {
  out.text += response;
  out.text += '\n';
  out.lanes = std::move(lanes);
}

/// The shared EVAL/SIM front half: every hex token of r's line, read
/// from where its head says they start, decoded against the width of
/// the circuit the caller looked up once. One lookup on purpose — the
/// decode and the evaluation must run against the same circuit even if
/// a same-name reload lands in between, so the caller evaluates that
/// circuit, never the name.
logic::PatternBatch decode_request_patterns(const LoadedCircuit& circuit,
                                            const FramedRequest& r) {
  const int width = circuit.gnor.num_inputs();
  std::vector<std::vector<bool>> patterns;
  std::string_view rest = std::string_view(r.line).substr(r.head.patterns_at);
  for (std::string_view token = next_token(rest); !token.empty();
       token = next_token(rest)) {
    patterns.push_back(hex_decode(token, width));
  }
  return logic::PatternBatch::from_patterns(patterns);
}

/// The phase a request's answer step is charged to: decoding for the
/// verbs serve_batch evaluates, the exhaustive sweep for VERIFY,
/// rendering the page for METRICS, none for the other verbs and for a
/// line that does not parse. A request answered with its ERR in that
/// step is charged the same way.
std::optional<metrics::Phase> answer_phase(const FramedRequest& r) {
  if (!r.parsed()) {
    return std::nullopt;
  }
  switch (r.head.verb) {
    case Verb::kEval:
    case Verb::kEvalB:
    case Verb::kSim:
    case Verb::kSimB:
      return metrics::Phase::kParse;
    case Verb::kVerify:
      return metrics::Phase::kEvaluate;
    case Verb::kMetrics:
      return metrics::Phase::kSerialize;
    default:
      return std::nullopt;
  }
}

}  // namespace

std::string Server::handle_line(const std::string& line) {
  FramedRequest r = frame_request(line);
  if (r.verb == Verb::kEvalB || r.verb == Verb::kSimB) {
    const bool evalb = r.verb == Verb::kEvalB;
    return err_response(std::string(evalb ? "EVALB" : "SIMB") +
                        " carries a binary payload and needs a stream or "
                        "socket transport (use " +
                        (evalb ? "EVAL" : "SIM") + " for text)");
  }
  if (r.verb == Verb::kMetrics) {
    // The page is multi-line; only a framing transport can carry it
    // (OK METRICS <nbytes> + raw bytes).
    return err_response(
        "METRICS carries a multi-line payload and needs a stream or socket "
        "transport");
  }
  serve_batch({&r, 1});
  r.out.text.pop_back();  // the '\n'
  return std::move(r.out.text);
}

void Server::record(const metrics::PhaseTrace& trace, int verb_index,
                    const FramedRequest& r) {
  if (verb_index < 0) {
    metrics_->requests_malformed->add();
  } else {
    // Bumped once the whole batch is answered: a scrape through the
    // METRICS verb reports the requests of earlier batches, never itself.
    metrics_->requests[static_cast<std::size_t>(verb_index)]->add();
    metrics_->request_us[static_cast<std::size_t>(verb_index)]->observe(
        trace.total_us);
  }
  if (r.out.text.rfind("ERR", 0) == 0) {
    metrics_->request_errors->add();
  }
  for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
    if (trace.us[p] > 0) {
      metrics_->phase_us[p]->observe(trace.us[p]);
    }
  }
  if (options_.slow_request_us > 0 &&
      trace.total_us >= options_.slow_request_us) {
    logs::warn_rate_limited(
        slow_log_limiter_, "serve.slow_request",
        {{"conn", std::to_string(r.conn_id)},
         {"verb", verb_index >= 0
                      ? verb_names()[static_cast<std::size_t>(verb_index)]
                      : std::string("malformed")},
         {"total_us", std::to_string(trace.total_us)},
         {"parse_us", std::to_string(trace.get(metrics::Phase::kParse))},
         {"queue_wait_us",
          std::to_string(trace.get(metrics::Phase::kQueueWait))},
         {"evaluate_us", std::to_string(trace.get(metrics::Phase::kEvaluate))},
         {"serialize_us",
          std::to_string(trace.get(metrics::Phase::kSerialize))}});
  }
}

int Server::answer(FramedRequest& r, EvalJob& held) {
  if (!r.parsed()) {
    // A malformed EVALB/SIMB header leaves an unknown number of payload
    // bytes unframed in the stream; resyncing is impossible, so the
    // connection must go. Only the exact bulk verbs qualify — a typo'd
    // verb like "EVALBATCH" is an ordinary one-line request.
    r.quit = r.unframed();
    respond(r.out, err_response(r.error));
    return -1;
  }
  const Request& request = r.head;
  try {
    switch (request.verb) {
      case Verb::kLoad: {
        const std::shared_ptr<const LoadedCircuit> circuit =
            load(request.name, request.path);
        const std::string loaded =
            "loaded " + circuit->name + ": " +
            std::to_string(circuit->gnor.num_inputs()) + " inputs, " +
            std::to_string(circuit->gnor.num_outputs()) + " outputs, " +
            std::to_string(circuit->gnor.num_products()) + " products, " +
            std::to_string(circuit->gnor.cell_count()) + " cells, " +
            format_double(circuit->load_seconds * 1e3, 1) + " ms";
        respond(r.out, ok_response(loaded));
        break;
      }
      case Verb::kEvalB:
      case Verb::kSimB: {
        // The length prefix is trusted BEFORE the name or the pattern
        // count, so the payload can always be consumed and the stream
        // stays framed even when the request itself fails.
        const char* verb = request.verb == Verb::kEvalB ? "EVALB" : "SIMB";
        if (request.num_words > kMaxEvalbWords) {
          r.quit = true;
          respond(r.out, err_response(std::string(verb) + " payload of " +
                                      std::to_string(request.num_words) +
                                      " words exceeds the " +
                                      std::to_string(kMaxEvalbWords) +
                                      "-word limit"));
          break;
        }
        if (r.payload.size() < request.num_words) {
          // EOF mid-payload: nothing sensible to answer. ConnState held
          // only the bytes that arrived, so nothing was sized for the
          // rest.
          r.truncated = true;
          break;
        }
      }
        [[fallthrough]];
      case Verb::kEval:
      case Verb::kSim:
        held = decode(r);  // evaluated and encoded by serve_batch
        break;
      case Verb::kVerify: {
        // One registry lookup, same reasoning as kEval: the verdict
        // and the reported pattern count must describe the SAME
        // circuit even if a concurrent unload/reload lands in between.
        const std::shared_ptr<const LoadedCircuit> circuit =
            session_.get(request.name);
        const bool equivalent = session_.verify(circuit);
        metrics_->verifies->add();
        const int inputs = circuit->gnor.num_inputs();
        if (!equivalent) {
          respond(r.out, err_response(request.name +
                                      ": mapped array NOT equivalent to its "
                                      "source cover"));
          break;
        }
        respond(r.out, ok_response("verified " + request.name +
                                   ": equivalent over " +
                                   std::to_string(std::uint64_t{1} << inputs) +
                                   " patterns"));
        break;
      }
      case Verb::kMetrics: {
        // The page is framed like a bulk response: a one-line header
        // announcing the byte count, then the raw exposition text — any
        // transport that can carry an EVALB payload can carry it.
        const std::string page = metrics_page();
        respond(r.out, "OK METRICS " + std::to_string(page.size()));
        r.out.text += page;
        break;
      }
      case Verb::kStats: {
        // A rendering of this Server's registry, plus two facts about
        // the Session. connections= stays last: append-only growth
        // keeps consumers that slice by prefix byte-stable.
        const ServeMetrics& m = *metrics_;
        const std::string stats =
            "circuits=" + std::to_string(session_.names().size()) +
            " loads=" + std::to_string(m.loads->value()) +
            " evals=" + std::to_string(m.evals->value()) +
            " patterns=" + std::to_string(m.patterns->value()) +
            " sims=" + std::to_string(m.sims->value()) +
            " sim_patterns=" + std::to_string(m.sim_patterns->value()) +
            " verifies=" + std::to_string(m.verifies->value()) +
            " workers=" + std::to_string(session_.pool().num_workers()) +
            " connections=" + std::to_string(m.connections_active->value()) +
            "/" + std::to_string(m.connections_accepted->value());
        respond(r.out, ok_response(stats));
        break;
      }
      case Verb::kUnload:
        session_.unload(request.name);
        respond(r.out, ok_response("unloaded " + request.name));
        break;
      case Verb::kHelp:
        respond(r.out, ok_response(help_text()));
        break;
      case Verb::kQuit:
        r.quit = true;
        respond(r.out, ok_response("bye"));
        break;
      case Verb::kShutdown:
        r.quit = true;
        shutdown_.store(true);
        respond(r.out, ok_response("shutting down"));
        break;
    }
  } catch (const std::exception& e) {
    respond(r.out, error_response(e));
  }
  return static_cast<int>(request.verb);
}

Server::EvalJob Server::decode(FramedRequest& r) {
  const Request& request = r.head;
  EvalJob job;
  job.verb = request.verb;
  if (!is_bulk_verb(request.verb)) {
    job.circuit = session_.get(request.name);
    job.inputs = decode_request_patterns(*job.circuit, r);
    return job;
  }
  const std::string verb = request.verb == Verb::kEvalB ? "EVALB" : "SIMB";
  check(request.num_patterns > 0, verb + " needs at least one pattern");
  // A pattern count near 2^64 would wrap the words-per-lane computation
  // to zero and sail through the framing checks; anything above what
  // the word limit can carry is hostile.
  check(request.num_patterns <= kMaxEvalbWords * 64,
        verb + " pattern count " + std::to_string(request.num_patterns) +
            " exceeds the " + std::to_string(kMaxEvalbWords * 64) +
            "-pattern limit");
  // Simulated patterns cost three settles each, not one word-op per 64:
  // a SIMB within the byte framing limits could still pin the pool for
  // minutes, so its pattern count has its own cap.
  check(request.verb != Verb::kSimB ||
            request.num_patterns <= kMaxSimbPatterns,
        "SIMB pattern count " + std::to_string(request.num_patterns) +
            " exceeds the " + std::to_string(kMaxSimbPatterns) +
            "-pattern simulation limit");
  job.circuit = session_.get(request.name);
  const int width = job.circuit->gnor.num_inputs();
  const int num_outputs = job.circuit->gnor.num_outputs();
  const std::uint64_t words_per_lane = (request.num_patterns + 63) / 64;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(width) * words_per_lane;
  check(request.num_words == expected,
        verb + ": " + std::to_string(request.num_patterns) +
            " patterns over " + std::to_string(width) + " inputs need " +
            std::to_string(expected) + " words, header declares " +
            std::to_string(request.num_words));
  // The word limit must bound the RESPONSE too: a 1-input circuit with
  // many outputs would otherwise turn a within-limit payload into an
  // output batch far beyond it. A SIMB response additionally carries
  // the three per-pattern delay arrays.
  const std::uint64_t lane_words =
      static_cast<std::uint64_t>(num_outputs) * words_per_lane;
  const std::uint64_t response_words =
      request.verb == Verb::kSimB ? lane_words + 3 * request.num_patterns
                                  : lane_words;
  check(response_words <= kMaxEvalbWords,
        verb + ": response of " + std::to_string(response_words) +
            " words over " + std::to_string(num_outputs) +
            " outputs exceeds the " + std::to_string(kMaxEvalbWords) +
            "-word limit");
  job.inputs = logic::PatternBatch::from_words(width, request.num_patterns,
                                               std::move(r.payload));
  return job;
}

void Server::encode_eval(const EvalJob& job, logic::PatternBatch outputs,
                         Response& out) {
  if (is_bulk_verb(job.verb)) {
    // The header first: it reads the counts before the lanes move.
    const std::string header =
        evalb_response_header(outputs.num_patterns(), outputs.total_words());
    respond(out, header, std::move(outputs).release_words());
    return;
  }
  std::string detail;
  for (std::uint64_t p = 0; p < outputs.num_patterns(); ++p) {
    if (!detail.empty()) {
      detail += ' ';
    }
    detail += hex_encode(outputs.pattern(p));
  }
  respond(out, ok_response(detail));
}

void Server::encode_sim(const EvalJob& job,
                        const simulate::BatchSimResult& result,
                        Response& out) {
  const std::uint64_t np = result.num_patterns();
  if (is_bulk_verb(job.verb)) {
    // The output lanes, then the delay arrays as raw doubles, one per
    // 8-byte word — same-endianness memcpy, like the lanes — assembled
    // once in the buffer the response sends.
    const std::uint64_t lane_words = result.outputs.total_words();
    logic::LaneWords lanes;
    lanes.resize(lane_words + 3 * np);
    result.outputs.store_words(lanes.data(), lane_words);
    std::memcpy(lanes.data() + lane_words, result.precharge_delay_s.data(),
                np * sizeof(double));
    std::memcpy(lanes.data() + lane_words + np,
                result.plane1_eval_delay_s.data(), np * sizeof(double));
    std::memcpy(lanes.data() + lane_words + 2 * np,
                result.plane2_eval_delay_s.data(), np * sizeof(double));
    // The header first: it reads the lanes' size before they move.
    const std::string header = simb_response_header(np, lanes.size());
    respond(out, header, std::move(lanes));
    return;
  }
  std::string detail;
  for (std::uint64_t p = 0; p < np; ++p) {
    if (!detail.empty()) {
      detail += ' ';
    }
    detail += sim_token(result.outputs.pattern(p), result.precharge_delay_s[p],
                        result.plane1_eval_delay_s[p],
                        result.plane2_eval_delay_s[p]);
  }
  respond(out, ok_response(detail));
}

void Server::serve_batch(std::span<FramedRequest> requests) {
  const bool timed = options_.enable_metrics;
  // Per request: the job it holds between its answer and its encode,
  // and its trace: the steps it took part in, a shared sweep whole, so
  // its phases add up to its total even though a batch interleaves its
  // requests.
  struct Member {
    EvalJob job;
    metrics::PhaseTrace trace;
    int verb_index = -1;
  };
  std::vector<Member> members(requests.size());
  // One clock read per step boundary: each step runs from the previous
  // stamp to the next.
  std::uint64_t stamp = timed ? metrics::monotonic_us() : 0;
  const auto step_us = [&] {
    const std::uint64_t begun = stamp;
    stamp = timed ? metrics::monotonic_us() : 0;
    return stamp - begun;
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    FramedRequest& r = requests[i];
    Member& m = members[i];
    if (timed && r.queued_at_us != 0) {
      // A request that waited in the pool queue counts that wait as its
      // first phase.
      m.trace.add(metrics::Phase::kQueueWait, stamp - r.queued_at_us);
    }
    m.verb_index = answer(r, m.job);
    m.trace.add(answer_phase(r), step_us());
  }

  const auto size = [&](std::size_t k) {
    return members[k].job.inputs.num_patterns();
  };
  std::vector<std::size_t> sweep;
  std::vector<logic::PatternBatch> outputs;  // a sweep's, one per member
  simulate::BatchSimResult simulated(0, 0);  // a simulation's
  std::uint64_t fused_requests = 0;
  std::uint64_t fused_sweeps = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].job.circuit == nullptr) {
      continue;  // answered by answer, or by an earlier sweep
    }
    const std::shared_ptr<const LoadedCircuit> circuit = members[i].job.circuit;
    const bool simulates = members[i].job.simulates();
    sweep.assign(1, i);
    std::uint64_t patterns = size(i);
    for (std::size_t k = i + 1; !simulates && k < members.size() &&
                                patterns < kLoopMaxPatterns;
         ++k) {
      if (members[k].job.circuit == circuit && !members[k].job.simulates() &&
          patterns + size(k) <= kLoopMaxPatterns) {
        sweep.push_back(k);
        patterns += size(k);
      }
    }

    outputs.clear();
    std::string failure;  // the ERR line every member gets if it throws
    try {
      if (simulates) {
        simulated = sim(circuit, members[i].job.inputs);
        check(simulated.all_definite(),
              circuit->name + ": simulation produced non-digital outputs");
      } else if (sweep.size() == 1) {
        outputs.push_back(eval(circuit, members[i].job.inputs));
      } else {
        logic::PatternBatch fused(circuit->gnor.num_inputs(), patterns);
        std::uint64_t at = 0;
        for (const std::size_t k : sweep) {
          fused.copy_patterns_from(members[k].job.inputs, 0, at, size(k));
          at += size(k);
        }
        const logic::PatternBatch all = eval(circuit, fused, sweep.size());
        at = 0;
        for (const std::size_t k : sweep) {
          logic::PatternBatch mine(all.num_signals(), size(k));
          mine.copy_patterns_from(all, at, 0, size(k));
          outputs.push_back(std::move(mine));
          at += size(k);
        }
        fused_requests += sweep.size();
        ++fused_sweeps;
      }
    } catch (const std::exception& e) {
      failure = error_response(e);
    }
    const std::uint64_t sweep_us = step_us();

    for (std::size_t j = 0; j < sweep.size(); ++j) {
      FramedRequest& r = requests[sweep[j]];
      Member& m = members[sweep[j]];
      m.trace.add(metrics::Phase::kEvaluate, sweep_us);
      if (!failure.empty()) {
        respond(r.out, failure);
      } else if (simulates) {
        encode_sim(m.job, simulated, r.out);
      } else {
        encode_eval(m.job, std::move(outputs[j]), r.out);
      }
      m.job = EvalJob{};  // its sweep is done: free its input lanes
      m.trace.add(metrics::Phase::kSerialize, step_us());
    }
  }

  // Recorded once every request is answered: the recording is charged
  // to no request.
  if (timed && fused_sweeps > 0) {
    metrics_->fused_requests->add(fused_requests);
    metrics_->fused_sweeps->add(fused_sweeps);
  }
  for (std::size_t k = 0; timed && k < requests.size(); ++k) {
    if (!requests[k].truncated) {
      record(members[k].trace, members[k].verb_index, requests[k]);
    }
  }
}

template <typename Feed, typename Emit>
std::uint64_t Server::serve_framed(Feed&& feed, Emit&& emit) {
  ConnState state;
  std::uint64_t served = 0;
  for (;;) {
    switch (state.advance()) {
      case ConnState::Step::kNeedInput:
        feed(state);
        break;
      case ConnState::Step::kRequest: {
        FramedRequest r = state.take_request();
        serve_batch({&r, 1});
        state.finish_request(r.quit);
        if (r.truncated || !emit(r.out)) {
          return served;
        }
        ++served;
        if (r.quit) {
          return served;
        }
        break;
      }
      case ConnState::Step::kOversized:
        emit(Response{oversized_line_response(), {}});
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
          // Straight into the payload's lanes, as much as they can take
          // yet.
          got = state.read_payload(missing, [&](char* dst, std::size_t n) {
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
      [&](const Response& response) {
        out.write(response.text.data(),
                  static_cast<std::streamsize>(response.text.size()));
        out.write(response.lane_bytes(),
                  static_cast<std::streamsize>(response.size() -
                                               response.text.size()));
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
      [&](const Response& response) {
        out += response.text;
        out.append(response.lane_bytes(),
                   response.size() - response.text.size());
        return true;
      });
}

void Server::note_connection_accepted() {
  metrics_->connections_accepted->add();
  metrics_->connections_active->add();
}

void Server::note_connection_closed(const char* reason, std::uint64_t conn_id,
                                    std::uint64_t served) {
  metrics_->connections_active->sub();
  if (reason == nullptr) {
    return;
  }
  if (options_.enable_metrics) {
    if (std::strcmp(reason, "idle") == 0) {
      metrics_->dropped_idle->add();
    } else if (std::strcmp(reason, "send") == 0) {
      metrics_->dropped_send->add();
    } else {
      metrics_->dropped_malformed->add();
    }
  }
  logs::warn_rate_limited(drop_log_limiter_, "conn.drop",
                          {{"conn", std::to_string(conn_id)},
                           {"reason", reason},
                           {"served", std::to_string(served)}});
}

void Server::note_loop_wakeup(std::size_t ready_events) {
  if (options_.enable_metrics) {
    metrics_->loop_iterations->add();
    metrics_->loop_ready_events->observe(ready_events);
  }
}

void Server::note_pending_write_delta(std::int64_t delta) {
  if (options_.enable_metrics) {
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
