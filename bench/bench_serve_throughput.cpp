// End-to-end serve throughput: sharded batch speedup, protocol
// throughput, the EVALB binary bulk frame, concurrent connections,
// cross-connection request coalescing, and the cost of the metrics
// instrumentation itself.
//
// Seven measurements, against >= 16-input Espresso-minimized GNOR PLAs
// (smaller under --smoke):
//
//   1. evaluate_batch sharding: the exhaustive input space swept
//      sequentially vs across 2 / 4 / hardware worker counts, with the
//      parallel output checked BIT-IDENTICAL to the sequential sweep
//      (PatternBatch operator==, every word of every lane).
//   2. protocol throughput: a full LOAD + EVAL storm + VERIFY session
//      driven through Server::serve_stream, reported as requests/s and
//      patterns/s.
//   3. EVALB bulk frame: the same pattern volume once as per-line hex
//      EVAL requests and once as a single binary frame — the ratio is
//      what the hex parser was costing.
//   4. concurrent connections: 4 clients hammering one Unix-socket
//      server, aggregate throughput with sequential accepts
//      (--max-connections 1, the old prototype's behavior) vs
//      concurrent accepts, responses checked against direct evaluation.
//   5. many small clients, over the TCP transport: 8 clients of tiny
//      EVAL requests against a heavy circuit, served once with
//      coalescing off and once with a coalescing window — fused
//      requests share lane words (a 4-pattern request stops paying a
//      full 64-bit word sweep), so the coalesced run must WIN, not
//      merely tie. Running this section over serve_tcp also makes the
//      --smoke TSan run race the TCP accept loop and the coalescer.
//   6. instrumentation overhead: the same serve_stream EVAL storm once
//      with per-request metrics recording enabled and once with
//      ServerOptions::enable_metrics = false — the gap is what the
//      counters, histograms, and phase timers cost the hot path.
//   7. C10k (Linux): >= 2000 connections held open at once against the
//      event loop, one EVAL each, every one of them answered.
//
// Every section reports latency distributions — p50 / p99 / max from
// util/metrics.h histograms (the serve layer's own per-request
// `ambit_serve_request_us` where a server is involved, a bench-local
// histogram over repeated sweeps elsewhere) — not throughput means
// alone, and the bench ends with one machine-readable `BENCH_JSON:`
// line for perf-trajectory tracking across PRs.
//
// Acceptance bars: >= 3x sharded speedup at 4+ workers (ISSUE 2),
// >= 2x aggregate multi-client speedup over the sequential-accept
// baseline (ISSUE 3), >= 1.5x many-small-clients gain from coalescing
// (ISSUE 5), and <= 5% instrumentation overhead (ISSUE 7). Bars are
// only meaningful when the machine HAS 4 hardware threads and the
// build is uninstrumented, so they are enforced exactly then;
// otherwise the bench still verifies bit-identity and reports the
// measured numbers. --smoke shrinks every section for sanitizer CI
// runs (races still fire, bars don't).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/gnor_pla.h"
#include "espresso/espresso.h"
#include "logic/pattern_batch.h"
#include "logic/pla_io.h"
#include "logic/synth_bench.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

#ifndef _WIN32
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#endif

using namespace ambit;
using logic::Cover;
using logic::PatternBatch;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// p50 / p99 / max snapshot of a latency histogram — the three numbers
/// every section reports alongside its throughput. All zero in a
/// -DAMBIT_METRICS=OFF build (observe() is compiled out), which the
/// main() banner calls out.
struct LatencyStats {
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
};

LatencyStats stats_of(const metrics::Histogram& hist) {
  return {hist.quantile(0.5), hist.quantile(0.99), hist.max_observed()};
}

LatencyStats stats_of(const metrics::Histogram* hist) {
  return hist != nullptr ? stats_of(*hist) : LatencyStats{};
}

std::string format_latency(const LatencyStats& stats) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p50 %llu / p99 %llu / max %llu us",
                static_cast<unsigned long long>(stats.p50_us),
                static_cast<unsigned long long>(stats.p99_us),
                static_cast<unsigned long long>(stats.max_us));
  return buf;
}

/// Accumulates the flat key -> value map behind the one BENCH_JSON:
/// summary line. Keys are emitted in insertion order so diffs between
/// runs line up; values render with %.6g (integers stay integers).
class BenchJson {
 public:
  void add(const std::string& key, double value) {
    fields_.emplace_back(key, value);
  }
  void add(const std::string& key, const LatencyStats& stats) {
    add(key + "_p50_us", static_cast<double>(stats.p50_us));
    add(key + "_p99_us", static_cast<double>(stats.p99_us));
    add(key + "_max_us", static_cast<double>(stats.max_us));
  }
  std::string render() const {
    std::string out = "BENCH_JSON: {";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", fields_[i].second);
      if (i != 0) {
        out += ", ";
      }
      out += '"';
      out += fields_[i].first;
      out += "\": ";
      out += buf;
    }
    out += '}';
    return out;
  }

 private:
  std::vector<std::pair<std::string, double>> fields_;
};

/// Sweeps the exhaustive input space repeatedly until >= min_secs and
/// returns patterns/sec. When `latency` is given, each sweep's wall
/// time lands in it, so sections report distributions, not just means.
template <typename Sweep>
double measure_pps(std::uint64_t patterns, double min_secs, const Sweep& sweep,
                   metrics::Histogram* latency = nullptr) {
  const auto start = std::chrono::steady_clock::now();
  int reps = 0;
  double secs = 0;
  do {
    const auto sweep_start = std::chrono::steady_clock::now();
    sweep();
    if (latency != nullptr) {
      latency->observe(static_cast<std::uint64_t>(
          seconds_since(sweep_start) * 1e6));
    }
    ++reps;
    secs = seconds_since(start);
  } while (secs < min_secs);
  return static_cast<double>(patterns) * reps / secs;
}

/// One random input pattern as a hex token.
std::string random_hex_pattern(int width, Rng& rng) {
  std::vector<bool> bits(static_cast<std::size_t>(width));
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = rng.next_bool();
  }
  return serve::hex_encode(bits);
}

#ifndef _WIN32

// connect_with_retry / socket_transact come from serve/client.h — the
// one shared Unix-socket client implementation used by this bench AND
// tests/serve_test.cpp.
using serve::connect_with_retry;
using serve::socket_transact;

struct StormResult {
  double seconds = 0;
  std::uint64_t requests = 0;
  bool all_identical = true;
  bool all_served = true;
};

/// `clients` threads hammer one server — serve_unix on `socket_path`,
/// or serve_tcp on an ephemeral 127.0.0.1 port when `socket_path` is
/// empty — under the given options; every response is checked against
/// direct evaluation of the mapped array (== sequential serving).
StormResult run_storm(const core::GnorPla& pla, serve::Session& session,
                      const std::string& socket_path,
                      serve::ServerOptions options, int clients,
                      int requests_per_client, int patterns_per_request) {
  const bool over_tcp = socket_path.empty();
  serve::Server server(session, options);
  // A transport failure must become a bench failure with a message —
  // an exception escaping a bare thread body would call std::terminate.
  std::atomic<bool> server_failed{false};
  std::atomic<int> tcp_port{0};
  std::thread server_thread([&] {
    try {
      if (over_tcp) {
        server.serve_tcp("127.0.0.1", 0, &tcp_port);
      } else {
        server.serve_unix(socket_path);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_serve_throughput: storm server: %s\n",
                   e.what());
      server_failed.store(true);
      tcp_port.store(-1);
    }
  });
  const auto connect_client = [&]() -> int {
    if (!over_tcp) {
      return connect_with_retry(socket_path);
    }
    const int port = serve::await_bound_port(tcp_port);
    return port > 0 ? serve::connect_tcp_with_retry("127.0.0.1", port) : -1;
  };

  // Pre-build every client's pipelined request script and the expected
  // responses OUTSIDE the timed region.
  std::vector<std::string> scripts(static_cast<std::size_t>(clients));
  std::vector<std::vector<std::string>> expected(
      static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    Rng rng(static_cast<std::uint64_t>(1000 + c));
    std::string& script = scripts[static_cast<std::size_t>(c)];
    for (int r = 0; r < requests_per_client; ++r) {
      script += "EVAL bench";
      std::string response = "OK";
      for (int p = 0; p < patterns_per_request; ++p) {
        const std::string hex = random_hex_pattern(pla.num_inputs(), rng);
        script += ' ';
        script += hex;
        response += ' ';
        response += serve::hex_encode(
            pla.evaluate(serve::hex_decode(hex, pla.num_inputs())));
      }
      script += '\n';
      expected[static_cast<std::size_t>(c)].push_back(response);
    }
    script += "QUIT\n";
  }

  StormResult result;
  result.requests = static_cast<std::uint64_t>(clients) *
                    static_cast<std::uint64_t>(requests_per_client);
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  // Each client retries its connect until the listener is up, so the
  // first iteration absorbs the server start-up latency equally in the
  // sequential and the concurrent run.
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = connect_client();
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      const auto lines = socket_transact(
          fd, scripts[static_cast<std::size_t>(c)],
          static_cast<std::size_t>(requests_per_client) + 1);
      ::close(fd);
      if (lines.size() !=
          static_cast<std::size_t>(requests_per_client) + 1) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < requests_per_client; ++r) {
        if (lines[static_cast<std::size_t>(r)] !=
            expected[static_cast<std::size_t>(c)]
                    [static_cast<std::size_t>(r)]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  result.seconds = seconds_since(start);

  const int ctl = connect_client();
  if (ctl >= 0) {
    socket_transact(ctl, "SHUTDOWN\n", 1);
    ::close(ctl);
  } else if (!server_failed.load()) {
    // No way to deliver SHUTDOWN to a server that is (as far as we can
    // tell) still accepting: abort loudly rather than hang the join.
    std::fprintf(stderr,
                 "bench_serve_throughput: cannot reach storm server for "
                 "shutdown\n");
    std::exit(1);
  }
  server_thread.join();
  result.all_identical = mismatches.load() == 0 && !server_failed.load();
  result.all_served = failures.load() == 0;
  return result;
}

#endif  // !_WIN32

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_serve_throughput [--smoke]\n");
      return 2;
    }
  }

  std::printf("=== ambit::serve throughput%s ===\n\n",
              smoke ? " (smoke)" : "");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("hardware threads: %d\n\n", hw);
  const double min_measure_secs = smoke ? 0.0 : 0.2;

  // --- 1. Parallel sharded evaluate_batch ---------------------------------
  const logic::SynthSpec spec{.num_inputs = smoke ? 12 : 16,
                              .num_outputs = 6,
                              .num_cubes = smoke ? 24 : 48,
                              .literals_per_cube = 8};
  const Cover cover = espresso::minimize(logic::generate_cover(spec, 42)).cover;
  const auto pla = core::GnorPla::map_cover(cover);
  std::printf("cover: %d inputs, %d outputs, %d products\n", pla.num_inputs(),
              pla.num_outputs(), pla.num_products());

  const PatternBatch inputs = PatternBatch::exhaustive(pla.num_inputs());
  const PatternBatch sequential = pla.evaluate_batch(inputs);
  metrics::Histogram seq_latency(metrics::Histogram::default_latency_bounds_us());
  const double seq_pps =
      measure_pps(inputs.num_patterns(), min_measure_secs,
                  [&] { (void)pla.evaluate_batch(inputs); }, &seq_latency);

  BenchJson json;
  json.add("smoke", smoke ? 1 : 0);
  json.add("hw_threads", hw);
  json.add("sharded_seq_mpps", seq_pps / 1e6);
  json.add("sharded_seq_sweep", stats_of(seq_latency));
  if (!metrics::metrics_enabled()) {
    std::printf("NOTE: -DAMBIT_METRICS=OFF build — latency histograms are "
                "compiled out, p50/p99/max report 0\n");
  }

  TextTable table({"workers", "Mpatterns/s", "speedup", "sweep p50/p99/max us",
                   "bit-identical"});
  const auto latency_cell = [](const LatencyStats& stats) {
    return std::to_string(stats.p50_us) + " / " + std::to_string(stats.p99_us) +
           " / " + std::to_string(stats.max_us);
  };
  table.add_row({"1 (sequential)", format_double(seq_pps / 1e6, 1), "1.0x",
                 latency_cell(stats_of(seq_latency)), "yes"});
  bool all_identical = true;
  double best_speedup_4plus = 0;
  std::vector<int> worker_counts = {2, 4};
  if (hw > 4) {
    worker_counts.push_back(hw);
  }
  for (const int workers : worker_counts) {
    ThreadPool pool(workers);
    const PatternBatch parallel = pla.evaluate_batch(inputs, pool);
    const bool identical = parallel == sequential;
    all_identical = all_identical && identical;
    metrics::Histogram latency(metrics::Histogram::default_latency_bounds_us());
    const double pps =
        measure_pps(inputs.num_patterns(), min_measure_secs,
                    [&] { (void)pla.evaluate_batch(inputs, pool); }, &latency);
    const double speedup = pps / seq_pps;
    if (workers >= 4 && speedup > best_speedup_4plus) {
      best_speedup_4plus = speedup;
    }
    table.add_row({std::to_string(workers), format_double(pps / 1e6, 1),
                   format_double(speedup, 1) + "x",
                   latency_cell(stats_of(latency)), identical ? "yes" : "NO"});
  }
  std::printf("\n%s\n", table.render().c_str());
  json.add("sharded_best_speedup_4plus", best_speedup_4plus);

  // --- 2. End-to-end protocol throughput ----------------------------------
  const std::string pla_path =
      (std::filesystem::temp_directory_path() / "ambit_bench_serve.pla")
          .string();
  logic::write_pla_file(pla_path, logic::make_pla(cover, "bench"));

  const int eval_requests = smoke ? 200 : 2000;
  constexpr int kPatternsPerRequest = 8;
  std::ostringstream script;
  script << "LOAD bench " << pla_path << "\n";
  Rng rng(7);
  for (int r = 0; r < eval_requests; ++r) {
    script << "EVAL bench";
    for (int p = 0; p < kPatternsPerRequest; ++p) {
      script << ' ' << random_hex_pattern(pla.num_inputs(), rng);
    }
    script << "\n";
  }
  script << "VERIFY bench\nSTATS\nQUIT\n";

  serve::Session session(hw >= 4 ? 4 : 1);
  // The server's own per-request histogram (an isolated registry, so
  // counts are exactly this session's) supplies the latency numbers —
  // the same ambit_serve_request_us a production scrape would read.
  metrics::Registry protocol_registry;
  serve::ServerOptions protocol_options;
  protocol_options.registry = &protocol_registry;
  serve::Server server(session, protocol_options);
  std::istringstream in(script.str());
  std::ostringstream out;
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t served = server.serve_stream(in, out);
  const double secs = seconds_since(start);

  // Every response must be OK — count the ERR lines instead of parsing.
  int errors = 0;
  std::istringstream responses(out.str());
  for (std::string line; std::getline(responses, line);) {
    errors += starts_with(line, "ERR");
  }
  const LatencyStats protocol_eval = stats_of(protocol_registry.find_histogram(
      "ambit_serve_request_us", {{"verb", "EVAL"}}));
  std::printf("protocol session: %llu requests in %.3f s -> %.0f req/s, "
              "%.2f Mpatterns/s through EVAL, EVAL %s, %d error(s)\n",
              static_cast<unsigned long long>(served), secs, served / secs,
              static_cast<double>(eval_requests) * kPatternsPerRequest / secs /
                  1e6,
              format_latency(protocol_eval).c_str(), errors);
  json.add("protocol_req_per_s", served / secs);
  json.add("protocol_eval", protocol_eval);

  // --- 3. EVALB bulk frame vs per-line hex --------------------------------
  // The same pattern volume once as hex EVAL lines and once as one
  // binary frame; the ratio is the per-line parse cost the frame
  // eliminates.
  const std::uint64_t bulk_patterns = smoke ? (1u << 10) : (1u << 15);
  PatternBatch bulk(pla.num_inputs(), bulk_patterns);
  Rng bulk_rng(19);
  for (std::uint64_t p = 0; p < bulk_patterns; ++p) {
    for (int s = 0; s < pla.num_inputs(); ++s) {
      bulk.set(p, s, bulk_rng.next_bool());
    }
  }
  serve::Session bulk_session(1);
  bulk_session.load("bench", pla_path);
  serve::Server bulk_server(bulk_session);

  std::string hex_script;
  for (std::uint64_t p = 0; p < bulk_patterns; p += 8) {
    hex_script += "EVAL bench";
    for (std::uint64_t q = p; q < p + 8 && q < bulk_patterns; ++q) {
      hex_script += ' ';
      hex_script += serve::hex_encode(bulk.pattern(q));
    }
    hex_script += '\n';
  }
  hex_script += "QUIT\n";
  metrics::Histogram hex_latency(metrics::Histogram::default_latency_bounds_us());
  const double hex_pps = measure_pps(
      bulk_patterns, min_measure_secs,
      [&] {
        std::istringstream hex_in(hex_script);
        std::ostringstream hex_out;
        bulk_server.serve_stream(hex_in, hex_out);
      },
      &hex_latency);

  std::vector<std::uint64_t> bulk_words(bulk.total_words());
  bulk.store_words(bulk_words.data(), bulk_words.size());
  std::string frame_script = "EVALB bench " + std::to_string(bulk_patterns) +
                             " " + std::to_string(bulk_words.size()) + "\n";
  frame_script.append(reinterpret_cast<const char*>(bulk_words.data()),
                      bulk_words.size() * sizeof(std::uint64_t));
  frame_script += "QUIT\n";
  metrics::Histogram frame_latency(
      metrics::Histogram::default_latency_bounds_us());
  const double frame_pps = measure_pps(
      bulk_patterns, min_measure_secs,
      [&] {
        std::istringstream frame_in(frame_script);
        std::ostringstream frame_out;
        bulk_server.serve_stream(frame_in, frame_out);
      },
      &frame_latency);

  // Bit-identity of the frame path against direct evaluation.
  bool evalb_identical = false;
  {
    std::istringstream frame_in(frame_script);
    std::ostringstream frame_out;
    bulk_server.serve_stream(frame_in, frame_out);
    const PatternBatch expected = pla.evaluate_batch(bulk);
    std::vector<std::uint64_t> out_words;
    std::size_t consumed = 0;
    if (serve::decode_evalb_response(frame_out.str(), bulk_patterns,
                                     expected.total_words(), out_words,
                                     consumed)) {
      PatternBatch got(expected.num_signals(), bulk_patterns);
      got.load_words(out_words.data(), out_words.size());
      evalb_identical = got == expected;
    }
  }
  std::printf("bulk %llu patterns: EVAL hex %.2f Mpatterns/s (session %s), "
              "EVALB frame %.2f Mpatterns/s (session %s, %.1fx), "
              "bit-identical: %s\n",
              static_cast<unsigned long long>(bulk_patterns), hex_pps / 1e6,
              format_latency(stats_of(hex_latency)).c_str(), frame_pps / 1e6,
              format_latency(stats_of(frame_latency)).c_str(),
              frame_pps / hex_pps, evalb_identical ? "yes" : "NO");
  json.add("bulk_hex_mpps", hex_pps / 1e6);
  json.add("bulk_frame_mpps", frame_pps / 1e6);
  json.add("bulk_hex_session", stats_of(hex_latency));
  json.add("bulk_frame_session", stats_of(frame_latency));

  // --- 4. Concurrent connections over a Unix socket -----------------------
  bool storm_identical = true;
  bool storm_served = true;
  bool storm_ran = false;
  double conc_speedup = 0;
#ifndef _WIN32
  {
    const int clients = 4;
    const int requests_per_client = smoke ? 50 : 400;
    const int patterns_per_request = 4;
    const std::string socket_path =
        (std::filesystem::temp_directory_path() / "ambit_bench_serve.sock")
            .string();
    // One worker pool slot (inline evaluation): the parallelism under
    // test is ACROSS connections, not inside one EVAL.
    serve::Session seq_session(1);
    seq_session.load("bench", pla_path);
    serve::ServerOptions seq_options;
    seq_options.max_connections = 1;
    const StormResult seq =
        run_storm(pla, seq_session, socket_path, seq_options, clients,
                  requests_per_client, patterns_per_request);
    serve::Session conc_session(1);
    conc_session.load("bench", pla_path);
    metrics::Registry conc_registry;
    serve::ServerOptions conc_options;
    conc_options.max_connections = clients;
    conc_options.registry = &conc_registry;
    const StormResult conc =
        run_storm(pla, conc_session, socket_path, conc_options, clients,
                  requests_per_client, patterns_per_request);
    storm_identical = seq.all_identical && conc.all_identical;
    storm_served = seq.all_served && conc.all_served;
    storm_ran = true;
    conc_speedup = seq.seconds / conc.seconds;
    const LatencyStats conc_eval = stats_of(conc_registry.find_histogram(
        "ambit_serve_request_us", {{"verb", "EVAL"}}));
    std::printf(
        "%d clients x %d requests: sequential accepts %.0f req/s, "
        "concurrent accepts %.0f req/s (%.1fx, EVAL %s), responses %s\n",
        clients, requests_per_client,
        static_cast<double>(seq.requests) / seq.seconds,
        static_cast<double>(conc.requests) / conc.seconds, conc_speedup,
        format_latency(conc_eval).c_str(),
        storm_identical && storm_served ? "bit-identical" : "WRONG");
    json.add("storm_conc_req_per_s",
             static_cast<double>(conc.requests) / conc.seconds);
    json.add("storm_speedup", conc_speedup);
    json.add("storm_conc_eval", conc_eval);
  }
#else
  std::printf("concurrent-connection storm skipped: no Unix sockets\n");
#endif

  // --- 5. Cross-connection coalescing: many small clients, over TCP -------
  // The workload coalescing exists for: many clients, each sending
  // requests of a FEW patterns against a heavy circuit. Uncoalesced,
  // every 4-pattern request pays a full word sweep over every
  // product/output lane (64-bit words it leaves 94% empty);
  // coalesced, concurrent requests pack bit-contiguously into shared
  // words, so the same traffic costs a fraction of the lane work.
  // Responses are checked against direct evaluation in BOTH arms.
  bool coalesce_identical = true;
  bool coalesce_served = true;
  bool coalesce_ran = false;
  double coalesce_speedup = 0;
#ifndef _WIN32
  {
    // A deliberately heavy cover — wide output plane, many products —
    // so per-request lane work dominates parse/syscall overhead the
    // way it does for real classification fabrics.
    const logic::SynthSpec heavy_spec{.num_inputs = 16,
                                      .num_outputs = smoke ? 8 : 32,
                                      .num_cubes = smoke ? 32 : 224,
                                      .literals_per_cube = 5};
    const Cover heavy_cover =
        espresso::minimize(logic::generate_cover(heavy_spec, 11)).cover;
    const auto heavy = core::GnorPla::map_cover(heavy_cover);
    const std::string heavy_path =
        (std::filesystem::temp_directory_path() / "ambit_bench_coal.pla")
            .string();
    logic::write_pla_file(heavy_path, logic::make_pla(heavy_cover, "bench"));
    std::printf("\nheavy cover for coalescing: %d inputs, %d outputs, %d "
                "products\n",
                heavy.num_inputs(), heavy.num_outputs(),
                heavy.num_products());

    const int small_clients = 8;
    const int small_requests = smoke ? 40 : 400;
    const int small_patterns = 4;
    // Single-worker sessions on purpose: the contest is per-request
    // word sweeps vs shared word sweeps, not pool sharding (tiny
    // batches never shard anyway).
    serve::Session plain_session(1);
    plain_session.load("bench", heavy_path);
    serve::ServerOptions plain_options;
    const StormResult plain =
        run_storm(heavy, plain_session, /*socket_path=*/"", plain_options,
                  small_clients, small_requests, small_patterns);
    serve::Session coal_session(1);
    coal_session.load("bench", heavy_path);
    metrics::Registry coal_registry;
    serve::ServerOptions coal_options;
    coal_options.coalesce.window_us = 200;
    coal_options.coalesce.min_patterns =
        static_cast<std::uint64_t>(small_clients) * small_patterns / 2;
    coal_options.registry = &coal_registry;
    const StormResult coal =
        run_storm(heavy, coal_session, /*socket_path=*/"", coal_options,
                  small_clients, small_requests, small_patterns);
    coalesce_identical = plain.all_identical && coal.all_identical;
    coalesce_served = plain.all_served && coal.all_served;
    coalesce_ran = true;
    coalesce_speedup = plain.seconds / coal.seconds;
    const LatencyStats coal_eval = stats_of(coal_registry.find_histogram(
        "ambit_serve_request_us", {{"verb", "EVAL"}}));
    const metrics::Counter* fused = coal_registry.find_counter(
        "ambit_serve_coalesce_fused_total");
    std::printf(
        "%d small clients x %d requests x %d patterns over TCP: "
        "uncoalesced %.0f req/s, coalesced %.0f req/s (%.2fx, EVAL %s, "
        "%llu fused), responses %s\n",
        small_clients, small_requests, small_patterns,
        static_cast<double>(plain.requests) / plain.seconds,
        static_cast<double>(coal.requests) / coal.seconds, coalesce_speedup,
        format_latency(coal_eval).c_str(),
        static_cast<unsigned long long>(fused != nullptr ? fused->value() : 0),
        coalesce_identical && coalesce_served ? "bit-identical" : "WRONG");
    json.add("coalesce_req_per_s",
             static_cast<double>(coal.requests) / coal.seconds);
    json.add("coalesce_speedup", coalesce_speedup);
    json.add("coalesce_eval", coal_eval);
    std::filesystem::remove(heavy_path);
  }
#else
  std::printf("coalescing storm skipped: no sockets\n");
#endif

  // --- 6. Instrumentation overhead ----------------------------------------
  // The exact workload PR 6 benchmarked — a serve_stream EVAL storm —
  // once with per-request recording live and once with
  // enable_metrics = false (one branch at the top of serve_line, the
  // runtime twin of the -DAMBIT_METRICS=OFF compile-out). Arms are
  // interleaved best-of-N so a background scheduler blip cannot charge
  // one arm only; the gap is the tentpole's <= 5% budget.
  double metrics_overhead_pct = 0;
  {
    const int overhead_requests = smoke ? 100 : 1000;
    std::string overhead_script;
    Rng overhead_rng(23);
    for (int r = 0; r < overhead_requests; ++r) {
      overhead_script += "EVAL bench";
      for (int p = 0; p < kPatternsPerRequest; ++p) {
        overhead_script += ' ';
        overhead_script += random_hex_pattern(pla.num_inputs(), overhead_rng);
      }
      overhead_script += '\n';
    }
    overhead_script += "QUIT\n";
    const std::uint64_t overhead_patterns =
        static_cast<std::uint64_t>(overhead_requests) * kPatternsPerRequest;

    serve::Session overhead_session(1);
    overhead_session.load("bench", pla_path);
    metrics::Registry overhead_registry;
    serve::ServerOptions on_options;
    on_options.registry = &overhead_registry;
    serve::Server on_server(overhead_session, on_options);
    serve::ServerOptions off_options;
    off_options.enable_metrics = false;
    off_options.registry = &overhead_registry;
    serve::Server off_server(overhead_session, off_options);
    const auto run_arm = [&](serve::Server& arm) {
      return measure_pps(overhead_patterns, min_measure_secs, [&] {
        std::istringstream arm_in(overhead_script);
        std::ostringstream arm_out;
        arm.serve_stream(arm_in, arm_out);
      });
    };
    double on_pps = 0;
    double off_pps = 0;
    for (int round = 0; round < (smoke ? 1 : 3); ++round) {
      off_pps = std::max(off_pps, run_arm(off_server));
      on_pps = std::max(on_pps, run_arm(on_server));
    }
    metrics_overhead_pct = (off_pps - on_pps) / off_pps * 100.0;
    const LatencyStats overhead_eval =
        stats_of(overhead_registry.find_histogram("ambit_serve_request_us",
                                                  {{"verb", "EVAL"}}));
    std::printf(
        "\ninstrumentation overhead: metrics off %.2f Mpatterns/s, "
        "metrics on %.2f Mpatterns/s (%+.1f%%), instrumented EVAL %s\n",
        off_pps / 1e6, on_pps / 1e6, -metrics_overhead_pct,
        format_latency(overhead_eval).c_str());
    json.add("metrics_off_mpps", off_pps / 1e6);
    json.add("metrics_on_mpps", on_pps / 1e6);
    json.add("metrics_overhead_pct", metrics_overhead_pct);
    json.add("overhead_eval", overhead_eval);
  }

  // --- 7. C10k: thousands of SIMULTANEOUSLY open connections --------------
  // The event-loop transport's reason to exist: every client below
  // connects and STAYS connected while one EVAL per client flows
  // through, all multiplexed by one loop thread. Self-skips (reported,
  // not failed) when RLIMIT_NOFILE cannot cover both ends of every
  // connection living in this one process.
  std::uint64_t c10k_clients = 0;
  std::uint64_t c10k_epoll_served = 0;
  std::uint64_t c10k_peak_active = 0;
  double c10k_epoll_req_per_s = 0;
  LatencyStats c10k_eval{};
  bool c10k_ran = false;
#ifdef __linux__
  {
    const std::uint64_t want_clients = smoke ? 128 : 2200;
    rlimit nofile{};
    ::getrlimit(RLIMIT_NOFILE, &nofile);
    if (nofile.rlim_cur < nofile.rlim_max) {
      rlimit raised = nofile;
      raised.rlim_cur = raised.rlim_max;
      if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) {
        nofile = raised;
      }
    }
    const rlim_t need = static_cast<rlim_t>(2 * want_clients + 128);
    if (nofile.rlim_cur < need) {
      std::printf("\nC10k section skipped: RLIMIT_NOFILE %llu < %llu needed "
                  "for %llu clients\n",
                  static_cast<unsigned long long>(nofile.rlim_cur),
                  static_cast<unsigned long long>(need),
                  static_cast<unsigned long long>(want_clients));
    } else {
      c10k_ran = true;
      const std::string socket_path =
          (std::filesystem::temp_directory_path() / "ambit_bench_c10k.sock")
              .string();

      // Connect everyone, prove the concurrency with STATS, then one
      // EVAL per held-open connection.
      {
        serve::Session c10k_session(1);
        c10k_session.load("bench", pla_path);
        metrics::Registry c10k_registry;
        serve::ServerOptions c10k_options;
        c10k_options.max_connections = static_cast<int>(want_clients) + 8;
        c10k_options.registry = &c10k_registry;
        serve::Server c10k_server(c10k_session, c10k_options);
        std::thread server_thread(
            [&] { c10k_server.serve_unix(socket_path); });

        std::vector<int> fds;
        fds.reserve(want_clients);
        while (fds.size() < want_clients) {
          const int fd = serve::connect_with_retry(socket_path);
          if (fd < 0) {
            break;
          }
          fds.push_back(fd);
        }
        c10k_clients = fds.size();

        const int ctl = serve::connect_with_retry(socket_path);
        if (ctl >= 0) {
          const auto stats_lines = serve::socket_transact(ctl, "STATS\n", 1);
          if (stats_lines.size() == 1) {
            const std::size_t at = stats_lines[0].find("connections=");
            if (at != std::string::npos) {
              // "connections=<active>/<accepted>": active includes this
              // control connection — report the held-open clients only.
              const std::uint64_t active = std::strtoull(
                  stats_lines[0].c_str() + at + std::strlen("connections="),
                  nullptr, 10);
              c10k_peak_active = active > 0 ? active - 1 : 0;
            }
          }
        }

        Rng c10k_rng(77);
        const auto start = std::chrono::steady_clock::now();
        for (const int fd : fds) {
          const std::string request =
              "EVAL bench " + random_hex_pattern(pla.num_inputs(), c10k_rng) +
              "\n";
          std::size_t sent = 0;
          while (sent < request.size()) {
            const ssize_t n = ::send(fd, request.data() + sent,
                                     request.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) {
              continue;
            }
            if (n <= 0) {
              break;
            }
            sent += static_cast<std::size_t>(n);
          }
        }
        for (const int fd : fds) {
          std::string line;
          char byte = 0;
          while (::read(fd, &byte, 1) == 1 && byte != '\n') {
            line += byte;
          }
          if (line.compare(0, 3, "OK ") == 0) {
            ++c10k_epoll_served;
          }
        }
        const double secs = seconds_since(start);
        c10k_epoll_req_per_s =
            secs > 0 ? static_cast<double>(c10k_epoll_served) / secs : 0;
        for (const int fd : fds) {
          ::close(fd);
        }
        if (ctl >= 0) {
          serve::socket_transact(ctl, "SHUTDOWN\n", 1);
          ::close(ctl);
        }
        server_thread.join();
        c10k_eval = stats_of(c10k_registry.find_histogram(
            "ambit_serve_request_us", {{"verb", "EVAL"}}));
      }

      std::printf(
          "\nC10k: %llu clients held open concurrently (peak active %llu): "
          "epoll served %llu (%.0f req/s, EVAL %s)\n",
          static_cast<unsigned long long>(c10k_clients),
          static_cast<unsigned long long>(c10k_peak_active),
          static_cast<unsigned long long>(c10k_epoll_served),
          c10k_epoll_req_per_s, format_latency(c10k_eval).c_str());
      json.add("c10k_clients", static_cast<double>(c10k_clients));
      json.add("c10k_peak_active", static_cast<double>(c10k_peak_active));
      json.add("c10k_epoll_served", static_cast<double>(c10k_epoll_served));
      json.add("c10k_epoll_req_per_s", c10k_epoll_req_per_s);
      json.add("c10k_eval", c10k_eval);
    }
  }
#else
  std::printf("\nC10k section skipped: the epoll transport is Linux-only\n");
#endif

  std::filesystem::remove(pla_path);

  // --- Verdict -------------------------------------------------------------
  // The bars need real parallel hardware and an uninstrumented build;
  // under ThreadSanitizer (which serializes heavily) or on small
  // containers the bench still verifies bit-identity and reports.
  bool instrumented = false;
#if defined(__SANITIZE_THREAD__)
  instrumented = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  instrumented = true;
#endif
#endif
  const bool enforce_speedup = hw >= 4 && !instrumented && !smoke;
  std::printf("\nparallel outputs bit-identical to sequential: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("EVALB frame bit-identical: %s\n", evalb_identical ? "yes" : "NO");
  std::printf("multi-client responses correct: %s\n",
              storm_identical && storm_served ? "yes" : "NO");
  std::printf("coalesced responses correct: %s\n",
              coalesce_identical && coalesce_served ? "yes" : "NO");
  // The C10k bars: every held-open client must be served whenever the
  // section ran at all (a correctness bar, enforced even in smoke);
  // the >= 2000 simultaneous-connection floor only outside smoke /
  // sanitizer runs (smoke deliberately shrinks the client count).
  const bool c10k_all_served = !c10k_ran || c10k_epoll_served == c10k_clients;
  const bool enforce_c10k_scale = c10k_ran && !smoke && !instrumented;
  if (c10k_ran) {
    std::printf("C10k epoll served every held-open client: %s\n",
                c10k_all_served ? "yes" : "NO");
    if (enforce_c10k_scale) {
      std::printf("C10k simultaneous connections: %llu (bar: >= 2000)\n",
                  static_cast<unsigned long long>(c10k_peak_active));
    } else {
      std::printf("C10k simultaneous connections: %llu (bar NOT enforced)\n",
                  static_cast<unsigned long long>(c10k_peak_active));
    }
  }
  if (enforce_speedup) {
    std::printf("best sharded speedup at 4+ workers: %.1fx (bar: >= 3x)\n",
                best_speedup_4plus);
    std::printf("multi-client aggregate speedup: %.1fx (bar: >= 2x)\n",
                conc_speedup);
    std::printf("many-small-clients coalescing speedup: %.2fx (bar: >= 1.5x)\n",
                coalesce_speedup);
    std::printf("metrics instrumentation overhead: %.1f%% (bar: <= 5%%)\n",
                metrics_overhead_pct);
  } else {
    std::printf("best sharded speedup at 4+ workers: %.1fx (bar NOT "
                "enforced: %s)\n",
                best_speedup_4plus,
                instrumented ? "sanitizer build"
                : smoke      ? "smoke run"
                             : "fewer than 4 hardware threads");
    std::printf("multi-client aggregate speedup: %.1fx (bar NOT enforced)\n",
                conc_speedup);
    std::printf(
        "many-small-clients coalescing speedup: %.2fx (bar NOT enforced)\n",
        coalesce_speedup);
    std::printf("metrics instrumentation overhead: %.1f%% (bar NOT enforced)\n",
                metrics_overhead_pct);
  }
  // The concurrency bars only apply where the storms could run (no
  // sockets -> no storm -> no bar). The overhead bar only means
  // something when the instrumentation is compiled in at all.
  const bool pass = all_identical && evalb_identical && storm_identical &&
                    storm_served && coalesce_identical && coalesce_served &&
                    errors == 0 && c10k_all_served &&
                    (!enforce_c10k_scale || c10k_peak_active >= 2000) &&
                    (!enforce_speedup ||
                     (best_speedup_4plus >= 3.0 &&
                      (!storm_ran || conc_speedup >= 2.0) &&
                      (!coalesce_ran || coalesce_speedup >= 1.5) &&
                      (!metrics::metrics_enabled() ||
                       metrics_overhead_pct <= 5.0)));
  std::printf("\n%s\n", json.render().c_str());
  return pass ? 0 : 1;
}
