// perfbench — the repository benchmark program.
//
// Runs one workload against freshly spawned ambit_serve processes and prints
// every metric as "metric <name> <value> <unit>", then one JSON line
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 a separate traced run
// reports the per-layer breakdown and writes its spans to --out-dir.
// perfbench/run.py builds this binary and the server and invokes it;
// perfbench/README.md describes the workloads and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness.h"
#include "layers.h"
#include "live.h"
#include "reference.h"
#include "serve/session.h"
#include "util/cpu_features.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench {
namespace {

/// Servers per untraced run. Each is set up, measured for an equal share
/// of the window and stopped in turn, and every end-to-end metric is the
/// median over them, so one server's luck with the host moves one
/// sample rather than the result.
constexpr int kServers = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string data_dir;
  std::string out_dir;
  std::string git_sha = "unknown";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload classify|bulk --seed <n> "
               "--seconds <s> --trace 0|1 --server <ambit_serve> "
               "--data-dir <dir> --out-dir <dir> [--git-sha <sha>]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    } else if (arg == "--workload") {
      a.workload = argv[++i];
    } else if (arg == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      a.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--server") {
      a.server = argv[++i];
    } else if (arg == "--data-dir") {
      a.data_dir = argv[++i];
    } else if (arg == "--out-dir") {
      a.out_dir = argv[++i];
    } else if (arg == "--git-sha") {
      a.git_sha = argv[++i];
    } else {
      return false;
    }
  }
  return (a.workload == "classify" || a.workload == "bulk") &&
         a.seconds > 0 && !a.server.empty() && !a.data_dir.empty() &&
         !a.out_dir.empty();
}

/// Why numbers from this build must not be recorded, or "".
std::string unfit_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not optimized";
  }
  if (std::strlen(PERFBENCH_SANITIZE) > 0) {
    return std::string("sanitizer build (") + PERFBENCH_SANITIZE + ")";
  }
#ifdef PERFBENCH_SANITIZED
  return "sanitizer build";
#endif
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
  return "";
}

Window run_window(const Args& a, const Reference& ref, const WindowOptions& opt) {
  return a.workload == "bulk" ? run_bulk(ref, opt) : run_classify(ref, opt);
}

void print_metrics(const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Whether every second of the window holds enough requests (classify)
/// for its rate and latency to be taken second by second. Then each is
/// the median over the seconds, so a brief stall of the host moves one
/// sample rather than the result; bulk, at a few dozen requests per
/// second, is taken over the whole window.
bool sliced(const Window& w) {
  constexpr std::size_t kMinPerSecond = 1000;
  return !w.slices.empty() &&
         std::all_of(w.slices.begin(), w.slices.end(),
                     [](const std::vector<double>& s) { return s.size() >= kMinPerSecond; });
}

/// Responses per second of a window.
double rate(const Window& w) {
  if (!sliced(w)) {
    return static_cast<double>(w.completed) / w.elapsed_s;
  }
  std::vector<double> per_second;
  for (const std::vector<double>& s : w.slices) {
    per_second.push_back(static_cast<double>(s.size()));
  }
  return median(per_second);
}

/// Latency quantile q of a window.
double latency(const Window& w, double q) {
  if (!sliced(w)) {
    std::vector<double> all = w.latency_us;
    return quantile(all, q);
  }
  std::vector<double> per_second;
  for (std::vector<double> s : w.slices) {
    per_second.push_back(quantile(s, q));
  }
  return median(per_second);
}

void print_meta(const Args& a, int nproc, int workers) {
  std::printf("meta nproc=%d simd=%s server_workers=%d build=%s git=%s "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              nproc, ambit::cpu::tier_name(ambit::cpu::active_tier()), workers,
              PERFBENCH_BUILD_TYPE, a.git_sha.c_str(), a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
}

std::string log_path(const Args& a, int k) {
  return a.out_dir + "/server-" + a.workload + "-" + std::to_string(k) + ".log";
}

/// The workload's end-to-end metrics: kServers servers in turn, each set
/// up, measured for its share of the window and stopped.
Metrics end_to_end(const Args& a, const Reference& ref, int nproc, Tally& tally) {
  std::vector<double> setup_s, rps, p50, p90, p99, rss;
  std::uint64_t timed = 0;
  double patterns = 0;
  WindowOptions opt;
  opt.seconds = a.seconds / kServers;
  for (int k = 0; k < kServers; ++k) {
    Setup s = start_server(a.server, log_path(a, k), ref);
    tally.add(s.tally);
    setup_s.push_back(s.setup_s);
    ServerProcess& server = *s.server;
    if (k == 0) {
      print_meta(a, nproc, server_workers(server.port()));
    }
    opt.port = server.port();
    const Window w = run_window(a, ref, opt);
    tally.add(w.tally);
    rss.push_back(server.peak_rss_mb());
    server.stop();
    timed += w.completed;
    patterns = static_cast<double>(w.patterns_per_request);
    rps.push_back(rate(w));
    p50.push_back(latency(w, 0.50));
    p90.push_back(latency(w, 0.90));
    p99.push_back(latency(w, 0.99));
  }
  // p99 is printed, not gated: see perfbench/README.md.
  std::printf("info requests_timed %llu\ninfo lat_p99_us %.3f\n"
              "info peak_rss_mb_per_server",
              static_cast<unsigned long long>(timed), median(p99));
  for (double mb : rss) {
    std::printf(" %.1f", mb);
  }
  std::printf("\n");
  return {
      {"setup_s", median(setup_s), "s"},
      {"rps", median(rps), "1/s"},
      {"lat_p50_us", median(p50), "us"},
      {"lat_p90_us", median(p90), "us"},
      {"mpatterns_per_s", median(rps) * patterns / 1e6, "Mpatterns/s"},
      // The allocator's luck only ever adds to a server's footprint.
      {"peak_rss_mb", *std::min_element(rss.begin(), rss.end()), "MB"},
  };
}

/// Counter deltas from the METRICS page across the traced window.
Metrics server_counts(const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after) {
  const auto delta = [&](const std::string& key) {
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };
  const auto mean = [&](const std::string& name, const std::string& labels) {
    const double n = delta(name + "_count" + labels);
    return n > 0 ? delta(name + "_sum" + labels) / n : 0.0;
  };
  Metrics m{
      {"srv.loop_wakeups", delta("ambit_serve_loop_iterations_total"), "count"},
      {"srv.ready_per_wakeup", mean("ambit_serve_loop_ready_events", ""), "count"},
  };
  for (const char* phase : {"parse", "queue_wait", "evaluate", "serialize"}) {
    m.push_back({std::string("srv.phase_") + phase + "_us",
                 mean("ambit_serve_phase_us",
                      std::string("{phase=\"") + phase + "\"}"),
                 "us"});
  }
  m.push_back({"srv.coalesce_fused", delta("ambit_serve_coalesce_fused_total"),
               "count"});
  return m;
}

int run(const Args& a) {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int bulk_frames = a.workload == "bulk" ? 2 : (a.trace ? 1 : 0);
  const auto t0 = Clock::now();
  Reference ref = [&] {
    ambit::ThreadPool pool(nproc);
    return build_reference(a.data_dir, a.out_dir, a.seed, bulk_frames, pool);
  }();
  std::printf("info reference_s %.3f\n", seconds_between(t0, Clock::now()));
  const bool gate_ok = corruption_gate_selftest(ref);
  Tally tally;
  Metrics metrics;
  if (!a.trace) {
    metrics = end_to_end(a, ref, nproc, tally);
  } else {
    Setup setup = start_server(a.server, log_path(a, 0), ref);
    tally.add(setup.tally);
    ServerProcess& server = *setup.server;
    print_meta(a, nproc, server_workers(server.port()));
    WindowOptions opt;
    opt.port = server.port();
    opt.seconds = a.seconds / 2;
    // Untraced, then traced, halves of the window: their p50 difference
    // is the tracing overhead. The METRICS counters bracket the traced
    // half; a one-connection classify probe on the then idle server
    // gives the round trip the transport share is taken from.
    const Window plain = run_window(a, ref, opt);
    const auto before = scrape_metrics(server.port());
    opt.trace = true;
    Window traced = run_window(a, ref, opt);
    const auto after = scrape_metrics(server.port());
    WindowOptions probe_opt = opt;
    probe_opt.warmup_s = 0.2;
    probe_opt.seconds = 1;
    Window probe = run_classify(ref, probe_opt, 1);
    server.stop();
    tally.add(plain.tally);
    tally.add(traced.tally);
    tally.add(probe.tally);

    ambit::serve::Session session(nproc);
    session.load(ref.heavy().name, ref.heavy().path);
    Tracer layer_tracer;
    const Metrics layers = replay_layers(ref, session, layer_tracer, tally);

    const double rtt = median(probe.latency_us);
    const double request_us = median(layer_tracer.durations("server.request"));
    std::vector<double> plain_lat = plain.latency_us;
    std::vector<double> traced_lat = traced.latency_us;
    const double plain_p50 = quantile(plain_lat, 0.5);
    const double traced_p50 = quantile(traced_lat, 0.5);
    std::printf("info untraced_p50_us %.3f\ninfo traced_p50_us %.3f\n"
                "info untraced_rps %.1f\ninfo traced_rps %.1f\n",
                plain_p50, traced_p50, rate(plain), rate(traced));
    metrics = {
        {"client.lat_p99_us", latency(traced, 0.99), "us"},
        {"client.rtt_us", rtt, "us"},
        {"transport.self_us", rtt - request_us, "us"},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    const Metrics counts = server_counts(before, after);
    metrics.insert(metrics.end(), counts.begin(), counts.end());

    Tracer all;
    all.absorb(traced.tracer);
    all.absorb(probe.tracer);
    all.absorb(layer_tracer);
    metrics.push_back({"trace.overhead_pct",
                       (traced_p50 - plain_p50) / plain_p50 * 100,
                       "%"});
    metrics.push_back({"trace.spans", static_cast<double>(all.spans().size()),
                       "count"});
    const std::string spans_path = a.out_dir + "/spans-" + a.workload + "-" +
                                   std::to_string(a.seed) + ".jsonl";
    all.write_jsonl(spans_path, all.spans().front().start);
    std::printf("info spans %s\n", spans_path.c_str());
  }
  if (!gate_ok) {
    std::fprintf(stderr, "perfbench: the corruption self-test did not trip\n");
  }
  print_metrics(metrics);
  print_result(gate_ok && tally.failed == 0, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    return perfbench::usage();
  }
  const std::string unfit = perfbench::unfit_build();
  if (!unfit.empty()) {
    std::fprintf(stderr, "perfbench: refusing to record numbers: %s\n",
                 unfit.c_str());
    return 3;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
