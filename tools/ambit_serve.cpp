// ambit_serve — the long-running evaluation service front door.
//
// Usage:
//   ambit_serve [options]
//
// Options:
//   --stdio              serve the line protocol over stdin/stdout
//                        (the default)
//   --socket <path>      serve over a Unix-domain socket at <path>: one
//                        epoll event-loop thread multiplexes every
//                        connection, evaluation runs on the worker pool
//                        (Linux only)
//   --tcp <host:port>    serve over TCP (IPv4 or "localhost") — the
//                        same protocol, event loop and limits as
//                        --socket. The bound port is announced on
//                        stderr as "tcp bound port <n>" once
//                        listening; port 0 binds an ephemeral port,
//                        which that line is how you discover
//   --workers <n>        worker threads sharding every EVAL
//                        (default: AMBIT_THREADS or hardware threads)
//   --max-connections <n>
//                        connections served at once over --socket/--tcp
//                        (default 64); further accepts wait for a slot
//   --coalesce-window-us <n>
//                        fuse small EVAL/EVALB requests from different
//                        connections that arrive within <n> us into one
//                        bit-packed sharded sweep (default 0 = off;
//                        needs --socket or --tcp — stdio has a single
//                        connection, nothing to fuse across); responses
//                        are bit-identical either way
//   --coalesce-min-patterns <n>
//                        flush a fused batch early once it holds <n>
//                        patterns; requests of >= <n> patterns bypass
//                        coalescing (default 64)
//   --preload <name>=<path>
//                        LOAD a circuit before serving (repeatable)
//   --metrics <host:port>
//                        open an observability-only HTTP side listener
//                        answering GET /metrics (the Prometheus page)
//                        and GET /healthz; announced on stderr as
//                        "metrics bound port <n>" (port 0 = ephemeral).
//                        The same page is served in-band by the
//                        METRICS verb on any transport
//   --slow-request-us <n>
//                        log (at warn, rate-limited) the phase trace of
//                        any request taking >= <n> us (default 0 = off)
//   --log-level <level>  debug|info|warn|error|off (default info)
//   --log-file <path>    append log records to <path> instead of stderr
//
// The protocol grammar is documented in docs/PROTOCOL.md (normative)
// and src/serve/protocol.h; an interactive session starts with HELP.
// The observability surface — metric names, log schema, phase tracing
// — is documented in docs/OBSERVABILITY.md.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/client.h"

#include "serve/metrics_http.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/error.h"
#include "util/log.h"
#include "util/thread_pool.h"

#ifdef _WIN32
#include <fcntl.h>
#include <io.h>
#endif

using namespace ambit;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ambit_serve [--stdio] [--socket <path>] "
               "[--tcp <host:port>]\n"
               "                   [--workers <n>] [--max-connections <n>]\n"
               "                   [--coalesce-window-us <n>] "
               "[--coalesce-min-patterns <n>]\n"
               "                   [--preload <name>=<path>] "
               "[--metrics <host:port>]\n"
               "                   [--slow-request-us <n>] "
               "[--log-level <level>] [--log-file <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string tcp_spec;
  std::string metrics_spec;
  int workers = ThreadPool::default_workers();
  serve::ServerOptions options;
  std::vector<std::pair<std::string, std::string>> preloads;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stdio") {
      socket_path.clear();
      tcp_spec.clear();
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_spec = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
      if (workers < 1) {
        std::fprintf(stderr, "ambit_serve: --workers must be >= 1\n");
        return 2;
      }
    } else if (arg == "--max-connections" && i + 1 < argc) {
      options.max_connections = std::atoi(argv[++i]);
      if (options.max_connections < 1) {
        std::fprintf(stderr, "ambit_serve: --max-connections must be >= 1\n");
        return 2;
      }
    } else if (arg == "--coalesce-window-us" && i + 1 < argc) {
      // Strict digits, not atol: 0 legitimately means "off", so a typo
      // ("2OO") silently parsing to 0 would disable the feature the
      // operator explicitly asked for.
      const std::string value = argv[++i];
      const bool numeric =
          !value.empty() && value.size() <= 9 &&
          value.find_first_not_of("0123456789") == std::string::npos;
      if (!numeric) {
        std::fprintf(stderr,
                     "ambit_serve: --coalesce-window-us needs a "
                     "non-negative integer (microseconds), got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.coalesce.window_us =
          static_cast<std::uint64_t>(std::stoul(value));
    } else if (arg == "--coalesce-min-patterns" && i + 1 < argc) {
      // Same strictness as --coalesce-window-us: "2OO" must not
      // silently become 2 and cripple the flush threshold.
      const std::string value = argv[++i];
      const bool numeric =
          !value.empty() && value.size() <= 9 &&
          value.find_first_not_of("0123456789") == std::string::npos;
      if (!numeric || value.find_first_not_of('0') == std::string::npos) {
        std::fprintf(stderr,
                     "ambit_serve: --coalesce-min-patterns needs a "
                     "positive integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.coalesce.min_patterns =
          static_cast<std::uint64_t>(std::stoul(value));
    } else if (arg == "--preload" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const auto eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "ambit_serve: --preload needs <name>=<path>\n");
        return 2;
      }
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_spec = argv[++i];
    } else if (arg == "--slow-request-us" && i + 1 < argc) {
      // Strict digits for the same reason as --coalesce-window-us: a
      // typo must not silently parse to 0 and disable the dump.
      const std::string value = argv[++i];
      const bool numeric =
          !value.empty() && value.size() <= 9 &&
          value.find_first_not_of("0123456789") == std::string::npos;
      if (!numeric) {
        std::fprintf(stderr,
                     "ambit_serve: --slow-request-us needs a non-negative "
                     "integer (microseconds), got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.slow_request_us = static_cast<std::uint64_t>(std::stoul(value));
    } else if (arg == "--log-level" && i + 1 < argc) {
      const std::string value = argv[++i];
      const auto level = logs::parse_level(value);
      if (!level.has_value()) {
        std::fprintf(stderr,
                     "ambit_serve: --log-level needs "
                     "debug|info|warn|error|off, got '%s'\n",
                     value.c_str());
        return 2;
      }
      logs::set_threshold(*level);
    } else if (arg == "--log-file" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (!logs::set_file(value)) {
        std::fprintf(stderr, "ambit_serve: cannot open log file '%s'\n",
                     value.c_str());
        return 2;
      }
    } else {
      return usage();
    }
  }
  if (!socket_path.empty() && !tcp_spec.empty()) {
    std::fprintf(stderr,
                 "ambit_serve: --socket and --tcp are mutually exclusive "
                 "(run two processes to serve both)\n");
    return 2;
  }
  if (socket_path.empty() && tcp_spec.empty() &&
      options.coalesce.window_us > 0) {
    // stdio serves exactly one connection, so there is nothing to fuse
    // across — the window would only add latency to every request.
    std::fprintf(stderr,
                 "ambit_serve: --coalesce-window-us needs a socket "
                 "transport (--socket or --tcp)\n");
    return 2;
  }

  try {
    serve::Session session(workers);
    for (const auto& [name, path] : preloads) {
      const auto circuit = session.load(name, path);
      std::fprintf(stderr, "ambit_serve: preloaded %s (%d in, %d out, %d products)\n",
                   circuit->name.c_str(), circuit->gnor.num_inputs(),
                   circuit->gnor.num_outputs(), circuit->gnor.num_products());
    }
    serve::Server server(session, options);
    // The side listener runs for the whole serve call and stops on
    // scope exit (its destructor) — after the transport has drained,
    // so a scrape can still read the final counters mid-SHUTDOWN.
    serve::MetricsHttpListener metrics_listener;
    if (!metrics_spec.empty()) {
      const auto [metrics_host, metrics_port] =
          serve::parse_host_port(metrics_spec);
      int bound = 0;
      metrics_listener.start(
          metrics_host, metrics_port,
          [&server] { return server.metrics_page(); }, &bound);
      // Same contract as "tcp bound port": scripts binding port 0
      // discover the real port from this stderr line.
      std::fprintf(stderr, "ambit_serve: metrics bound port %d\n", bound);
    }
    const auto report_served = [](std::uint64_t served) {
      std::fprintf(stderr, "ambit_serve: served %llu request(s)\n",
                   static_cast<unsigned long long>(served));
    };
    const auto describe_coalescing = [&options]() -> std::string {
      if (options.coalesce.window_us == 0) {
        return "coalescing off";
      }
      return "coalescing " + std::to_string(options.coalesce.window_us) +
             " us / " + std::to_string(options.coalesce.min_patterns) +
             " patterns";
    };
    if (!tcp_spec.empty()) {
      const auto [host, port] = serve::parse_host_port(tcp_spec);
      std::atomic<int> bound_port{0};
      std::fprintf(stderr,
                   "ambit_serve: serving tcp %s:%d, %d worker(s), up to %d "
                   "concurrent connection(s), %s; %s\n",
                   host.c_str(), port, session.pool().num_workers(),
                   options.max_connections, describe_coalescing().c_str(),
                   serve::help_text().c_str());
      // With port 0 the kernel picks the port, and a script driving
      // this tool needs it WHILE the server runs — serve_tcp publishes
      // it before the first accept and serve_tcp_announced prints it
      // without racing the blocking serve call.
      report_served(serve::serve_tcp_announced(
          bound_port,
          [&] { return server.serve_tcp(host, port, &bound_port); },
          [](int bound) {
            std::fprintf(stderr, "ambit_serve: tcp bound port %d\n", bound);
          }));
    } else if (!socket_path.empty()) {
      std::fprintf(stderr,
                   "ambit_serve: serving %s, %d worker(s), up to %d "
                   "concurrent connection(s), %s; %s\n",
                   socket_path.c_str(), session.pool().num_workers(),
                   options.max_connections, describe_coalescing().c_str(),
                   serve::help_text().c_str());
      report_served(server.serve_unix(socket_path));
    } else {
#ifdef _WIN32
      // EVALB frames carry raw bytes; text-mode stdio would translate
      // 0x0D 0x0A pairs and corrupt the framing.
      _setmode(_fileno(stdin), _O_BINARY);
      _setmode(_fileno(stdout), _O_BINARY);
#endif
      std::fprintf(stderr, "ambit_serve: serving stdin/stdout, %d worker(s); %s\n",
                   session.pool().num_workers(),
                   serve::help_text().c_str());
      report_served(server.serve_stream(std::cin, std::cout));
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "ambit_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
