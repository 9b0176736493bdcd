// The workloads, driven against a live ambit_serve over TCP.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "reference.h"
#include "server_process.h"

namespace perfbench {

/// Counts of checked operations.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// A spawned server with `heavy` loaded.
struct Setup {
  std::unique_ptr<ServerProcess> server;
  double setup_s = 0;  ///< spawn -> heavy loaded -> first response
  Tally tally;
};

/// Spawns `binary`, LOADs `heavy` and answers one classify request.
Setup start_server(const std::string& binary, const std::string& log_path,
                   const Reference& ref);

/// What one measured window produced.
struct Window {
  Tally tally;
  double elapsed_s = 0;
  std::uint64_t completed = 0;             ///< EVAL/EVALB responses
  std::uint64_t patterns_per_request = 0;
  std::vector<double> latency_us;          ///< one per completed request
  /// latency_us split by the second of the window each request ended
  /// in; only whole seconds are kept.
  std::vector<std::vector<double>> slices;
  Tracer tracer;                           ///< client spans when traced
};

struct WindowOptions {
  int port = 0;
  double warmup_s = 0.5;
  double seconds = 10;
  bool trace = false;
};

/// 2 connections, closed loop, one 4-pattern EVAL in flight each. Two
/// client threads beside the server's event loop and the workers they
/// keep busy fit a 4-thread host; four connections oversubscribed it
/// and measured the scheduler.
Window run_classify(const Reference& ref, const WindowOptions& opt,
                    int connections = 2);

/// 1 connection, closed loop, 1M-pattern EVALB frames.
Window run_bulk(const Reference& ref, const WindowOptions& opt);

/// The METRICS page as series -> value ("name{labels}" keys).
std::map<std::string, double> scrape_metrics(int port);

/// The worker count the server reports in STATS.
int server_workers(int port);

}  // namespace perfbench
