// The fixed circuits and the expected responses, computed in-process
// before any timing starts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/gnor_pla.h"
#include "logic/cover.h"
#include "logic/pattern_batch.h"
#include "util/thread_pool.h"

namespace perfbench {

/// One circuit the server loads, with the result of the same LOAD
/// pipeline run in-process: read_pla_file, espresso::minimize,
/// GnorPla::map_cover.
struct Circuit {
  std::string name;
  std::string path;
  ambit::logic::Cover minimized{0, 1};
  ambit::core::GnorPla gnor{0, 0, 1};
  /// "LOAD <name> <path>\n".
  std::string load_request;
  /// The expected response up to the load time, which varies:
  /// "OK loaded <name>: <i> inputs, <o> outputs, <p> products, <c> cells, ".
  std::string load_prefix;
};

/// A classify-shaped request: one EVAL of four hex patterns.
struct ClassifyRequest {
  std::string line;      ///< request, newline-terminated
  std::string expected;  ///< response line, without newline
};

/// A bulk-shaped request: one EVALB frame of kBulkPatterns patterns.
struct BulkFrame {
  std::string request;          ///< header line + raw input lanes
  std::string expected_header;  ///< "OK EVALB <np> <nw>"
  std::vector<std::uint64_t> expected_words;
  ambit::logic::PatternBatch inputs{0, 0};
};

inline constexpr std::uint64_t kBulkPatterns = std::uint64_t{1} << 20;
inline constexpr int kClassifyPatterns = 4;

/// Everything a run checks responses against.
struct Reference {
  /// heavy, t2, apla, max46 — in LOAD-round order.
  std::vector<Circuit> circuits;
  std::vector<ClassifyRequest> classify;
  std::vector<BulkFrame> bulk;

  const Circuit& heavy() const { return circuits.front(); }
};

/// Writes the generated `heavy` cover to `out_dir`/heavy.pla, runs the
/// LOAD pipeline on every circuit, and draws the request pools from
/// `seed`. `bulk_frames` frames of kBulkPatterns patterns are built.
Reference build_reference(const std::string& data_dir,
                          const std::string& out_dir, std::uint64_t seed,
                          int bulk_frames, ambit::ThreadPool& pool);

/// Response checks; each returns true when the response is correct.
bool check_classify(const ClassifyRequest& req, const std::string& response);
bool check_load(const Circuit& circuit, const std::string& response);
bool check_bulk(const BulkFrame& frame, const std::string& header,
                const std::vector<std::uint64_t>& words);

/// Proves the checks reject corrupted responses: true when every
/// corrupted copy of a correct response is refused.
bool corruption_gate_selftest(const Reference& ref);

}  // namespace perfbench
