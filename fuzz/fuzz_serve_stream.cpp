// Fuzz target: a whole serve connection (serve/server.h).
//
// Feeds arbitrary bytes through Server::serve_stream — the exact code
// path behind the stdio transport — so it exercises the full request
// loop: line framing, parse_head, dispatch, EVALB/SIMB binary
// payload framing and the drop-the-connection error paths. Every such
// input is ALSO fed through Server::serve_chunks one byte per read, and
// the harness aborts when the two transcripts differ (after
// canonicalising LOAD's load time): both transports frame through the
// same ConnState machine, so any difference is a framing bug. Inputs
// starting with the "CHNK" magic instead drive serve_chunks with
// fuzzer-chosen read boundaries (see LLVMFuzzerTestOneInput).
// Hermeticity:
//
//   * every well-formed "LOAD <name> <path>" line is rewritten to load
//     a fixed seed circuit from a temp file this harness wrote at
//     startup — the fuzzer must not open attacker-chosen paths (or
//     block forever on /dev/stdin);
//   * each run gets a fresh Session (one worker: in-line evaluation)
//     and a fresh Server, so SHUTDOWN's latch and loaded-circuit state
//     cannot leak between runs and every input reproduces standalone;
//   * each Server records into its own registry. The differential runs
//     with per-request metrics off, so a METRICS page is the same in
//     both transcripts; the CHNK mode, which has no second transcript,
//     runs with them on, so every request also takes the instrumented
//     branches (phase traces, queue wait, per-request recording).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "serve/client.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/error.h"
#include "util/metrics.h"

namespace {

/// Writes the seed circuit once; every LOAD in every input points here.
const std::string& seed_pla_path() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "ambit_fuzz_seed.pla")
            .string();
    std::ofstream out(p, std::ios::trunc);
    out << ".i 2\n.o 1\n10 1\n01 1\n.e\n";
    return p;
  }();
  return path;
}

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Rewrites the path of every 3-token LOAD line (the only request that
/// opens a file); all other lines — including malformed LOADs, which
/// fail before touching the filesystem — pass through byte-for-byte.
std::string sanitize(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string line = text.substr(pos, eol - pos);
    std::size_t t = 0;
    while (t < line.size() && is_ws(line[t])) ++t;
    std::size_t t_end = t;
    while (t_end < line.size() && !is_ws(line[t_end])) ++t_end;
    int tokens = 0;
    bool in_token = false;
    for (std::size_t c = t; c < line.size(); ++c) {
      const bool ws = is_ws(line[c]);
      if (!ws && !in_token) ++tokens;
      in_token = !ws;
    }
    if (line.compare(t, t_end - t, "LOAD") == 0 && t_end > t && tokens == 3) {
      out += "LOAD c " + seed_pla_path();
    } else {
      out += line;
    }
    if (eol < text.size()) {
      out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

/// Runs `serve` against a fresh Session and Server, with per-request
/// metrics on or off; returns false when the connection ended in an
/// exception instead of a transcript.
template <typename Serve>
bool run_connection(bool enable_metrics, Serve&& serve) {
  try {
    ambit::serve::Session session(1);
    ambit::metrics::Registry registry;
    ambit::serve::ServerOptions options;
    options.registry = &registry;
    options.enable_metrics = enable_metrics;
    ambit::serve::Server server(session, options);
    serve(server);
    return true;
  } catch (const ambit::Error&) {
    // request-level failures surface as ERR lines, not exceptions, so
    // this is rare (e.g. resource exhaustion) — but it is a clean exit
  } catch (const std::bad_alloc&) {
    // a fuzzed EVALB header may legitimately request a payload buffer
    // this process cannot serve; the server's contract is to fail the
    // request, but the fallback path may still propagate under ASan
  }
  return false;
}

/// serve_chunks over `wire`, `next_len(turn)` bytes per read.
template <typename NextLen>
bool serve_in_chunks(bool enable_metrics, const std::string& wire,
                     NextLen&& next_len, std::string& out) {
  return run_connection(enable_metrics, [&](ambit::serve::Server& server) {
    std::size_t pos = 0;
    std::size_t turn = 0;
    server.serve_chunks(
        [&]() -> std::string {
          if (pos >= wire.size()) {
            return std::string();  // clean EOF
          }
          const std::size_t len = std::min(next_len(turn++), wire.size() - pos);
          const std::string chunk = wire.substr(pos, len);
          pos += len;
          return chunk;
        },
        out);
  });
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Arbitrary-chunking mode: a "CHNK" magic selects
  // Server::serve_chunks with the fuzzer choosing every read()
  // boundary. Layout:
  //
  //   "CHNK" | count:1 | count bytes of chunk-size seeds | wire bytes
  //
  // Each seed byte maps to a chunk length in [1, 64], cycled over the
  // wire; count == 0 means one byte per chunk — the maximal split. This
  // varies where the reads split EVALB/SIMB headers and payloads, which
  // the differential's fixed one-byte split cannot.
  if (size >= 5 && std::memcmp(data, "CHNK", 4) == 0 &&
      size >= 5 + static_cast<std::size_t>(data[4])) {
    const std::size_t count = data[4];
    const std::uint8_t* seeds = data + 5;
    const std::string wire = sanitize(std::string(
        reinterpret_cast<const char*>(data + 5 + count), size - 5 - count));
    std::string out;
    serve_in_chunks(
        /*enable_metrics=*/true, wire,
        [&](std::size_t turn) -> std::size_t {
          return count == 0 ? 1 : (seeds[turn % count] % 64) + 1;
        },
        out);
    return 0;
  }

  const std::string text =
      sanitize(std::string(reinterpret_cast<const char*>(data), size));
  std::ostringstream streamed;
  const bool stream_ok =
      run_connection(/*enable_metrics=*/false,
                     [&](ambit::serve::Server& server) {
                       std::istringstream in(text);
                       server.serve_stream(in, streamed);
                     });
  std::string chunked;
  const bool chunks_ok = serve_in_chunks(
      /*enable_metrics=*/false, text,
      [](std::size_t) -> std::size_t { return 1; }, chunked);
  if (stream_ok && chunks_ok &&
      ambit::serve::canonical_load_times(streamed.str()) !=
          ambit::serve::canonical_load_times(chunked)) {
    std::fprintf(stderr,
                 "fuzz_serve_stream: serve_stream and 1-byte serve_chunks "
                 "answered differently (%zu vs %zu bytes)\n",
                 streamed.str().size(), chunked.size());
    std::abort();
  }
  return 0;
}

#include "fuzz_driver.h"
