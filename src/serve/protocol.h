// The ambit::serve wire protocol. Normative reference (byte-level
// frame tables, limits, version history): docs/PROTOCOL.md.
//
// Line-oriented, human-typeable, one request per line and one response
// line per request — the same grammar over a stdio pipe, the
// Unix-domain socket, and the TCP socket (serve/server.h):
//
//   LOAD <name> <path>          parse + minimize + map <path>, register
//                               the circuit under <name>
//   EVAL <name> <hex>...        evaluate one input pattern per hex token
//   EVALB <name> <np> <nw>      bulk evaluate: the header line is
//                               followed by <nw> raw little-endian
//                               uint64 words holding the word-packed
//                               input lanes of a PatternBatch over <np>
//                               patterns — ceil(np/64) words per input
//                               lane, lane 0 first (<nw> must equal
//                               inputs * ceil(np/64))
//   SIM <name> <hex>...         switch-level simulation of one input
//                               pattern per hex token: outputs AND the
//                               precharge/plane-1/plane-2 phase delays
//                               of every pattern's dynamic cycle
//   SIMB <name> <np> <nw>       bulk switch-level timing sweep: framed
//                               exactly like EVALB (same input payload
//                               layout and <nw> = inputs * ceil(np/64))
//   VERIFY <name>               exhaustive equivalence re-check of the
//                               mapped array against its source cover
//   STATS                       session counters
//   METRICS                     the Prometheus text-format metrics
//                               page: "OK METRICS <nbytes>" followed
//                               by exactly <nbytes> raw bytes of
//                               exposition text (docs/OBSERVABILITY.md)
//   UNLOAD <name>               drop a circuit
//   HELP                        grammar summary
//   QUIT                        close this connection
//   SHUTDOWN                    stop accepting connections, drain the
//                               in-flight ones, then stop the server
//
// Responses: "OK[ <detail>]" on success, "ERR <message>" on failure.
// An EVAL response carries one hex token per input pattern, in order.
// A SIM response carries one TOKEN per pattern:
// "<hex>@<pre>/<e1>/<e2>" — the output pattern plus that pattern's
// precharge, plane-1-evaluate and plane-2-evaluate delays in
// picoseconds (%.6g).
// An EVALB response is the line "OK EVALB <np> <nw'>" followed by <nw'>
// raw words of word-packed OUTPUT lanes in the same layout (an ERR
// response to EVALB carries no payload). A SIMB response is the line
// "OK SIMB <np> <nw'>" whose <nw'> payload words are the output lanes
// FOLLOWED by 3*np little-endian IEEE-754 doubles (one word each): the
// per-pattern precharge delays, then the plane-1 delays, then the
// plane-2 delays, all in seconds — so <nw'> = outputs * ceil(np/64) +
// 3*np. The explicit word count is what keeps the stream in sync: for
// any WELL-FORMED header the server consumes exactly <nw> payload
// words, even when the request itself fails (unknown name, wrong
// count), so one bad bulk request costs one ERR line, not the
// connection. The exceptions close the connection after the ERR line,
// because the payload can no longer be consumed or trusted: a header
// that does not parse at all, one whose <nw> exceeds the server's
// payload limit (serve/server.h kMaxEvalbWords), and a payload buffer
// the server failed to allocate under memory pressure.
//
// Hex patterns are plain hexadecimal numbers: bit i of the value is
// input (or output) i. Tokens may carry a "0x" prefix; widths beyond 64
// signals are supported digit-wise (the value never materializes as an
// integer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ambit::serve {

/// Wire-protocol revision: bumped whenever the grammar, a frame
/// layout, or a response format changes (history in docs/PROTOCOL.md,
/// the normative reference for everything in this header). Purely
/// informational — every revision so far is backward compatible.
inline constexpr int kProtocolVersion = 4;

/// Request verbs of the grammar above.
enum class Verb {
  kLoad,
  kEval,
  kEvalB,
  kSim,
  kSimB,
  kVerify,
  kStats,
  kMetrics,
  kUnload,
  kHelp,
  kQuit,
  kShutdown,
};

/// True for the verbs whose request carries a raw binary payload after
/// the header line (EVALB/SIMB) — the ones that need a stream or
/// socket transport and whose malformed headers unframe the stream.
inline bool is_bulk_verb(Verb verb) {
  return verb == Verb::kEvalB || verb == Verb::kSimB;
}

/// One parsed request line.
struct Request {
  Verb verb = Verb::kHelp;
  std::string name;                   ///< circuit name (LOAD/EVAL*/SIM*/VERIFY/UNLOAD)
  std::string path;                   ///< .pla path (LOAD)
  std::vector<std::string> patterns;  ///< hex tokens (parse_request only)
  std::uint64_t num_patterns = 0;     ///< pattern count (EVALB/SIMB)
  std::uint64_t num_words = 0;        ///< payload word count (EVALB/SIMB)
  /// Where the hex tokens start in the line (EVAL/SIM; 0 otherwise):
  /// the whitespace-separated tokens from here on are `patterns`.
  std::size_t patterns_at = 0;
};

/// Parses one request line's head: every Request field but `patterns`.
/// The EVAL/SIM hex tokens are only located (patterns_at), so the cost
/// does not grow with the pattern list: at most five tokens are read.
/// Throws ambit::Error on a malformed request (unknown verb, wrong
/// argument count, an EVALB/SIMB count that is not a number).
Request parse_head(std::string_view line);

/// parse_head, plus the hex tokens split into `patterns`: the same
/// checks and the same errors.
Request parse_request(const std::string& line);

/// The verb `name` spells, matched exactly the way parse_head reads a
/// line's first token; std::nullopt for an unknown verb.
std::optional<Verb> find_verb(std::string_view name);

/// Every verb string parse_head dispatches, in Verb enum order. The
/// HELP audit test checks help_text() against this list, so a new verb
/// cannot land without its HELP entry (and docs/PROTOCOL.md is written
/// against the same list).
std::vector<std::string> verb_names();

/// Packs `bits` (bit i = signal i) as fixed-width lowercase hex,
/// ceil(width / 4) digits, most significant first.
std::string hex_encode(const std::vector<bool>& bits);

/// Parses a hex token into `width` signal bits. Accepts an optional
/// "0x"/"0X" prefix. Throws ambit::Error on non-hex digits or when a
/// set bit lies at or above `width`.
std::vector<bool> hex_decode(std::string_view hex, int width);

/// "OK" / "OK <detail>".
std::string ok_response(const std::string& detail = "");

/// The EVALB success header: "OK EVALB <num_patterns> <num_words>" (the
/// raw output-lane words follow it on the wire).
std::string evalb_response_header(std::uint64_t num_patterns,
                                  std::uint64_t num_words);

/// The SIMB success header: "OK SIMB <num_patterns> <num_words>" (the
/// output lanes plus the three per-pattern delay arrays follow it).
std::string simb_response_header(std::uint64_t num_patterns,
                                 std::uint64_t num_words);

/// One SIM response token: "<hex>@<pre>/<e1>/<e2>" — the packed output
/// pattern plus the three phase delays, converted to picoseconds and
/// formatted %.6g. Tests and clients re-encode expected values through
/// this same helper, so formatting can never drift between them.
std::string sim_token(const std::vector<bool>& outputs, double precharge_s,
                      double plane1_eval_s, double plane2_eval_s);

/// "ERR <message>" (newlines in `message` are flattened to spaces so
/// the response stays one line).
std::string err_response(const std::string& message);

/// The HELP response detail: one-line grammar summary.
std::string help_text();

}  // namespace ambit::serve
