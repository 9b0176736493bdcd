// Tests for the ambit::serve subsystem: protocol parsing and hex
// codecs, the session registry (LOAD pipeline, sharded EVAL, cached
// VERIFY), the server driven end-to-end over both transports — a
// stream pipe and a Unix-domain socket — and the observability
// surface: the METRICS verb, the HTTP side listener, and exact
// per-verb accounting under a concurrent mixed-verb hammer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/gnor_pla.h"
#include "logic/pla_io.h"
#include "prometheus_lint.h"
#include "serve/client.h"
#include "serve/conn_state.h"
#include "serve/metrics_http.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "simulate/pla_sim.h"
#include "tech/technology.h"
#include "util/error.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/strings.h"

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace ambit::serve {
namespace {

using logic::Cover;
using logic::PatternBatch;

/// Writes a small 3-input/2-output cover to a temp .pla file and
/// returns its path.
std::string write_sample_pla(const std::string& filename) {
  const Cover f = Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"});
  const std::string path = testing::TempDir() + "/" + filename;
  logic::write_pla_file(path, logic::make_pla(f, "sample"));
  return path;
}

/// The count `field` (e.g. "evals") reports in one STATS response line.
std::uint64_t stats_field(const std::string& line, const std::string& field) {
  const std::size_t at = line.find(" " + field + "=");
  if (at == std::string::npos) {
    ADD_FAILURE() << "STATS has no " << field << "=: " << line;
    return 0;
  }
  return std::stoull(line.substr(at + field.size() + 2));
}

// ---------------------------------------------------------------------------
// Protocol: request parsing and the hex codec.
// ---------------------------------------------------------------------------

/// parse_request's result for `line`, after checking that parse_head
/// reads the same head (every field but the patterns) and that the
/// tokens read from its pattern offset, the way serve_batch reads them,
/// are parse_request's patterns.
Request parse_both(const std::string& line) {
  const Request full = parse_request(line);
  const Request head = parse_head(line);
  EXPECT_EQ(head.verb, full.verb) << line;
  EXPECT_EQ(head.name, full.name) << line;
  EXPECT_EQ(head.path, full.path) << line;
  EXPECT_EQ(head.num_patterns, full.num_patterns) << line;
  EXPECT_EQ(head.num_words, full.num_words) << line;
  EXPECT_EQ(head.patterns_at, full.patterns_at) << line;
  EXPECT_TRUE(head.patterns.empty()) << line;
  std::vector<std::string> tokens;
  if (head.patterns_at > 0) {
    std::string_view rest = std::string_view(line).substr(head.patterns_at);
    for (std::string_view t = next_token(rest); !t.empty();
         t = next_token(rest)) {
      tokens.emplace_back(t);
    }
  }
  EXPECT_EQ(tokens, full.patterns) << line;
  return full;
}

/// Both parsers reject `line`, with the same message.
void expect_same_rejection(const std::string& line) {
  EXPECT_THROW(parse_request(line), Error) << line;
  std::string full;
  std::string head;
  try {
    parse_request(line);
  } catch (const Error& e) {
    full = e.what();
  }
  try {
    parse_head(line);
  } catch (const Error& e) {
    head = e.what();
  }
  EXPECT_FALSE(head.empty()) << "parse_head accepted '" << line << "'";
  EXPECT_EQ(head, full) << line;
}

TEST(ProtocolTest, ParsesEveryVerb) {
  EXPECT_EQ(parse_both("LOAD adder /tmp/a.pla").verb, Verb::kLoad);
  EXPECT_EQ(parse_both("EVAL adder ff 0").verb, Verb::kEval);
  EXPECT_EQ(parse_both("VERIFY adder").verb, Verb::kVerify);
  EXPECT_EQ(parse_both("STATS").verb, Verb::kStats);
  EXPECT_EQ(parse_both("METRICS").verb, Verb::kMetrics);
  EXPECT_EQ(parse_both("UNLOAD adder").verb, Verb::kUnload);
  EXPECT_EQ(parse_both("HELP").verb, Verb::kHelp);
  EXPECT_EQ(parse_both("QUIT").verb, Verb::kQuit);
  EXPECT_EQ(parse_both("SHUTDOWN").verb, Verb::kShutdown);
}

TEST(ProtocolTest, LoadCarriesNameAndPath) {
  const Request r = parse_both("  LOAD  c17   /data/c17.pla ");
  EXPECT_EQ(r.name, "c17");
  EXPECT_EQ(r.path, "/data/c17.pla");
}

TEST(ProtocolTest, EvalCarriesAllPatterns) {
  const Request r = parse_both("EVAL f 0 1f 0x2a");
  EXPECT_EQ(r.name, "f");
  EXPECT_EQ(r.patterns, (std::vector<std::string>{"0", "1f", "0x2a"}));
  // The pattern offset points at the first hex token, past any run of
  // whitespace, and the tokens run to the end of the line.
  EXPECT_EQ(parse_both("EVAL f 0 1f 0x2a").patterns_at, 7u);
  EXPECT_EQ(parse_both(" EVAL\tf \t 0x2a  7 ").patterns_at, 10u);
  EXPECT_EQ(parse_both("EVAL f 1 2 3 4 5 6 7 8").patterns.size(), 8u);
}

TEST(ProtocolTest, MalformedRequestsRejected) {
  for (const char* line :
       {"", "FROBNICATE x", "LOAD just_a_name", "EVAL name_but_no_patterns",
        "VERIFY", "STATS extra", "METRICS extra"}) {
    expect_same_rejection(line);
  }
}

TEST(ProtocolTest, ParsesEvalbHeader) {
  const Request r = parse_both("EVALB f 130 9");
  EXPECT_EQ(r.verb, Verb::kEvalB);
  EXPECT_EQ(r.name, "f");
  EXPECT_EQ(r.num_patterns, 130u);
  EXPECT_EQ(r.num_words, 9u);
}

TEST(ProtocolTest, MalformedEvalbHeadersRejected) {
  for (const char* line :
       {"EVALB f", "EVALB f 128", "EVALB f 128 6 extra", "EVALB f abc 6",
        "EVALB f 128 -6", "EVALB f 12x8 6",
        "EVALB f 99999999999999999999999 6"}) {
    expect_same_rejection(line);
  }
}

TEST(ProtocolTest, EvalbResponseHeaderFormat) {
  EXPECT_EQ(evalb_response_header(128, 6), "OK EVALB 128 6");
}

TEST(ProtocolTest, ParsesSimVerbs) {
  const Request sim = parse_both("SIM f 0 1f 0x2a");
  EXPECT_EQ(sim.verb, Verb::kSim);
  EXPECT_EQ(sim.name, "f");
  EXPECT_EQ(sim.patterns, (std::vector<std::string>{"0", "1f", "0x2a"}));

  const Request simb = parse_both("SIMB f 130 9");
  EXPECT_EQ(simb.verb, Verb::kSimB);
  EXPECT_EQ(simb.name, "f");
  EXPECT_EQ(simb.num_patterns, 130u);
  EXPECT_EQ(simb.num_words, 9u);
  EXPECT_TRUE(is_bulk_verb(Verb::kSimB));
  EXPECT_TRUE(is_bulk_verb(Verb::kEvalB));
  EXPECT_FALSE(is_bulk_verb(Verb::kSim));
}

TEST(ProtocolTest, MalformedSimRequestsRejected) {
  for (const char* line :
       {"SIM name_but_no_patterns", "SIMB f", "SIMB f 128",
        "SIMB f 128 6 extra", "SIMB f abc 6", "SIMB f 128 -6",
        "SIMB f 99999999999999999999999 6"}) {
    expect_same_rejection(line);
  }
}

TEST(ProtocolTest, SimbResponseHeaderAndSimTokenFormat) {
  EXPECT_EQ(simb_response_header(128, 390), "OK SIMB 128 390");
  // 1 ps / 2 ps / 3 ps, outputs {1,0} -> hex "1".
  EXPECT_EQ(sim_token({true, false}, 1e-12, 2e-12, 3e-12), "1@1/2/3");
  // %.6g keeps sub-ps resolution without drift-prone padding.
  EXPECT_EQ(sim_token({false}, 26.8594e-12, 39.856e-12, 19.0615e-12),
            "0@26.8594/39.856/19.0615");
}

TEST(ProtocolTest, HexRoundTrip) {
  for (const int width : {1, 3, 4, 8, 13, 64, 70}) {
    std::vector<bool> bits(static_cast<std::size_t>(width));
    for (int i = 0; i < width; i += 3) {
      bits[static_cast<std::size_t>(i)] = true;
    }
    EXPECT_EQ(hex_decode(hex_encode(bits), width), bits) << "width " << width;
  }
}

TEST(ProtocolTest, HexRoundTripOddAndWideWidths) {
  // Odd widths (partial final digit) and widths far beyond 64 (the
  // value can never materialize as an integer) with several densities.
  for (const int width : {5, 7, 9, 31, 63, 65, 66, 127, 128, 129, 200}) {
    for (const int stride : {1, 2, 7}) {
      std::vector<bool> bits(static_cast<std::size_t>(width));
      for (int i = 0; i < width; i += stride) {
        bits[static_cast<std::size_t>(i)] = true;
      }
      // The top bit set exercises the width-boundary check exactly.
      bits[static_cast<std::size_t>(width - 1)] = true;
      const std::string hex = hex_encode(bits);
      EXPECT_EQ(static_cast<int>(hex.size()), (width + 3) / 4);
      EXPECT_EQ(hex_decode(hex, width), bits)
          << "width " << width << " stride " << stride;
    }
  }
}

TEST(ProtocolTest, HexEncodeIsFixedWidth) {
  EXPECT_EQ(hex_encode({false, false, false, false, false}), "00");
  EXPECT_EQ(hex_encode({true, false, true}), "5");
  EXPECT_EQ(hex_encode(std::vector<bool>(8, true)), "ff");
}

TEST(ProtocolTest, HexDecodeAcceptsPrefixAndCase) {
  EXPECT_EQ(hex_decode("0x2A", 6), hex_decode("2a", 6));
  // The "0X" prefix (uppercase X) is part of the grammar too.
  EXPECT_EQ(hex_decode("0X2A", 6), hex_decode("2a", 6));
  EXPECT_EQ(hex_decode("0XfF", 8), hex_decode("ff", 8));
}

TEST(ProtocolTest, HexDecodeRejectsBadInput) {
  EXPECT_THROW(hex_decode("zz", 8), Error);
  EXPECT_THROW(hex_decode("", 8), Error);
  EXPECT_THROW(hex_decode("0x", 8), Error);
  EXPECT_THROW(hex_decode("0X", 8), Error);
  // Malformed digits buried mid-token, including a second prefix.
  EXPECT_THROW(hex_decode("1g4", 12), Error);
  EXPECT_THROW(hex_decode("0x0x11", 12), Error);
  EXPECT_THROW(hex_decode("ff ", 8), Error);
  // Bit 4 set, but only 3 inputs wide.
  EXPECT_THROW(hex_decode("10", 3), Error);
  // Same boundary check past 64 signals: bit 68 set, 68 wide.
  EXPECT_THROW(hex_decode("100000000000000000", 68), Error);
}

TEST(ProtocolTest, ResponseFormatting) {
  EXPECT_EQ(ok_response(), "OK");
  EXPECT_EQ(ok_response("loaded x"), "OK loaded x");
  EXPECT_EQ(err_response("bad\nthing"), "ERR bad thing");
}

TEST(ProtocolTest, HelpListsEveryVerb) {
  // The drift guard behind the HELP audit: every verb the parser
  // dispatches must appear in the HELP text AS A WORD, so a new
  // command cannot land without documenting itself. Word boundaries
  // matter: a plain substring search would let "EVALB" satisfy "EVAL"
  // and "SIMB" satisfy "SIM" — exactly the omission class this test
  // exists to catch. verb_names() is maintained next to parse_request
  // for exactly this check.
  const auto contains_word = [](const std::string& text,
                                const std::string& word) {
    const auto is_word_char = [](char c) {
      return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
             (c >= '0' && c <= '9');
    };
    for (std::size_t at = text.find(word); at != std::string::npos;
         at = text.find(word, at + 1)) {
      const bool left_ok = at == 0 || !is_word_char(text[at - 1]);
      const std::size_t end = at + word.size();
      const bool right_ok = end == text.size() || !is_word_char(text[end]);
      if (left_ok && right_ok) {
        return true;
      }
    }
    return false;
  };
  const std::vector<std::string> names = verb_names();
  ASSERT_EQ(names.size(), 12u);  // grows with the grammar
  const std::string help = help_text();
  for (const std::string& name : names) {
    EXPECT_TRUE(contains_word(help, name))
        << "HELP omits the " << name << " command";
  }
  // Every listed name really is a dispatchable verb (the list cannot
  // drift ahead of the parser either): an unknown verb raises "unknown
  // verb", a known one either parses or complains about ARGUMENTS.
  for (const std::string& name : names) {
    try {
      parse_request(name + " x y z w");
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).find("unknown verb"),
                std::string::npos)
          << name << " is listed in verb_names() but not dispatched";
    }
  }
  // HELP points at the normative reference and states the revision.
  EXPECT_NE(help.find("docs/PROTOCOL.md"), std::string::npos);
  EXPECT_NE(help.find("v" + std::to_string(kProtocolVersion)),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// ConnState: framing cost and payload memory.
// ---------------------------------------------------------------------------

/// Microseconds per request to frame 4 MiB of pipelined EVAL lines
/// that arrive in bursts of about `burst_bytes`, each burst appended at
/// once to a fresh ConnState and served by advance() and
/// finish_request() until the buffer is empty. Every size frames the
/// same number of requests, so a busy host slows each size alike. Stops
/// after one second, so a quadratic framer fails in bounded time.
double burst_us_per_request(std::size_t burst_bytes) {
  const std::string line = "EVAL heavy 0001 0002 0003 0004\n";
  std::string burst;
  while (burst.size() + line.size() <= burst_bytes) {
    burst += line;
  }
  const std::size_t bursts = (std::size_t{4} << 20) / burst_bytes;
  const auto start = std::chrono::steady_clock::now();
  std::size_t served = 0;
  for (std::size_t b = 0; b < bursts; ++b) {
    ConnState state;
    state.append(burst.data(), burst.size());
    while (state.advance() == ConnState::Step::kRequest) {
      EXPECT_EQ(state.line().size(), line.size() - 1);
      state.finish_request(false);
      if (++served % 256 == 0 &&
          std::chrono::steady_clock::now() - start > std::chrono::seconds(1)) {
        b = bursts;
        break;
      }
    }
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count() /
         static_cast<double>(served);
}

TEST(ConnStateTest, FramingCostPerRequestDoesNotGrowWithTheBurst) {
  // Each request consumes its own line from a read offset; erasing it
  // from the front of the buffer instead memmoves every byte buffered
  // behind it, so a 4 MiB burst (about 16 loop wakeups' worth) would
  // cost each request ~64x what a 64 KiB burst does. A ratio survives
  // sanitizer slowdowns that absolute times do not; the best of five
  // interleaved runs survives a loaded host.
  double small = 0;
  double large = 0;
  for (int run = 0; run < 5; ++run) {
    const double s = burst_us_per_request(std::size_t{64} << 10);
    const double l = burst_us_per_request(std::size_t{4} << 20);
    small = run == 0 ? s : std::min(small, s);
    large = run == 0 ? l : std::min(large, l);
  }
  EXPECT_LE(large, 4 * small) << "64 KiB bursts: " << small
                              << " us/request, a 4 MiB burst: " << large
                              << " us/request";
}

TEST(ConnStateTest, PayloadLanesGrowWithTheBytesReceived) {
  // A header alone holds no memory for its declared size: the lanes
  // offer room for one read's worth, then for twice what has arrived.
  constexpr std::uint64_t kWords = std::uint64_t{1} << 16;  // 512 KiB
  const std::string header = "EVALB c 4194304 " + std::to_string(kWords) +
                             "\n";
  const std::string first(8, '\x5a');
  ConnState state;
  state.append(header.data(), header.size());
  state.append(first.data(), first.size());
  ASSERT_EQ(state.advance(), ConnState::Step::kNeedInput);
  EXPECT_EQ(state.request_payload(), first);
  const std::size_t declared = kWords * sizeof(std::uint64_t);
  std::vector<std::size_t> offered;
  char fill = 0;
  while (state.missing_payload_bytes() > 0) {
    state.read_payload(state.missing_payload_bytes(),
                       [&](char* dst, std::size_t n) {
                         offered.push_back(n);
                         std::memset(dst, ++fill, n);
                         return n;
                       });
  }
  // 64 KiB - 8, then 64 KiB, 128 KiB, 256 KiB: never more room than
  // the bytes already received (or one 64 KiB read).
  ASSERT_EQ(offered.size(), 4u);
  EXPECT_EQ(offered[0], (std::size_t{64} << 10) - first.size());
  std::size_t received = first.size();
  for (const std::size_t n : offered) {
    EXPECT_LE(n, std::max(received, std::size_t{64} << 10));
    received += n;
  }
  EXPECT_EQ(received, declared);
  ASSERT_EQ(state.advance(), ConnState::Step::kRequest);
  const std::string_view payload = state.request_payload();
  ASSERT_EQ(payload.size(), declared);
  EXPECT_EQ(payload.substr(0, first.size()), first);
  EXPECT_EQ(payload.back(), fill);
  const logic::LaneWords words = state.take_payload_words();
  EXPECT_EQ(words.size(), kWords);
  EXPECT_TRUE(state.request_payload().empty());
}

TEST(ConnStateTest, TheFramedRecordCarriesTheParsedHead) {
  const auto framed = [](ConnState& state, const std::string& bytes) {
    state.append(bytes.data(), bytes.size());
    return state.advance();
  };
  {
    // A bulk header whose counts do not parse: no payload is awaited,
    // and the record says the stream is unframed.
    ConnState state;
    ASSERT_EQ(framed(state, "EVALB c x 8\n"), ConnState::Step::kRequest);
    const FramedRequest& r = state.request();
    EXPECT_FALSE(r.parsed());
    EXPECT_EQ(r.error, "EVALB pattern count 'x' is not a number");
    EXPECT_EQ(r.verb, Verb::kEvalB);
    EXPECT_EQ(r.payload_bytes(), 0u);
    EXPECT_TRUE(r.unframed());
  }
  {
    // A typo'd verb is an ordinary line that does not parse.
    ConnState state;
    ASSERT_EQ(framed(state, "EVALBATCH x\n"), ConnState::Step::kRequest);
    const FramedRequest& r = state.request();
    EXPECT_FALSE(r.parsed());
    EXPECT_EQ(r.error, "unknown verb 'EVALBATCH' (try HELP)");
    EXPECT_FALSE(r.verb.has_value());
    EXPECT_EQ(r.payload_bytes(), 0u);
    EXPECT_FALSE(r.unframed());
  }
  {
    // Over kMaxEvalbWords: it parses, but no payload is awaited; the
    // server answers ERR and drops the connection.
    ConnState state;
    ASSERT_EQ(framed(state, "EVALB c 1 16777217\n"),
              ConnState::Step::kRequest);
    const FramedRequest& r = state.request();
    EXPECT_TRUE(r.parsed());
    EXPECT_EQ(r.head.num_words, kMaxEvalbWords + 1);
    EXPECT_EQ(r.payload_bytes(), 0u);
    EXPECT_FALSE(r.unframed());
  }
  {
    // A well-formed header awaits its payload, which the taken record
    // carries with the line and the head.
    ConnState state;
    ASSERT_EQ(framed(state, "EVALB c 64 3\n"), ConnState::Step::kNeedInput);
    EXPECT_EQ(state.request().payload_bytes(), 24u);
    ASSERT_EQ(framed(state, std::string(24, '\x01')),
              ConnState::Step::kRequest);
    const FramedRequest r = state.take_request();
    EXPECT_EQ(r.line, "EVALB c 64 3");
    EXPECT_EQ(r.head.verb, Verb::kEvalB);
    EXPECT_EQ(r.head.num_patterns, 64u);
    EXPECT_EQ(r.payload.size(), 3u);
    state.finish_request(false);
    EXPECT_EQ(state.advance(), ConnState::Step::kNeedInput);
  }
}

/// Microseconds ConnState takes to frame `line` (newline included):
/// appended to a fresh ConnState, advanced to its request and finished.
double frame_us(const std::string& line) {
  ConnState state;
  const auto start = std::chrono::steady_clock::now();
  state.append(line.data(), line.size());
  EXPECT_EQ(state.advance(), ConnState::Step::kRequest);
  state.finish_request(false);
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(ConnStateTest, FramingALineDoesNotSplitItsPatterns) {
  // ConnState parses a line's head when it frames the line, on the
  // event loop; the hex tokens are split later, by whichever thread
  // serves the request. So a 1 MiB EVAL line of 1-digit tokens frames
  // about as fast as the same bytes behind an unknown verb, which the
  // head parse rejects at its first token. Splitting its half a million
  // tokens at framing would cost tens of milliseconds. A ratio survives
  // sanitizer slowdowns; the best of five interleaved runs survives a
  // loaded host.
  std::string eval = "EVAL c";
  while (eval.size() + 2 <= kMaxLineBytes) {
    eval += " 1";
  }
  std::string unknown = eval;
  unknown[0] = 'X';  // "XVAL": same bytes, unknown verb
  eval += '\n';
  unknown += '\n';
  double eval_us = 0;
  double unknown_us = 0;
  for (int run = 0; run < 5; ++run) {
    const double e = frame_us(eval);
    const double u = frame_us(unknown);
    eval_us = run == 0 ? e : std::min(eval_us, e);
    unknown_us = run == 0 ? u : std::min(unknown_us, u);
  }
  EXPECT_LE(eval_us, 4 * unknown_us)
      << "a 1 MiB EVAL line: " << eval_us << " us, behind an unknown verb: "
      << unknown_us << " us";
}

// ---------------------------------------------------------------------------
// Session: the LOAD pipeline and the sharded answer paths.
// ---------------------------------------------------------------------------

TEST(SessionTest, LoadEvalVerifyUnload) {
  const std::string path = write_sample_pla("serve_session.pla");
  Session session(/*workers=*/2);
  const std::shared_ptr<const LoadedCircuit> circuit = session.load("s", path);
  EXPECT_EQ(circuit->gnor.num_inputs(), 3);
  EXPECT_EQ(circuit->gnor.num_outputs(), 2);

  // EVAL answers must match direct evaluation of the mapped array.
  PatternBatch inputs = PatternBatch::exhaustive(3);
  const PatternBatch outputs = session.eval(session.get("s"), inputs);
  EXPECT_EQ(outputs, circuit->gnor.evaluate_batch(inputs));

  EXPECT_TRUE(session.verify(session.get("s")));
  // Second verify rides the cached reference tables.
  EXPECT_TRUE(session.verify(session.get("s")));
  // STATS counts the VERIFYs a Server runs, not direct Session calls.
  Server server(session);
  EXPECT_EQ(server.handle_line("VERIFY s"),
            "OK verified s: equivalent over 8 patterns");
  EXPECT_EQ(server.handle_line("VERIFY s"),
            "OK verified s: equivalent over 8 patterns");
  EXPECT_EQ(stats_field(server.handle_line("STATS"), "verifies"), 2u);

  session.unload("s");
  EXPECT_THROW(session.get("s"), Error);
  EXPECT_THROW(session.eval(session.get("s"), inputs), Error);
  // The shared_ptr handed out before the unload stays valid: an
  // in-flight evaluation can never dangle.
  EXPECT_EQ(circuit->gnor.num_inputs(), 3);
}

TEST(SessionTest, VerifyCatchesCorruptedArray) {
  const std::string path = write_sample_pla("serve_corrupt.pla");
  Session session(1);
  session.load("s", path);
  ASSERT_TRUE(session.verify(session.get("s")));
  // Sabotage the mapped array behind the session's back; VERIFY must
  // notice. (The const_cast stands in for radiation/defect drift — the
  // protocol has no mutation verb.)
  auto& gnor = const_cast<core::GnorPla&>(session.get("s")->gnor);
  gnor.set_buffer_inverted(0, !gnor.buffer_inverted(0));
  EXPECT_FALSE(session.verify(session.get("s")));
}

TEST(SessionTest, UnknownNamesThrow) {
  Session session(1);
  EXPECT_THROW(session.get("ghost"), Error);
  EXPECT_THROW(session.verify(session.get("ghost")), Error);
  EXPECT_THROW(session.unload("ghost"), Error);
}

TEST(SessionTest, ReloadReplacesCircuit) {
  const std::string path = write_sample_pla("serve_reload.pla");
  Session session(1);
  Server server(session);
  server.load("s", path);
  const Cover g = Cover::parse(2, 1, {"11 1"});
  const std::string path2 = testing::TempDir() + "/serve_reload2.pla";
  logic::write_pla_file(path2, logic::make_pla(g, "g"));
  server.load("s", path2);
  EXPECT_EQ(session.get("s")->gnor.num_inputs(), 2);
  const std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "loads"), 2u);
  EXPECT_EQ(stats_field(stats, "circuits"), 1u);
}

TEST(SessionTest, FailedLoadKeepsExistingCircuit) {
  const std::string path = write_sample_pla("serve_keep.pla");
  Session session(1);
  session.load("s", path);
  EXPECT_THROW(session.load("s", "/nonexistent/nope.pla"), Error);
  EXPECT_EQ(session.get("s")->gnor.num_inputs(), 3);
}

TEST(SessionTest, StatsAccumulate) {
  const std::string path = write_sample_pla("serve_stats.pla");
  Session session(1);
  Server server(session);
  server.load("a", path);
  server.load("b", path);
  const std::string all = " 0 1 2 3 4 5 6 7";  // 8 patterns
  EXPECT_TRUE(starts_with(server.handle_line("EVAL a" + all), "OK "));
  EXPECT_TRUE(starts_with(server.handle_line("EVAL b" + all), "OK "));
  std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "circuits"), 2u);
  EXPECT_EQ(stats_field(stats, "evals"), 2u);
  EXPECT_EQ(stats_field(stats, "patterns"), 16u);
  // Counters are cumulative: dropping or replacing circuits must never
  // make STATS go backwards.
  EXPECT_EQ(server.handle_line("UNLOAD a"), "OK unloaded a");
  server.load("b", path);
  stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "evals"), 2u);
  EXPECT_EQ(stats_field(stats, "patterns"), 16u);
  EXPECT_EQ(stats_field(stats, "circuits"), 1u);
  EXPECT_EQ(stats_field(stats, "loads"), 3u);
}

TEST(SessionTest, SimMatchesDirectSimulatorAndCounts) {
  const std::string path = write_sample_pla("serve_sim.pla");
  Session session(/*workers=*/2);
  const std::shared_ptr<const LoadedCircuit> circuit = session.load("s", path);

  const PatternBatch inputs = PatternBatch::exhaustive(3);
  const simulate::BatchSimResult served = session.sim(session.get("s"), inputs);
  // Reference: a directly built simulator over the SAME mapped array.
  simulate::GnorPlaSimulator direct(circuit->gnor,
                                    tech::default_cnfet_electrical());
  const simulate::BatchSimResult expected = direct.simulate_batch(inputs);
  EXPECT_EQ(served.outputs, expected.outputs);
  EXPECT_EQ(served.precharge_delay_s, expected.precharge_delay_s);
  EXPECT_EQ(served.plane1_eval_delay_s, expected.plane1_eval_delay_s);
  EXPECT_EQ(served.plane2_eval_delay_s, expected.plane2_eval_delay_s);
  EXPECT_TRUE(served.all_definite());

  // And against the functional batch path: the oracle chain holds
  // through the serve layer too.
  EXPECT_EQ(served.outputs, session.eval(session.get("s"), inputs));

  // A Server counts its SIMs and EVALs apart.
  Server server(session);
  const std::string all = " 0 1 2 3 4 5 6 7";
  EXPECT_TRUE(starts_with(server.handle_line("SIM s" + all), "OK "));
  EXPECT_TRUE(starts_with(server.handle_line("EVAL s" + all), "OK "));
  const std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "sims"), 1u);
  EXPECT_EQ(stats_field(stats, "sim_patterns"), 8u);
  EXPECT_EQ(stats_field(stats, "evals"), 1u);
  EXPECT_EQ(stats_field(stats, "patterns"), 8u);
  // Width mismatches surface as ambit::Error, same as eval.
  EXPECT_THROW(session.sim(session.get("s"), PatternBatch(2, 4)), Error);
  EXPECT_THROW(session.sim(session.get("ghost"), inputs), Error);
}

// ---------------------------------------------------------------------------
// Server over a stream pipe: the full protocol round trip.
// ---------------------------------------------------------------------------

TEST(ServerTest, StreamSessionRoundTrip) {
  const std::string path = write_sample_pla("serve_stream.pla");
  Session session(2);
  Server server(session);

  std::istringstream in("HELP\n"
                        "LOAD s " + path + "\n"
                        "EVAL s 0 7 3\n"
                        "VERIFY s\n"
                        "STATS\n"
                        "UNLOAD s\n"
                        "QUIT\n"
                        "EVAL s 0\n");  // after QUIT: must not be served
  std::ostringstream out;
  const std::uint64_t served = server.serve_stream(in, out);
  EXPECT_EQ(served, 7u);

  std::vector<std::string> lines;
  std::istringstream responses(out.str());
  for (std::string line; std::getline(responses, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_TRUE(starts_with(lines[0], "OK commands:"));
  EXPECT_TRUE(starts_with(lines[1], "OK loaded s: 3 inputs, 2 outputs"));
  // The sample cover on {000, 111, 110}: check against the real array.
  const core::GnorPla pla = core::GnorPla::map_cover(
      Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"}));
  const std::string expected =
      "OK " + hex_encode(pla.evaluate(hex_decode("0", 3))) + " " +
      hex_encode(pla.evaluate(hex_decode("7", 3))) + " " +
      hex_encode(pla.evaluate(hex_decode("3", 3)));
  EXPECT_EQ(lines[2], expected);
  EXPECT_TRUE(starts_with(lines[3], "OK verified s: equivalent over 8"));
  EXPECT_TRUE(starts_with(lines[4], "OK circuits=1"));
  EXPECT_EQ(lines[5], "OK unloaded s");
  EXPECT_EQ(lines[6], "OK bye");
}

TEST(ServerTest, ErrorsAreResponsesNotCrashes) {
  Session session(1);
  Server server(session);
  EXPECT_TRUE(starts_with(server.handle_line("NONSENSE"), "ERR"));
  EXPECT_TRUE(starts_with(server.handle_line("EVAL ghost ff"), "ERR"));
  EXPECT_TRUE(
      starts_with(server.handle_line("LOAD x /nonexistent/x.pla"), "ERR"));
}

TEST(ServerTest, MalformedPlaLoadReportsFileAndLine) {
  // A cube row wider than .i/.o declares must come back as an ERR
  // response carrying file:line context — the serve LOAD path makes
  // malformed input a routine event.
  const std::string path = testing::TempDir() + "/serve_malformed.pla";
  std::ofstream file(path);
  file << ".i 2\n.o 1\n101 1\n.e\n";
  file.close();
  Session session(1);
  Server server(session);
  const std::string response = server.handle_line("LOAD bad " + path);
  EXPECT_TRUE(starts_with(response, "ERR"));
  EXPECT_NE(response.find("serve_malformed:3"), std::string::npos) << response;
  EXPECT_NE(response.find(".i declares 2"), std::string::npos) << response;
}

TEST(ServerTest, BlankLinesAreIgnored) {
  Session session(1);
  Server server(session);
  std::istringstream in("\n   \nHELP\nQUIT\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 2u);
}

TEST(ServerTest, HandleLineRejectsEvalbWithoutTransport) {
  // handle_line is text-only; the binary payload needs a transport.
  Session session(1);
  Server server(session);
  EXPECT_TRUE(starts_with(server.handle_line("EVALB f 64 3"), "ERR"));
}

TEST(ServerTest, HandleLineRequestsAreRecordedLikeAnyOther) {
  // handle_line serves a batch of one through the path every transport
  // takes, so its requests land in the per-verb counters, the latency
  // histograms and the phase histograms like any other.
  const std::string path = write_sample_pla("serve_handle_line_metrics.pla");
  Session session(1);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  ASSERT_TRUE(starts_with(server.handle_line("LOAD s " + path), "OK loaded"));
  EXPECT_TRUE(starts_with(server.handle_line("EVAL s 7 0"), "OK "));
  const metrics::Counter* evals = registry.find_counter(
      "ambit_serve_requests_total", {{"verb", "EVAL"}});
  ASSERT_NE(evals, nullptr);
  EXPECT_EQ(evals->value(), 1u);
  const metrics::Histogram* latency = registry.find_histogram(
      "ambit_serve_request_us", {{"verb", "EVAL"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);
}

// ---------------------------------------------------------------------------
// METRICS: the Prometheus page framed over the line protocol.
// ---------------------------------------------------------------------------

/// Splits one "OK METRICS <nbytes>\n" + <nbytes> raw page bytes frame
/// off the front of `buffer`. Returns false until the frame is whole.
bool decode_metrics_response(const std::string& buffer, std::string& page,
                             std::size_t& consumed) {
  if (!starts_with(buffer, "OK METRICS ")) {
    return false;
  }
  const std::size_t eol = buffer.find('\n');
  if (eol == std::string::npos) {
    return false;
  }
  const std::size_t nbytes = static_cast<std::size_t>(
      std::stoull(buffer.substr(11, eol - 11)));
  if (buffer.size() < eol + 1 + nbytes) {
    return false;
  }
  page = buffer.substr(eol + 1, nbytes);
  consumed = eol + 1 + nbytes;
  return true;
}

TEST(ServerTest, MetricsVerbOverStreamLintsAndCountsExactly) {
  // METRICS is length-framed like the bulk verbs (the page is
  // multi-line, the protocol is line-oriented): the header declares the
  // byte count, the raw page follows, and the NEXT response line is
  // intact right after it.
  const std::string path = write_sample_pla("serve_metrics_stream.pla");
  Session session(1);
  metrics::Registry registry;  // fresh: counts are exactly this test's
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);

  std::istringstream in("LOAD s " + path + "\nEVAL s 7\nEVAL s 0\n" +
                        "METRICS\nQUIT\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 5u);

  const std::string wire = out.str();
  // Skip the LOAD and two EVAL response lines.
  std::size_t cursor = 0;
  for (int line = 0; line < 3; ++line) {
    cursor = wire.find('\n', cursor) + 1;
  }
  std::string page;
  std::size_t consumed = 0;
  ASSERT_TRUE(decode_metrics_response(wire.substr(cursor), page, consumed))
      << wire.substr(cursor, 200);
  EXPECT_EQ(wire.substr(cursor + consumed), "OK bye\n");

  const auto samples = testing_support::lint_prometheus_page(page);
  // Per-verb counters are bumped AFTER the response bytes go out, so
  // the page a METRICS request returns excludes that request itself.
  EXPECT_EQ(testing_support::prom_value(samples, "ambit_serve_requests_total",
                                        "verb=\"LOAD\""),
            1.0);
  EXPECT_EQ(testing_support::prom_value(samples, "ambit_serve_requests_total",
                                        "verb=\"EVAL\""),
            2.0);
  EXPECT_EQ(testing_support::prom_value(samples, "ambit_serve_requests_total",
                                        "verb=\"METRICS\""),
            0.0);
  EXPECT_EQ(testing_support::prom_value(samples, "ambit_serve_request_us_count",
                                        "verb=\"EVAL\""),
            2.0);
  EXPECT_EQ(testing_support::prom_value(samples,
                                        "ambit_serve_malformed_requests_total"),
            0.0);
  // The pool gauges are refreshed at scrape time (a <=1-worker session
  // runs inline: zero pool threads is the truthful answer).
  EXPECT_EQ(testing_support::prom_value(samples, "ambit_pool_workers"),
            static_cast<double>(session.pool().num_workers()));
}

TEST(ServerTest, HandleLineRejectsMetricsWithoutTransport) {
  // Like EVALB/SIMB: the one-line text entry point cannot carry the
  // multi-line page.
  Session session(1);
  Server server(session);
  EXPECT_TRUE(starts_with(server.handle_line("METRICS"), "ERR METRICS"));
}

TEST(ServerTest, ErrorResponsesBumpTheErrorCounter) {
  Session session(1);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::istringstream in("EVAL ghost ff\nNONSENSE\nSTATS\nQUIT\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 4u);
  const metrics::Counter* errors =
      registry.find_counter("ambit_serve_request_errors_total");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->value(), 2u);  // the bad EVAL and the unknown verb
  // An unparseable line counts as malformed, not under any verb.
  const metrics::Counter* malformed =
      registry.find_counter("ambit_serve_malformed_requests_total");
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->value(), 1u);
}

TEST(ServerTest, ServersWithoutARegistryCountApart) {
  // A Server given no registry owns one: two of them over one Session
  // each report only their own traffic, on STATS and on METRICS.
  const std::string path = write_sample_pla("serve_own_registry.pla");
  Session session(1);
  Server first(session);
  Server second(session);
  std::istringstream first_in("LOAD a " + path + "\nEVAL a 7 0\nQUIT\n");
  std::istringstream second_in("EVAL a 3\nQUIT\n");
  std::ostringstream out;
  EXPECT_EQ(first.serve_stream(first_in, out), 3u);
  EXPECT_EQ(second.serve_stream(second_in, out), 2u);

  const std::string first_stats = first.handle_line("STATS");
  const std::string second_stats = second.handle_line("STATS");
  EXPECT_EQ(stats_field(first_stats, "loads"), 1u);
  EXPECT_EQ(stats_field(first_stats, "evals"), 1u);
  EXPECT_EQ(stats_field(first_stats, "patterns"), 2u);
  EXPECT_EQ(stats_field(second_stats, "loads"), 0u);
  EXPECT_EQ(stats_field(second_stats, "evals"), 1u);
  EXPECT_EQ(stats_field(second_stats, "patterns"), 1u);

  const auto first_page =
      testing_support::lint_prometheus_page(first.metrics_page());
  const auto second_page =
      testing_support::lint_prometheus_page(second.metrics_page());
  for (const auto& [page, loads] :
       {std::pair{&first_page, 1.0}, std::pair{&second_page, 0.0}}) {
    EXPECT_EQ(testing_support::prom_value(*page, "ambit_serve_requests_total",
                                          "verb=\"LOAD\""),
              loads);
    EXPECT_EQ(testing_support::prom_value(*page, "ambit_serve_requests_total",
                                          "verb=\"EVAL\""),
              1.0);
    EXPECT_EQ(testing_support::prom_value(*page, "ambit_serve_requests_total",
                                          "verb=\"QUIT\""),
              1.0);
  }
}

TEST(ServerTest, SlowRequestsDumpTheirPhaseTrace) {
  // --slow-request-us 1 makes every request "slow": the warn record
  // must carry the full phase decomposition, rate-limited to one line.
  const std::string log_path = testing::TempDir() + "/serve_slow.log";
  std::remove(log_path.c_str());
  ASSERT_TRUE(logs::set_file(log_path));

  const std::string path = write_sample_pla("serve_slow.pla");
  Session session(1);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  options.slow_request_us = 1;
  Server server(session, options);
  std::istringstream in("LOAD s " + path + "\nEVAL s 7\nQUIT\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 3u);

  logs::set_file("");  // restore stderr before asserting
  std::ifstream log(log_path);
  std::ostringstream text_stream;
  text_stream << log.rdbuf();
  const std::string text = text_stream.str();
  EXPECT_NE(text.find("event=serve.slow_request"), std::string::npos) << text;
  for (const char* key :
       {"verb=", "total_us=", "parse_us=", "queue_wait_us=", "evaluate_us=",
        "serialize_us="}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "slow-request record missing " << key << ": " << text;
  }
}

/// `count` deterministic hex patterns over `width` inputs, each token
/// preceded by a space (the tail of an EVAL or SIM line).
std::string hex_patterns(int width, int count, std::uint64_t seed) {
  std::string tokens;
  std::uint64_t state = seed;
  for (int p = 0; p < count; ++p) {
    std::vector<bool> bits(static_cast<std::size_t>(width));
    for (int s = 0; s < width; ++s) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      bits[static_cast<std::size_t>(s)] = ((state >> 60) & 1) != 0;
    }
    tokens += ' ';
    tokens += hex_encode(bits);
  }
  return tokens;
}

TEST(ServerTest, EveryPhaseIsAttributedToItsRequest) {
  // An EVAL and a SIM record parse, evaluate and serialize; a VERIFY
  // records evaluate; a METRICS records serialize. Each request is
  // sized so each of its phases takes well over the 1 us the clock
  // resolves, because a 0 us phase is not recorded.
  constexpr int kInputs = 14;
  std::vector<std::string> rows;
  std::uint64_t state = 0x5EED;
  for (int p = 0; p < 40; ++p) {
    std::string row;
    for (int s = 0; s < kInputs; ++s) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      row += "01--"[(state >> 60) & 3];
    }
    row += ' ';
    for (int o = 0; o < 8; ++o) {
      row += (p + o) % 3 == 0 ? '1' : '0';
    }
    rows.push_back(row);
  }
  const std::string path = testing::TempDir() + "/serve_phases.pla";
  logic::write_pla_file(
      path, logic::make_pla(Cover::parse(kInputs, 8, rows), "phases"));
  Session session(1);
  session.load("c", path);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);

  const std::string wire = "EVAL c" + hex_patterns(kInputs, 2048, 1) +
                           "\nSIM c" + hex_patterns(kInputs, 128, 2) +
                           "\nVERIFY c\nMETRICS\n";
  bool fed = false;
  std::string out;
  EXPECT_EQ(server.serve_chunks(
                [&]() -> std::string {
                  if (fed) {
                    return {};
                  }
                  fed = true;
                  return wire;
                },
                out),
            4u);
  const metrics::Counter* errors =
      registry.find_counter("ambit_serve_request_errors_total");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->value(), 0u) << out.substr(0, 200);

  const auto phase_count = [&registry](const char* phase) {
    const metrics::Histogram* h =
        registry.find_histogram("ambit_serve_phase_us", {{"phase", phase}});
    EXPECT_NE(h, nullptr) << phase;
    return h != nullptr ? h->count() : 0;
  };
  EXPECT_EQ(phase_count("parse"), 2u);      // EVAL, SIM
  EXPECT_EQ(phase_count("evaluate"), 3u);   // EVAL, SIM, VERIFY
  EXPECT_EQ(phase_count("serialize"), 3u);  // EVAL, SIM, METRICS
  EXPECT_EQ(phase_count("queue_wait"), 0u);  // no pool hand-off here
}

TEST(ServerTest, LatencyHistogramsKeepTheirPowerOfTwoBounds) {
  // Every request and phase histogram child lists le = 1, 2, 4, ...,
  // 2^26 and +Inf: the lines dashboards and recording rules read.
  Session session(1);
  Server server(session);
  const auto samples =
      testing_support::lint_prometheus_page(server.metrics_page());
  std::set<std::string> wanted{"+Inf"};
  for (int p = 0; p <= 26; ++p) {
    wanted.insert(std::to_string(std::uint64_t{1} << p));
  }
  std::map<std::string, std::set<std::string>> les;  // child -> its le set
  for (const auto& s : samples) {
    if (s.name == "ambit_serve_request_us_bucket" ||
        s.name == "ambit_serve_phase_us_bucket") {
      les[s.name + "{" + testing_support::prom_labels_without(s.labels, "le") +
          "}"]
          .insert(testing_support::prom_label_value(s.labels, "le"));
    }
  }
  EXPECT_EQ(les.size(), verb_names().size() + metrics::kNumPhases);
  for (const auto& [child, child_les] : les) {
    for (const std::string& le : wanted) {
      EXPECT_EQ(child_les.count(le), 1u) << child << " lacks le=" << le;
    }
  }
}

// ---------------------------------------------------------------------------
// The EVALB binary bulk frame, over the stream transport.
// ---------------------------------------------------------------------------

/// A deterministic small batch over `width` signals (distinct per
/// (seed, size) so fused neighbours never accidentally match).
PatternBatch make_request_batch(int width, std::uint64_t num_patterns,
                                std::uint64_t seed) {
  PatternBatch batch(width, num_patterns);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (std::uint64_t p = 0; p < num_patterns; ++p) {
    for (int s = 0; s < width; ++s) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      batch.set(p, s, (state >> 60) & 1);
    }
  }
  return batch;
}

/// Raw little-endian bytes of a batch's packed lanes — the EVALB wire
/// payload.
std::string frame_payload(const PatternBatch& batch) {
  std::vector<std::uint64_t> words(batch.total_words());
  batch.store_words(words.data(), words.size());
  return std::string(reinterpret_cast<const char*>(words.data()),
                     words.size() * sizeof(std::uint64_t));
}

TEST(ServerTest, StatsIsExactWithMetricsOff) {
  // enable_metrics = false switches the per-request instrumentation
  // off, never the STATS counts: every verb that STATS counts is served
  // once, around an UNLOAD and a reload, and STATS is exact.
  const std::string path = write_sample_pla("serve_stats_off.pla");
  Session session(1);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  options.enable_metrics = false;
  Server server(session, options);
  const PatternBatch inputs = PatternBatch::exhaustive(3);  // 8 patterns
  std::ostringstream request;
  request << "LOAD s " << path << "\nEVAL s 7\n"
          << "EVALB s 8 " << inputs.total_words() << "\n"
          << frame_payload(inputs) << "SIM s 0 7 3\n"
          << "SIMB s 8 " << inputs.total_words() << "\n"
          << frame_payload(inputs) << "VERIFY s\nUNLOAD s\nLOAD s " << path
          << "\nSTATS\nQUIT\n";
  std::istringstream in(request.str());
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 10u);
  const std::string wire = out.str();
  const std::size_t at = wire.find("OK circuits=");
  ASSERT_NE(at, std::string::npos) << wire;
  EXPECT_EQ(wire.substr(at, wire.find('\n', at) - at),
            "OK circuits=1 loads=2 evals=2 patterns=9 sims=2 sim_patterns=11 "
            "verifies=1 workers=1 connections=0/0");
  // The instrumentation itself stayed off.
  const metrics::Counter* evals =
      registry.find_counter("ambit_serve_requests_total", {{"verb", "EVAL"}});
  ASSERT_NE(evals, nullptr);
  EXPECT_EQ(evals->value(), 0u);
}

TEST(ServerTest, PhasesAddUpToTheRequestTime) {
  // Each step of a request is charged to its total and to at most one
  // phase, so for every verb that records phases the phase sums add up
  // to the request time's sum exactly. Streams of one verb each, on a
  // registry of their own, compare the two; each stream but METRICS's
  // starts with a request answered with its ERR.
  const std::string path = write_sample_pla("serve_phase_sums.pla");
  Session session(1);
  session.load("s", path);
  const PatternBatch inputs = make_request_batch(3, 40, 5);
  const std::string words = " 40 " + std::to_string(inputs.total_words()) +
                            "\n" + frame_payload(inputs);
  const std::string bad_words = " 4 7\n" + std::string(56, 'x');
  struct Stream {
    std::string verb;
    std::string failing;
    std::string request;
    int count;
  };
  const std::vector<Stream> streams = {
      {"EVAL", "EVAL ghost 1\n", "EVAL s" + hex_patterns(3, 8, 1) + "\n",
       500},
      {"EVALB", "EVALB s" + bad_words, "EVALB s" + words, 100},
      {"SIM", "SIM s 1 zz\n", "SIM s" + hex_patterns(3, 8, 2) + "\n", 100},
      {"SIMB", "SIMB s" + bad_words, "SIMB s" + words, 50},
      {"VERIFY", "VERIFY ghost\n", "VERIFY s\n", 100},
      {"METRICS", "", "METRICS\n", 50},
  };
  for (const Stream& stream : streams) {
    metrics::Registry registry;
    ServerOptions options;
    options.registry = &registry;
    Server server(session, options);
    std::string wire = stream.failing;
    for (int k = 0; k < stream.count; ++k) {
      wire += stream.request;
    }
    bool fed = false;
    std::string out;
    server.serve_chunks(
        [&]() -> std::string {
          if (fed) {
            return {};
          }
          fed = true;
          return wire;
        },
        out);
    const metrics::Histogram* total = registry.find_histogram(
        "ambit_serve_request_us", {{"verb", stream.verb}});
    ASSERT_NE(total, nullptr) << stream.verb;
    EXPECT_EQ(total->count(),
              static_cast<std::uint64_t>(stream.count) +
                  (stream.failing.empty() ? 0 : 1))
        << stream.verb;
    const metrics::Counter* errors =
        registry.find_counter("ambit_serve_request_errors_total");
    ASSERT_NE(errors, nullptr);
    EXPECT_EQ(errors->value(), stream.failing.empty() ? 0u : 1u)
        << stream.verb;
    std::uint64_t phases_us = 0;
    for (std::size_t p = 0; p < metrics::kNumPhases; ++p) {
      const metrics::Histogram* phase = registry.find_histogram(
          "ambit_serve_phase_us",
          {{"phase", metrics::phase_name(static_cast<metrics::Phase>(p))}});
      ASSERT_NE(phase, nullptr);
      phases_us += phase->sum();
    }
    EXPECT_GT(total->sum(), 0u) << stream.verb;
    EXPECT_EQ(total->sum(), phases_us) << stream.verb;
  }
}

TEST(ServerTest, StreamEvalbRoundTrip) {
  const std::string path = write_sample_pla("serve_evalb.pla");
  Session session(1);
  Server server(session);

  // 130 patterns force a partial final word (130 % 64 != 0).
  constexpr std::uint64_t kPatterns = 130;
  PatternBatch inputs(3, kPatterns);
  for (std::uint64_t p = 0; p < kPatterns; ++p) {
    inputs.set_pattern(p, {(p & 1) != 0, (p & 2) != 0, (p & 4) != 0});
  }
  std::ostringstream request;
  request << "LOAD s " << path << "\n"
          << "EVALB s " << kPatterns << " " << inputs.total_words() << "\n"
          << frame_payload(inputs) << "QUIT\n";
  std::istringstream in(request.str());
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 3u);

  // Response stream: LOAD line, EVALB header line, raw payload, QUIT
  // line.
  const core::GnorPla pla = core::GnorPla::map_cover(
      Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"}));
  const PatternBatch expected = pla.evaluate_batch(inputs);
  std::istringstream response(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "OK loaded s"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_EQ(line, evalb_response_header(kPatterns, expected.total_words()));
  std::vector<std::uint64_t> out_words(expected.total_words());
  response.read(reinterpret_cast<char*>(out_words.data()),
                static_cast<std::streamsize>(out_words.size() *
                                             sizeof(std::uint64_t)));
  ASSERT_EQ(response.gcount(),
            static_cast<std::streamsize>(out_words.size() *
                                         sizeof(std::uint64_t)));
  PatternBatch outputs(expected.num_signals(), kPatterns);
  outputs.load_words(out_words.data(), out_words.size());
  EXPECT_EQ(outputs, expected);
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_EQ(line, "OK bye");

  // The session counted the bulk patterns exactly.
  EXPECT_EQ(stats_field(server.handle_line("STATS"), "patterns"), kPatterns);
}

TEST(ServerTest, EvalbLengthPrefixKeepsStreamFramedOnErrors) {
  // An unknown circuit and a wrong word count both consume exactly the
  // declared payload, answer ERR, and leave the NEXT request intact.
  const std::string path = write_sample_pla("serve_evalb_err.pla");
  Session session(1);
  Server server(session);
  PatternBatch inputs = PatternBatch::exhaustive(3);  // 8 patterns, 3 words

  std::ostringstream request;
  request << "EVALB ghost 8 3\n" << frame_payload(inputs)      // unknown name
          << "LOAD s " << path << "\n"
          << "EVALB s 8 7\n"                                   // wrong count
          << std::string(7 * sizeof(std::uint64_t), '\xab')
          << "EVALB s 0 0\n"                                   // no patterns
          << "STATS\nQUIT\n";
  std::istringstream in(request.str());
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 6u);

  std::istringstream response(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "ERR no circuit loaded under 'ghost'"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "OK loaded s"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "ERR EVALB"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "ERR EVALB needs at least one pattern"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "OK circuits=1"));
  EXPECT_EQ(stats_field(line, "evals"), 0u);  // no bulk request evaluated
}

TEST(ServerTest, EvalbHugePatternCountIsRejectedNotCrashing) {
  // A pattern count near 2^64 wraps (np + 63) / 64 to zero words; the
  // framing checks would all pass and the lane load would write out of
  // bounds. It must come back as a plain ERR on a live connection.
  const std::string path = write_sample_pla("serve_evalb_huge.pla");
  Session session(1);
  Server server(session);
  std::istringstream in("LOAD s " + path +
                        "\nEVALB s 18446744073709551553 0\nSTATS\nQUIT\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 4u);
  std::istringstream response(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(response, line));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "ERR EVALB pattern count")) << line;
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "OK circuits=1"));
}

TEST(ServerTest, EvalbPrefixedTypoVerbDoesNotDropConnection) {
  // Only the exact "EVALB" verb is unframed on a parse failure; a typo
  // sharing the prefix is an ordinary one-line request and serving
  // continues.
  Session session(1);
  Server server(session);
  std::istringstream in("EVALBATCH x ff\nSTATS\nQUIT\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 3u);
  EXPECT_NE(out.str().find("OK circuits=0"), std::string::npos);
}

TEST(ServerTest, EvalbOversizedHeaderDropsConnection) {
  // A header announcing more than kMaxEvalbWords must be refused
  // BEFORE any allocation, and the connection closed (the stream can
  // no longer be trusted).
  Session session(1);
  Server server(session);
  std::istringstream in("EVALB f 1 99999999999\nSTATS\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 1u);
  EXPECT_TRUE(starts_with(out.str(), "ERR EVALB payload"));
  EXPECT_EQ(out.str().find("OK circuits"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SIM / SIMB: switch-level timing queries over the serve layer.
// ---------------------------------------------------------------------------

/// Expected SIM token for pattern `bits` through a scalar simulation of
/// `gnor` — the independent oracle the served answers are checked
/// against (same formatting helper, values from per-pattern settles).
std::string expected_sim_token(const core::GnorPla& gnor,
                               const std::vector<bool>& bits) {
  simulate::GnorPlaSimulator sim(gnor, tech::default_cnfet_electrical());
  const simulate::PlaSimResult r = sim.simulate(bits);
  std::vector<bool> outputs;
  for (const simulate::Logic v : r.outputs) {
    outputs.push_back(v == simulate::Logic::k1);
  }
  return sim_token(outputs, r.precharge_delay_s, r.plane1_eval_delay_s,
                   r.plane2_eval_delay_s);
}

TEST(ServerTest, StreamSimRoundTripMatchesScalarSimulator) {
  const std::string path = write_sample_pla("serve_sim_stream.pla");
  Session session(1);
  Server server(session);
  std::istringstream in("LOAD s " + path + "\nSIM s 0 7 3\nQUIT\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 3u);

  std::vector<std::string> lines;
  std::istringstream responses(out.str());
  for (std::string line; std::getline(responses, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  const core::GnorPla& gnor = session.get("s")->gnor;
  const std::string expected = "OK " +
                               expected_sim_token(gnor, hex_decode("0", 3)) +
                               " " +
                               expected_sim_token(gnor, hex_decode("7", 3)) +
                               " " +
                               expected_sim_token(gnor, hex_decode("3", 3));
  EXPECT_EQ(lines[1], expected);
  const std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "sims"), 1u);
  EXPECT_EQ(stats_field(stats, "sim_patterns"), 3u);
}

TEST(ServerTest, SimErrorLines) {
  const std::string path = write_sample_pla("serve_sim_err.pla");
  Session session(1);
  Server server(session);
  // Unknown circuit.
  EXPECT_TRUE(starts_with(server.handle_line("SIM ghost 0"), "ERR no circuit"));
  ASSERT_TRUE(starts_with(server.handle_line("LOAD s " + path), "OK"));
  // Width mismatch: bit 3 set on a 3-input circuit.
  EXPECT_TRUE(starts_with(server.handle_line("SIM s 8"), "ERR"));
  // SIMB is binary-only in the text entry point, like EVALB.
  EXPECT_TRUE(starts_with(server.handle_line("SIMB s 8 3"), "ERR SIMB"));
  EXPECT_EQ(stats_field(server.handle_line("STATS"), "sims"), 0u);
}

TEST(ServerTest, StreamSimbRoundTrip) {
  const std::string path = write_sample_pla("serve_simb.pla");
  Session session(1);
  Server server(session);

  // 130 patterns force a partial final word.
  constexpr std::uint64_t kPatterns = 130;
  PatternBatch inputs(3, kPatterns);
  for (std::uint64_t p = 0; p < kPatterns; ++p) {
    inputs.set_pattern(p, {(p & 1) != 0, (p & 2) != 0, (p & 4) != 0});
  }
  std::ostringstream request;
  request << "LOAD s " << path << "\n"
          << "SIMB s " << kPatterns << " " << inputs.total_words() << "\n"
          << frame_payload(inputs) << "QUIT\n";
  std::istringstream in(request.str());
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 3u);

  // Reference: direct batch simulation of the loaded array.
  simulate::GnorPlaSimulator direct(session.get("s")->gnor,
                                    tech::default_cnfet_electrical());
  const simulate::BatchSimResult expected = direct.simulate_batch(inputs);
  const std::uint64_t lane_words = expected.outputs.total_words();
  const std::uint64_t response_words = lane_words + 3 * kPatterns;

  std::istringstream response(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "OK loaded s"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_EQ(line, simb_response_header(kPatterns, response_words));
  std::vector<std::uint64_t> out_words(response_words);
  response.read(reinterpret_cast<char*>(out_words.data()),
                static_cast<std::streamsize>(out_words.size() *
                                             sizeof(std::uint64_t)));
  ASSERT_EQ(response.gcount(),
            static_cast<std::streamsize>(out_words.size() *
                                         sizeof(std::uint64_t)));
  PatternBatch outputs(expected.outputs.num_signals(), kPatterns);
  outputs.load_words(out_words.data(), lane_words);
  EXPECT_EQ(outputs, expected.outputs);
  std::vector<double> pre(kPatterns), e1(kPatterns), e2(kPatterns);
  std::memcpy(pre.data(), out_words.data() + lane_words,
              kPatterns * sizeof(double));
  std::memcpy(e1.data(), out_words.data() + lane_words + kPatterns,
              kPatterns * sizeof(double));
  std::memcpy(e2.data(), out_words.data() + lane_words + 2 * kPatterns,
              kPatterns * sizeof(double));
  EXPECT_EQ(pre, expected.precharge_delay_s);
  EXPECT_EQ(e1, expected.plane1_eval_delay_s);
  EXPECT_EQ(e2, expected.plane2_eval_delay_s);
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_EQ(line, "OK bye");
  const std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "sim_patterns"), kPatterns);
  EXPECT_EQ(stats_field(stats, "patterns"), 0u);  // EVAL counters untouched
}

TEST(ServerTest, SimbErrorsKeepStreamFramed) {
  // Unknown name, wrong word count, zero patterns and an over-cap
  // pattern count all consume exactly the declared payload, answer one
  // ERR line, and leave the following requests intact.
  const std::string path = write_sample_pla("serve_simb_err.pla");
  Session session(1);
  Server server(session);
  PatternBatch inputs = PatternBatch::exhaustive(3);  // 8 patterns, 3 words

  std::ostringstream request;
  request << "SIMB ghost 8 3\n" << frame_payload(inputs)      // unknown name
          << "LOAD s " << path << "\n"
          << "SIMB s 8 7\n"                                   // wrong count
          << std::string(7 * sizeof(std::uint64_t), '\xcd')
          << "SIMB s 0 0\n"                                   // no patterns
          << "SIMB s " << (kMaxSimbPatterns + 1) << " 1\n"    // over the cap
          << std::string(sizeof(std::uint64_t), '\x11')
          << "STATS\nQUIT\n";
  std::istringstream in(request.str());
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 7u);

  std::istringstream response(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "ERR no circuit loaded under 'ghost'"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "OK loaded s"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "ERR SIMB"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "ERR SIMB needs at least one pattern"));
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "ERR SIMB pattern count")) << line;
  EXPECT_NE(line.find("simulation limit"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(response, line));
  EXPECT_TRUE(starts_with(line, "OK circuits=1"));
  EXPECT_EQ(stats_field(line, "sims"), 0u);  // no bulk request simulated
}

TEST(ServerTest, SimbOversizedHeaderDropsConnection) {
  Session session(1);
  Server server(session);
  std::istringstream in("SIMB f 1 99999999999\nSTATS\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 1u);
  EXPECT_TRUE(starts_with(out.str(), "ERR SIMB payload"));
  EXPECT_EQ(out.str().find("OK circuits"), std::string::npos);
}

TEST(ServerTest, MalformedSimbHeaderDropsConnection) {
  // Like EVALB: an unparseable SIMB header unframes the byte stream, so
  // the server answers ERR once and closes; a typo'd "SIMBx" verb stays
  // an ordinary one-line failure.
  Session session(1);
  Server server(session);
  {
    std::istringstream in("SIMB f nonsense 3\nSTATS\n");
    std::ostringstream out;
    EXPECT_EQ(server.serve_stream(in, out), 1u);
    EXPECT_EQ(out.str().find("OK circuits"), std::string::npos);
  }
  {
    std::istringstream in("SIMBATCH f 8 3\nSTATS\nQUIT\n");
    std::ostringstream out;
    EXPECT_EQ(server.serve_stream(in, out), 3u);
    EXPECT_NE(out.str().find("OK circuits=0"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// serve_stream against a lockstep peer: like a pipe client that waits
// for each answer, it sends request k+1 only once response k arrived.
// ---------------------------------------------------------------------------

/// The number of complete responses at the start of `out`: text lines,
/// and OK EVALB/SIMB headers together with their binary payloads.
std::size_t complete_responses(const std::string& out) {
  std::size_t count = 0;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) {
      return count;
    }
    const std::vector<std::string> tokens =
        split_ws(out.substr(pos, eol - pos));
    std::size_t payload = 0;
    if (tokens.size() == 4 && tokens[0] == "OK" &&
        (tokens[1] == "EVALB" || tokens[1] == "SIMB")) {
      payload = std::stoull(tokens[3]) * sizeof(std::uint64_t);
    }
    if (out.size() < eol + 1 + payload) {
      return count;
    }
    pos = eol + 1 + payload;
    ++count;
  }
}

/// A stream pair whose input releases request k+1 only after response k
/// has been written to the output. Reading past the released requests
/// hits EOF: where a real peer would leave a server that over-reads
/// blocked forever, this one makes it stop early and lose responses.
class LockstepPeer {
 public:
  explicit LockstepPeer(std::vector<std::string> requests)
      : requests_(std::move(requests)) {}
  LockstepPeer(const LockstepPeer&) = delete;
  LockstepPeer& operator=(const LockstepPeer&) = delete;

  std::istream& in() { return in_; }
  std::ostream& out() { return out_; }
  const std::string& responses() const { return responses_; }

 private:
  class Requests : public std::streambuf {
   public:
    explicit Requests(LockstepPeer& peer) : peer_(peer) {}

   protected:
    int_type underflow() override {
      if (peer_.released_ == peer_.requests_.size() ||
          complete_responses(peer_.responses_) < peer_.released_) {
        return traits_type::eof();
      }
      std::string& next = peer_.requests_[peer_.released_++];
      setg(next.data(), next.data(), next.data() + next.size());
      return traits_type::to_int_type(*gptr());
    }

   private:
    LockstepPeer& peer_;
  };

  /// Unbuffered, so every response byte is visible the moment the
  /// server writes it.
  class Responses : public std::streambuf {
   public:
    explicit Responses(LockstepPeer& peer) : peer_(peer) {}

   protected:
    int_type overflow(int_type c) override {
      if (!traits_type::eq_int_type(c, traits_type::eof())) {
        peer_.responses_ += traits_type::to_char_type(c);
      }
      return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      peer_.responses_.append(s, static_cast<std::size_t>(n));
      return n;
    }

   private:
    LockstepPeer& peer_;
  };

  std::vector<std::string> requests_;
  std::size_t released_ = 0;
  std::string responses_;
  Requests requests_buf_{*this};
  Responses responses_buf_{*this};
  std::istream in_{&requests_buf_};
  std::ostream out_{&responses_buf_};
};

TEST(ServerTest, StreamNeverReadsPastTheCurrentFrame) {
  // The EVALB payload holds no 0x0A byte, so a server that reads a
  // payload up to a newline — or reads a fixed-size block — runs into
  // the next, unreleased request.
  const std::string path = write_sample_pla("serve_lockstep.pla");
  const PatternBatch inputs = PatternBatch::exhaustive(3);
  const std::string payload = frame_payload(inputs);
  ASSERT_EQ(payload.find('\n'), std::string::npos);
  const std::string bulk = std::to_string(inputs.num_patterns()) + " " +
                           std::to_string(inputs.total_words()) + "\n";
  LockstepPeer peer({"LOAD s " + path + "\n", "EVAL s 7 0\n",
                     "EVALB s " + bulk + payload, "SIMB s " + bulk + payload,
                     "STATS\n", "QUIT\n"});
  Session session(1);
  Server server(session);
  EXPECT_EQ(server.serve_stream(peer.in(), peer.out()), 6u);
  EXPECT_EQ(complete_responses(peer.responses()), 6u);
  EXPECT_NE(peer.responses().find("OK EVALB 8 2\n"), std::string::npos);
  EXPECT_NE(peer.responses().find("OK SIMB 8 "), std::string::npos);
  EXPECT_TRUE(peer.responses().size() >= 7 &&
              peer.responses().compare(peer.responses().size() - 7, 7,
                                       "OK bye\n") == 0)
      << peer.responses();
}

// ---------------------------------------------------------------------------
// Server over a Unix-domain socket: a real client connection.
// ---------------------------------------------------------------------------

#ifdef __linux__  // the socket transports run on epoll

// connect_with_retry / socket_transact come from serve/client.h — the
// one shared Unix-socket client implementation used by these tests AND
// bench_serve_throughput.

TEST(ServerSocketTest, UnixSocketSessionEndToEnd) {
  const std::string path = write_sample_pla("serve_socket.pla");
  const std::string socket_path = testing::TempDir() + "/ambit_serve_test.sock";
  Session session(2);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;
  const std::vector<std::string> lines = socket_transact(
      fd,
      "LOAD s " + path + "\nEVAL s 7 0\nVERIFY s\nSTATS\nSHUTDOWN\n", 5);
  ::close(fd);
  server_thread.join();

  ASSERT_EQ(lines.size(), 5u);
  EXPECT_TRUE(starts_with(lines[0], "OK loaded s"));
  EXPECT_TRUE(starts_with(lines[1], "OK "));
  EXPECT_TRUE(starts_with(lines[2], "OK verified s"));
  EXPECT_TRUE(starts_with(lines[3], "OK circuits=1"));
  EXPECT_EQ(lines[4], "OK shutting down");
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(ServerSocketTest, UnixSocketServesConsecutiveConnections) {
  const std::string path = write_sample_pla("serve_socket2.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_test2.sock";
  Session session(1);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  // Connection 1 loads and quits; connection 2 still sees the circuit
  // (the session outlives connections), then shuts the server down.
  const int first = connect_with_retry(socket_path);
  ASSERT_GE(first, 0);
  const auto lines1 =
      socket_transact(first, "LOAD s " + path + "\nQUIT\n", 2);
  ::close(first);
  ASSERT_EQ(lines1.size(), 2u);
  EXPECT_TRUE(starts_with(lines1[0], "OK loaded s"));

  const int second = connect_with_retry(socket_path);
  ASSERT_GE(second, 0);
  const auto lines2 = socket_transact(second, "EVAL s 5\nSHUTDOWN\n", 2);
  ::close(second);
  server_thread.join();
  ASSERT_EQ(lines2.size(), 2u);
  EXPECT_TRUE(starts_with(lines2[0], "OK "));
}

TEST(ServerSocketTest, ConnectionsAreServedConcurrently) {
  // Regression for the sequential-accept prototype: with one client
  // connected and IDLE, a second client must still get answers. Under
  // sequential accept this deadlocks (the second connection sits in the
  // backlog until the first closes).
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_conc.sock";
  Session session(1);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int idle = connect_with_retry(socket_path);
  ASSERT_GE(idle, 0);
  const int active = connect_with_retry(socket_path);
  ASSERT_GE(active, 0);
  const auto lines = socket_transact(active, "STATS\nQUIT\n", 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[0], "OK circuits=0"));
  ::close(active);

  // The idle connection still works afterwards, then shuts down.
  const auto idle_lines = socket_transact(idle, "SHUTDOWN\n", 1);
  ASSERT_EQ(idle_lines.size(), 1u);
  EXPECT_EQ(idle_lines[0], "OK shutting down");
  ::close(idle);
  server_thread.join();
}

TEST(ServerSocketTest, ResidualEvalbHeaderAtEofFailsCleanly) {
  // An EVALB header that arrives WITHOUT its newline and payload before
  // the peer half-closes must not re-read its own header text as
  // payload — the payload read hits EOF and the connection just ends.
  const std::string path = write_sample_pla("serve_resid_evalb.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_residb.sock";
  Session session(1);
  session.load("s", path);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  const std::string request = "EVALB s 8 3";  // header only, no newline
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string buffer;
  char chunk[256];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(buffer, "");  // no bogus OK EVALB from self-consumed bytes
  EXPECT_EQ(stats_field(server.handle_line("STATS"), "evals"), 0u);
  // The truncated frame was never served, so it is not counted as a
  // served request; the connection counts as a malformed drop.
  const std::string page = server.metrics_page();
  EXPECT_NE(page.find("ambit_serve_requests_total{verb=\"EVALB\"} 0\n"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("ambit_serve_connections_dropped_total{reason="
                      "\"malformed\"} 1\n"),
            std::string::npos)
      << page;

  const int ctl = connect_with_retry(socket_path);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();
}

TEST(ServerSocketTest, OversizedRequestLineDropsConnection) {
  // A newline-free byte stream must not grow the receive buffer
  // without bound: past kMaxLineBytes the server answers ERR once and
  // drops the connection.
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_longline.sock";
  Session session(1);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  const std::string blob(kMaxLineBytes + (1 << 16), 'a');  // no newline
  std::size_t sent = 0;
  while (sent < blob.size()) {
    // MSG_NOSIGNAL: the server drops us mid-send (that's the point)
    // and EPIPE must not SIGPIPE the test process.
    const ssize_t n = ::send(fd, blob.data() + sent, blob.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string buffer;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_TRUE(starts_with(buffer, "ERR request line exceeds")) << buffer;

  const int ctl = connect_with_retry(socket_path);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();
}

TEST(ServerSocketTest, ShutdownInterruptsSlotWait) {
  // max_connections=1: connection B waits in the listen backlog while
  // A holds the only slot. A then issues SHUTDOWN — the server must
  // close B instead of serving one more connection.
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_slotwait.sock";
  Session session(1);
  ServerOptions slot_options;
  slot_options.max_connections = 1;
  Server server(session, slot_options);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int a = connect_with_retry(socket_path);
  ASSERT_GE(a, 0);
  // Make sure A owns the slot before B arrives.
  ASSERT_EQ(socket_transact(a, "STATS\n", 1).size(), 1u);
  const int b = connect_with_retry(socket_path);
  ASSERT_GE(b, 0);
  const std::string probe = "STATS\n";
  ASSERT_EQ(::send(b, probe.data(), probe.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(probe.size()));

  const auto lines = socket_transact(a, "SHUTDOWN\n", 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "OK shutting down");
  ::close(a);
  server_thread.join();

  // B was dropped, never served: EOF — or ECONNRESET when the close
  // discarded B's unread request bytes — but never a response.
  char extra;
  EXPECT_LE(::read(b, &extra, 1), 0);
  ::close(b);
}

TEST(ServerSocketTest, ShutdownDrainsInTheTurnThatAnsweredIt) {
  // SHUTDOWN is answered in a loop turn's batch, and its drain must
  // start in that same turn: once the answer is out, the loop reads
  // nothing more. B was served once, so it is connected and waiting; a
  // request it sends after A has read the answer gets no response.
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_drainturn.sock";
  Session session(1);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int a = connect_with_retry(socket_path);
  ASSERT_GE(a, 0);
  const int b = connect_with_retry(socket_path);
  ASSERT_GE(b, 0);
  ASSERT_EQ(socket_transact(b, "STATS\n", 1).size(), 1u);
  const auto lines = socket_transact(a, "SHUTDOWN\n", 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "OK shutting down");
  // The drain may have closed B already; then this send fails (EPIPE).
  const std::string late = "STATS\n";
  (void)::send(b, late.data(), late.size(), MSG_NOSIGNAL);
  // EOF — or ECONNRESET if the close found the late bytes unread — but
  // never a response.
  char extra;
  EXPECT_LE(::read(b, &extra, 1), 0);
  ::close(b);
  ::close(a);
  server_thread.join();
}

TEST(ServerSocketTest, ResidualLineWithoutNewlineIsServed) {
  // A final request that arrives without a trailing '\n' before the
  // peer half-closes must be served, not silently dropped.
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_resid.sock";
  Session session(1);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  const std::string request = "STATS";  // no newline
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);  // EOF on the server's read side
  std::string buffer;
  char chunk[256];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_TRUE(starts_with(buffer, "OK circuits=0")) << buffer;

  const int ctl = connect_with_retry(socket_path);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();
}

TEST(ServerSocketTest, PipelinedLinesAfterQuitAreDiscarded) {
  // Complete lines already buffered behind a QUIT (or SHUTDOWN) must
  // not be half-processed: the quit response is the last one, and the
  // pipelined LOAD never happens.
  const std::string path = write_sample_pla("serve_postquit.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_postquit.sock";
  Session session(1);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  // One write carries QUIT plus a trailing LOAD in the same buffer.
  const auto lines =
      socket_transact(fd, "QUIT\nLOAD s " + path + "\n", 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "OK bye");
  // The connection is closed: no further response ever arrives.
  char extra;
  EXPECT_EQ(::read(fd, &extra, 1), 0);
  ::close(fd);
  EXPECT_EQ(stats_field(server.handle_line("STATS"), "loads"), 0u);

  const int ctl = connect_with_retry(socket_path);
  ASSERT_GE(ctl, 0);
  // Same drain contract for SHUTDOWN: the pipelined LOAD is discarded.
  const auto ctl_lines =
      socket_transact(ctl, "SHUTDOWN\nLOAD s " + path + "\n", 1);
  ASSERT_EQ(ctl_lines.size(), 1u);
  EXPECT_EQ(ctl_lines[0], "OK shutting down");
  ::close(ctl);
  server_thread.join();
  EXPECT_EQ(stats_field(server.handle_line("STATS"), "loads"), 0u);
}

TEST(ServerSocketTest, RefusesToStealLiveSocket) {
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_live.sock";
  Session session(1);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });
  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);  // the first server is live

  // A second server must fail loudly instead of silently unlinking the
  // live listener's socket.
  Session session2(1);
  Server server2(session2);
  EXPECT_THROW(server2.serve_unix(socket_path), Error);

  // The first server is unharmed.
  const auto lines = socket_transact(fd, "SHUTDOWN\n", 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "OK shutting down");
  ::close(fd);
  server_thread.join();
}

TEST(ServerSocketTest, ReplacesStaleSocketFile) {
  // A leftover socket file with no listener behind it (e.g. after a
  // crash) must be replaced, not reported as a conflict.
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_stale.sock";
  ::unlink(socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(stale);  // socket file remains, nobody listens

  Session session(1);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });
  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  const auto lines = socket_transact(fd, "HELP\nSHUTDOWN\n", 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[0], "OK commands:"));
  ::close(fd);
  server_thread.join();
}

TEST(ServerSocketTest, MultiClientHammerMatchesSequentialServing) {
  // >= 4 client threads hammer one server; every response must be
  // bit-identical to what sequential serving (== direct evaluation of
  // the mapped array) would produce, and the exact-request counters
  // must add up.
  const std::string path = write_sample_pla("serve_hammer.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_hammer.sock";
  Session session(/*workers=*/2);
  session.load("s", path);
  const core::GnorPla pla = core::GnorPla::map_cover(
      Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"}));
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::vector<int> mismatches(kClients, 0);
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_with_retry(socket_path);
      if (fd < 0) {
        failures[static_cast<std::size_t>(c)] = 1;
        return;
      }
      std::string requests;
      std::vector<std::string> expected;
      for (int r = 0; r < kRequestsPerClient; ++r) {
        // Client-distinct pattern pairs covering the whole input space.
        const int a = (c + r) % 8;
        const int b = (c * 3 + r * 5) % 8;
        const std::string ha = hex_encode(
            {(a & 1) != 0, (a & 2) != 0, (a & 4) != 0});
        const std::string hb = hex_encode(
            {(b & 1) != 0, (b & 2) != 0, (b & 4) != 0});
        requests += "EVAL s " + ha + " " + hb + "\n";
        expected.push_back(
            "OK " +
            hex_encode(pla.evaluate(hex_decode(ha, 3))) + " " +
            hex_encode(pla.evaluate(hex_decode(hb, 3))));
      }
      requests += "QUIT\n";
      const std::vector<std::string> lines = socket_transact(
          fd, requests, static_cast<std::size_t>(kRequestsPerClient) + 1);
      ::close(fd);
      if (lines.size() != static_cast<std::size_t>(kRequestsPerClient) + 1) {
        failures[static_cast<std::size_t>(c)] = 1;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        if (lines[static_cast<std::size_t>(r)] !=
            expected[static_cast<std::size_t>(r)]) {
          ++mismatches[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
    EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0) << "client " << c;
  }

  const int ctl = connect_with_retry(socket_path);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();

  // Counters stayed exact under concurrency.
  const std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "evals"),
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(stats_field(stats, "patterns"),
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient * 2);
}

TEST(ServerSocketTest, UnixSocketEvalbRoundTrip) {
  // The binary bulk frame over the real socket transport, pipelined in
  // one write together with its header and a QUIT.
  const std::string path = write_sample_pla("serve_evalb_sock.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_evalb.sock";
  Session session(1);
  session.load("s", path);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  PatternBatch inputs = PatternBatch::exhaustive(3);
  const core::GnorPla pla = core::GnorPla::map_cover(
      Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"}));
  const PatternBatch expected = pla.evaluate_batch(inputs);

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  std::ostringstream request;
  request << "EVALB s " << inputs.num_patterns() << " "
          << inputs.total_words() << "\n"
          << frame_payload(inputs) << "SHUTDOWN\n";
  const std::string wire = request.str();
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  std::string buffer;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server_thread.join();

  std::vector<std::uint64_t> out_words;
  std::size_t consumed = 0;
  ASSERT_TRUE(decode_evalb_response(buffer, expected.num_patterns(),
                                    expected.total_words(), out_words,
                                    consumed))
      << buffer;
  PatternBatch outputs(expected.num_signals(), expected.num_patterns());
  outputs.load_words(out_words.data(), out_words.size());
  EXPECT_EQ(outputs, expected);
  EXPECT_EQ(buffer.substr(consumed), "OK shutting down\n");
}

TEST(ServerSocketTest, UnixSocketSimAndSimbRoundTrip) {
  // SIM (text) and SIMB (binary frame) over the real socket transport,
  // checked against scalar and batch simulation of the loaded array.
  const std::string path = write_sample_pla("serve_sim_sock.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_simb.sock";
  Session session(1);
  session.load("s", path);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const core::GnorPla& gnor = session.get("s")->gnor;

  // Text SIM first: one request line, one token per pattern.
  const int sim_fd = connect_with_retry(socket_path);
  ASSERT_GE(sim_fd, 0);
  const auto sim_lines = socket_transact(sim_fd, "SIM s 7 0\nQUIT\n", 2);
  ::close(sim_fd);
  ASSERT_EQ(sim_lines.size(), 2u);
  EXPECT_EQ(sim_lines[0], "OK " + expected_sim_token(gnor, hex_decode("7", 3)) +
                              " " + expected_sim_token(gnor, hex_decode("0", 3)));

  // Binary SIMB, pipelined with SHUTDOWN in one write.
  PatternBatch inputs = PatternBatch::exhaustive(3);
  simulate::GnorPlaSimulator direct(gnor, tech::default_cnfet_electrical());
  const simulate::BatchSimResult expected = direct.simulate_batch(inputs);
  const std::uint64_t lane_words = expected.outputs.total_words();
  const std::uint64_t response_words =
      lane_words + 3 * inputs.num_patterns();

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  std::ostringstream request;
  request << "SIMB s " << inputs.num_patterns() << " "
          << inputs.total_words() << "\n"
          << frame_payload(inputs) << "SHUTDOWN\n";
  const std::string wire = request.str();
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  std::string buffer;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server_thread.join();

  std::vector<std::uint64_t> out_words;
  std::size_t consumed = 0;
  ASSERT_TRUE(decode_simb_response(buffer, inputs.num_patterns(),
                                   response_words, out_words, consumed))
      << buffer;
  PatternBatch outputs(expected.outputs.num_signals(), inputs.num_patterns());
  outputs.load_words(out_words.data(), lane_words);
  EXPECT_EQ(outputs, expected.outputs);
  std::vector<double> pre(inputs.num_patterns());
  std::memcpy(pre.data(), out_words.data() + lane_words,
              pre.size() * sizeof(double));
  EXPECT_EQ(pre, expected.precharge_delay_s);
  EXPECT_EQ(buffer.substr(consumed), "OK shutting down\n");
  const std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "sims"), 2u);  // one SIM + one SIMB
  EXPECT_EQ(stats_field(stats, "sim_patterns"), 10u);
}

TEST(ServerSocketTest, MultiClientHammerMixesEvalbAndSimb) {
  // >= 4 clients interleave EVALB and SIMB bulk frames against the SAME
  // loaded circuit on one shared session: every binary response must be
  // bit-identical to direct evaluation/simulation, and the exact
  // counters must add up afterwards.
  const std::string path = write_sample_pla("serve_mixed_hammer.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_mixhammer.sock";
  Session session(/*workers=*/2);
  session.load("s", path);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  PatternBatch inputs = PatternBatch::exhaustive(3);
  const core::GnorPla& gnor = session.get("s")->gnor;
  const PatternBatch expected_eval = gnor.evaluate_batch(inputs);
  simulate::GnorPlaSimulator direct(gnor, tech::default_cnfet_electrical());
  const simulate::BatchSimResult expected_sim = direct.simulate_batch(inputs);
  std::vector<std::uint64_t> expected_eval_words(
      expected_eval.total_words());
  expected_eval.store_words(expected_eval_words.data(),
                            expected_eval_words.size());
  const std::uint64_t lane_words = expected_sim.outputs.total_words();
  const std::uint64_t simb_words = lane_words + 3 * inputs.num_patterns();
  std::vector<std::uint64_t> expected_simb_words(simb_words);
  expected_sim.outputs.store_words(expected_simb_words.data(), lane_words);
  std::memcpy(expected_simb_words.data() + lane_words,
              expected_sim.precharge_delay_s.data(),
              inputs.num_patterns() * sizeof(double));
  std::memcpy(expected_simb_words.data() + lane_words + inputs.num_patterns(),
              expected_sim.plane1_eval_delay_s.data(),
              inputs.num_patterns() * sizeof(double));
  std::memcpy(
      expected_simb_words.data() + lane_words + 2 * inputs.num_patterns(),
      expected_sim.plane2_eval_delay_s.data(),
      inputs.num_patterns() * sizeof(double));

  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 20;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_with_retry(socket_path);
      if (fd < 0) {
        failures[static_cast<std::size_t>(c)] = 1;
        return;
      }
      std::ostringstream request;
      for (int r = 0; r < kRoundsPerClient; ++r) {
        request << "EVALB s " << inputs.num_patterns() << " "
                << inputs.total_words() << "\n"
                << frame_payload(inputs)
                << "SIMB s " << inputs.num_patterns() << " "
                << inputs.total_words() << "\n"
                << frame_payload(inputs);
      }
      request << "QUIT\n";
      const std::string wire = request.str();
      std::size_t sent = 0;
      while (sent < wire.size()) {
        const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n <= 0) {
          break;
        }
        sent += static_cast<std::size_t>(n);
      }
      std::string buffer;
      char chunk[65536];
      for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
      ::close(fd);
      // Parse the pipelined responses in order; any deviation from the
      // expected frames counts as a failure.
      std::size_t cursor = 0;
      for (int r = 0; r < kRoundsPerClient; ++r) {
        std::vector<std::uint64_t> words;
        std::size_t consumed = 0;
        if (!decode_evalb_response(buffer.substr(cursor),
                                   inputs.num_patterns(),
                                   expected_eval_words.size(), words,
                                   consumed) ||
            words != expected_eval_words) {
          failures[static_cast<std::size_t>(c)] = 1;
          return;
        }
        cursor += consumed;
        if (!decode_simb_response(buffer.substr(cursor),
                                  inputs.num_patterns(), simb_words, words,
                                  consumed) ||
            words != expected_simb_words) {
          failures[static_cast<std::size_t>(c)] = 1;
          return;
        }
        cursor += consumed;
      }
      if (buffer.substr(cursor) != "OK bye\n") {
        failures[static_cast<std::size_t>(c)] = 1;
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
  }

  const int ctl = connect_with_retry(socket_path);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();

  // Counters stayed exact under mixed concurrent bulk traffic.
  const std::string stats = server.handle_line("STATS");
  const std::uint64_t rounds =
      static_cast<std::uint64_t>(kClients) * kRoundsPerClient;
  EXPECT_EQ(stats_field(stats, "evals"), rounds);
  EXPECT_EQ(stats_field(stats, "patterns"), rounds * inputs.num_patterns());
  EXPECT_EQ(stats_field(stats, "sims"), rounds);
  EXPECT_EQ(stats_field(stats, "sim_patterns"),
            rounds * inputs.num_patterns());
}

// ---------------------------------------------------------------------------
// TCP transport: the same event loop, framing, drain and limits over
// AF_INET.
// ---------------------------------------------------------------------------

/// Starts `server` on an ephemeral TCP port on its own thread. Any
/// server-side exception (e.g. a sandbox that refuses the bind) is
/// caught and signalled as port = -1 — escaping a bare thread body
/// would std::terminate the whole test binary instead of failing one
/// test. Callers learn the port with serve::await_bound_port(port)
/// and must ASSERT it positive.
std::thread start_tcp_server(Server& server, std::atomic<int>& port,
                             const std::string& host = "127.0.0.1") {
  return std::thread([&server, &port, host] {
    try {
      server.serve_tcp(host, 0, &port);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_tcp failed: %s\n", e.what());
      port.store(-1, std::memory_order_release);
    }
  });
}

TEST(TcpSocketTest, SessionEndToEnd) {
  const std::string path = write_sample_pla("serve_tcp.pla");
  Session session(2);
  Server server(session);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);

  const int fd = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(fd, 0) << "could not connect to 127.0.0.1:" << bound;
  const std::vector<std::string> lines = socket_transact(
      fd,
      "LOAD s " + path + "\nEVAL s 7 0\nVERIFY s\nSTATS\nSHUTDOWN\n", 5);
  ::close(fd);
  server_thread.join();

  ASSERT_EQ(lines.size(), 5u);
  EXPECT_TRUE(starts_with(lines[0], "OK loaded s"));
  EXPECT_TRUE(starts_with(lines[1], "OK "));
  EXPECT_TRUE(starts_with(lines[2], "OK verified s"));
  EXPECT_TRUE(starts_with(lines[3], "OK circuits=1"));
  EXPECT_EQ(lines[4], "OK shutting down");
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(TcpSocketTest, ConnectionsAreServedConcurrently) {
  // Same regression as the Unix transport: one idle connected client
  // must not starve a second one — they share the concurrent accept
  // loop, not a sequential prototype.
  Session session(1);
  Server server(session);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port, "localhost");
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);

  const int idle = connect_tcp_with_retry("localhost", bound);
  ASSERT_GE(idle, 0);
  const int active = connect_tcp_with_retry("localhost", bound);
  ASSERT_GE(active, 0);
  const auto lines = socket_transact(active, "STATS\nQUIT\n", 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[0], "OK circuits=0"));
  ::close(active);

  // The idle connection still works afterwards — and its SHUTDOWN
  // drains the server gracefully while it is itself still connected.
  const auto idle_lines = socket_transact(idle, "SHUTDOWN\n", 1);
  ASSERT_EQ(idle_lines.size(), 1u);
  EXPECT_EQ(idle_lines[0], "OK shutting down");
  ::close(idle);
  server_thread.join();
}

TEST(TcpSocketTest, EvalbAndSimbRoundTrip) {
  // Both binary bulk frames over a real TCP socket, pipelined with the
  // SHUTDOWN that drains the server: decoded lanes (and SIMB's delay
  // arrays) must match direct evaluation/simulation bit for bit.
  const std::string path = write_sample_pla("serve_tcp_bulk.pla");
  Session session(1);
  session.load("s", path);
  Server server(session);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);

  PatternBatch inputs = PatternBatch::exhaustive(3);
  const core::GnorPla& gnor = session.get("s")->gnor;
  const PatternBatch expected = gnor.evaluate_batch(inputs);
  simulate::GnorPlaSimulator direct(gnor, tech::default_cnfet_electrical());
  const simulate::BatchSimResult expected_sim = direct.simulate_batch(inputs);
  const std::uint64_t lane_words = expected_sim.outputs.total_words();
  const std::uint64_t simb_words = lane_words + 3 * inputs.num_patterns();

  const int fd = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(fd, 0);
  std::ostringstream request;
  request << "EVALB s " << inputs.num_patterns() << " "
          << inputs.total_words() << "\n"
          << frame_payload(inputs) << "SIMB s " << inputs.num_patterns()
          << " " << inputs.total_words() << "\n"
          << frame_payload(inputs) << "SHUTDOWN\n";
  const std::string wire = request.str();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  std::string buffer;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server_thread.join();

  std::vector<std::uint64_t> out_words;
  std::size_t consumed = 0;
  ASSERT_TRUE(decode_evalb_response(buffer, expected.num_patterns(),
                                    expected.total_words(), out_words,
                                    consumed))
      << buffer;
  PatternBatch outputs(expected.num_signals(), expected.num_patterns());
  outputs.load_words(out_words.data(), out_words.size());
  EXPECT_EQ(outputs, expected);
  std::size_t sim_consumed = 0;
  ASSERT_TRUE(decode_simb_response(buffer.substr(consumed),
                                   inputs.num_patterns(), simb_words,
                                   out_words, sim_consumed))
      << buffer.substr(consumed);
  PatternBatch sim_outputs(expected_sim.outputs.num_signals(),
                           inputs.num_patterns());
  sim_outputs.load_words(out_words.data(), lane_words);
  EXPECT_EQ(sim_outputs, expected_sim.outputs);
  std::vector<double> pre(inputs.num_patterns());
  std::memcpy(pre.data(), out_words.data() + lane_words,
              pre.size() * sizeof(double));
  EXPECT_EQ(pre, expected_sim.precharge_delay_s);
  EXPECT_EQ(buffer.substr(consumed + sim_consumed), "OK shutting down\n");
}

TEST(TcpSocketTest, OversizedRequestLineDropsConnection) {
  // The kMaxLineBytes boundary is transport-agnostic: the TCP side
  // must answer ERR once and drop, exactly like the Unix side.
  Session session(1);
  Server server(session);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);

  const int fd = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(fd, 0);
  const std::string blob(kMaxLineBytes + (1 << 16), 'a');  // no newline
  std::size_t sent = 0;
  while (sent < blob.size()) {
    const ssize_t n = ::send(fd, blob.data() + sent, blob.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string buffer;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_TRUE(starts_with(buffer, "ERR request line exceeds")) << buffer;

  const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();
}

TEST(TcpSocketTest, IdleTimeoutDropsSilentPeer) {
  // ServerOptions::idle_timeout_secs reaches the TCP transport through
  // the shared listener loop: a peer that never sends is dropped after
  // the timeout, and the freed slot still serves new connections.
  Session session(1);
  ServerOptions options;
  options.idle_timeout_secs = 1;
  Server server(session, options);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);

  const int silent = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(silent, 0);
  // Say nothing: the server's idle timeout must cut us loose. A clean
  // drop shows up as EOF (or a reset) on our read side within a couple
  // of timeout periods.
  char byte;
  const ssize_t n = ::read(silent, &byte, 1);
  EXPECT_LE(n, 0);
  ::close(silent);

  const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(ctl, 0);
  const auto lines = socket_transact(ctl, "STATS\nSHUTDOWN\n", 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[0], "OK circuits=0"));
  ::close(ctl);
  server_thread.join();
}

TEST(TcpSocketTest, MultiClientHammerMatchesDirectEvaluation) {
  // The concurrent hammer of the Unix suite over TCP: four clients,
  // client-distinct patterns, every response checked against direct
  // evaluation, exact counters, graceful SHUTDOWN drain at the end.
  const std::string path = write_sample_pla("serve_tcp_hammer.pla");
  Session session(/*workers=*/2);
  session.load("s", path);
  const core::GnorPla pla = core::GnorPla::map_cover(
      Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"}));
  Server server(session);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::vector<int> mismatches(kClients, 0);
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_tcp_with_retry("127.0.0.1", bound);
      if (fd < 0) {
        failures[static_cast<std::size_t>(c)] = 1;
        return;
      }
      std::string requests;
      std::vector<std::string> expected;
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int a = (c + r) % 8;
        const int b = (c * 3 + r * 5) % 8;
        const std::string ha = hex_encode(
            {(a & 1) != 0, (a & 2) != 0, (a & 4) != 0});
        const std::string hb = hex_encode(
            {(b & 1) != 0, (b & 2) != 0, (b & 4) != 0});
        requests += "EVAL s " + ha + " " + hb + "\n";
        expected.push_back(
            "OK " +
            hex_encode(pla.evaluate(hex_decode(ha, 3))) + " " +
            hex_encode(pla.evaluate(hex_decode(hb, 3))));
      }
      requests += "QUIT\n";
      const std::vector<std::string> lines = socket_transact(
          fd, requests, static_cast<std::size_t>(kRequestsPerClient) + 1);
      ::close(fd);
      if (lines.size() != static_cast<std::size_t>(kRequestsPerClient) + 1) {
        failures[static_cast<std::size_t>(c)] = 1;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        if (lines[static_cast<std::size_t>(r)] !=
            expected[static_cast<std::size_t>(r)]) {
          ++mismatches[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
    EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0) << "client " << c;
  }

  const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();

  const std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "evals"),
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(stats_field(stats, "patterns"),
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient * 2);
}

/// Runs a callable when the scope ends, however it ends.
class OnScopeExit {
 public:
  explicit OnScopeExit(std::function<void()> run) : run_(std::move(run)) {}
  ~OnScopeExit() { run_(); }
  OnScopeExit(const OnScopeExit&) = delete;
  OnScopeExit& operator=(const OnScopeExit&) = delete;

 private:
  std::function<void()> run_;
};

/// Reads the next response line from `fd` into `line`, waiting at most
/// `timeout` for it (a zero timeout still checks once). `pending`
/// carries bytes read past the line into the next call. False on
/// timeout, EOF or a read error.
bool read_line_within(int fd, std::string& pending, std::string& line,
                      std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const std::size_t newline = pending.find('\n');
    if (newline != std::string::npos) {
      line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::max<long long>(0, left.count())));
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    pending.append(chunk, static_cast<std::size_t>(n));
  }
}

/// A 4-pattern EVAL line for the sample circuit and its expected
/// response, computed by direct GnorPla::evaluate; `r` picks the
/// patterns.
std::pair<std::string, std::string> sample_eval(const core::GnorPla& pla,
                                                int r) {
  std::string request = "EVAL s";
  std::string expected = "OK";
  for (int k = 0; k < 4; ++k) {
    const int v = (r + 3 * k) % 8;
    const std::vector<bool> bits = {(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    request += ' ';
    request += hex_encode(bits);
    expected += ' ';
    expected += hex_encode(pla.evaluate(bits));
  }
  return {request + "\n", expected};
}

TEST(TcpSocketTest, LoopServesCheapRequestsWhileThePoolIsSaturated) {
  // A one-word EVAL, STATS and HELP run on the loop thread, so they are
  // answered while every pool worker is held; a VERIFY queues for a
  // worker, and that wait is its queue_wait phase.
  const std::string path = write_sample_pla("serve_saturated.pla");
  Session session(/*workers=*/2);
  session.load("s", path);
  const core::GnorPla pla = core::GnorPla::map_cover(
      Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"}));
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);

  std::atomic<bool> release{false};
  std::atomic<int> held{0};
  for (int w = 0; w < session.pool().num_workers(); ++w) {
    session.pool().submit([&] {
      held.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  int evals = -1;
  int verifies = -1;
  // However the test leaves, the workers are released and the server
  // drained, so a failed assertion cannot hang teardown.
  const OnScopeExit teardown([&] {
    release.store(true);
    if (bound > 0) {
      const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
      if (ctl >= 0) {
        socket_transact(ctl, "SHUTDOWN\n", 1);
        ::close(ctl);
      }
    }
    server_thread.join();
    for (const int fd : {evals, verifies}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  });
  ASSERT_GT(bound, 0);
  const auto all_held =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (held.load() < 2 && std::chrono::steady_clock::now() < all_held) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(held.load(), 2);

  evals = connect_tcp_with_retry("127.0.0.1", bound);
  verifies = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(evals, 0);
  ASSERT_GE(verifies, 0);
  const auto verify_sent = std::chrono::steady_clock::now();
  socket_transact(verifies, "VERIFY s\n", 0);

  const std::chrono::seconds answer_within(2);
  std::string pending;
  std::string line;
  const auto [eval, eval_expected] = sample_eval(pla, 5);
  socket_transact(evals, eval, 0);
  ASSERT_TRUE(read_line_within(evals, pending, line, answer_within))
      << "EVAL waited for a pool worker";
  EXPECT_EQ(line, eval_expected);
  socket_transact(evals, "STATS\n", 0);
  ASSERT_TRUE(read_line_within(evals, pending, line, answer_within))
      << "STATS waited for a pool worker";
  EXPECT_TRUE(starts_with(line, "OK circuits=1")) << line;
  socket_transact(evals, "HELP\n", 0);
  ASSERT_TRUE(read_line_within(evals, pending, line, answer_within))
      << "HELP waited for a pool worker";
  EXPECT_TRUE(starts_with(line, "OK commands:")) << line;
  // A line that does not parse is answered on the loop with its ERR,
  // whatever its verb.
  for (const auto& [bad, expected] :
       std::vector<std::pair<std::string, std::string>>{
           {"LOAD onlyname", "ERR LOAD needs: LOAD <name> <path>"},
           {"VERIFY", "ERR VERIFY needs: VERIFY <name>"},
           {"SIM s", "ERR SIM needs: SIM <name> <hex-pattern>..."}}) {
    socket_transact(evals, bad + "\n", 0);
    ASSERT_TRUE(read_line_within(evals, pending, line, answer_within))
        << bad << " waited for a pool worker";
    EXPECT_EQ(line, expected);
  }

  // Hold the workers for 300 ms after the VERIFY went out: it must
  // still be unanswered, then answered once they are released.
  std::this_thread::sleep_until(verify_sent + std::chrono::milliseconds(300));
  std::string verify_pending;
  EXPECT_FALSE(read_line_within(verifies, verify_pending, line,
                                std::chrono::milliseconds(0)))
      << "VERIFY answered while every worker was held: " << line;
  release.store(true);
  ASSERT_TRUE(read_line_within(verifies, verify_pending, line,
                               std::chrono::seconds(30)));
  EXPECT_TRUE(starts_with(line, "OK verified s")) << line;

  // Only the VERIFY went through the pool queue, and it waited there
  // for most of the hold; that wait is part of its request time too.
  const metrics::Histogram* queue_wait = registry.find_histogram(
      "ambit_serve_phase_us", {{"phase", "queue_wait"}});
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->count(), 1u);
  EXPECT_GE(queue_wait->sum(), 200'000u);
  const metrics::Histogram* verify_us = registry.find_histogram(
      "ambit_serve_request_us", {{"verb", "VERIFY"}});
  ASSERT_NE(verify_us, nullptr);
  EXPECT_GE(verify_us->sum(), queue_wait->sum());
}

TEST(TcpSocketTest, PipelinedBurstDoesNotStarveAnotherConnection) {
  // The loop serves at most one request per connection per turn: while
  // one peer pipelines 50,000 EVALs, another peer's round trips are
  // served between them, so it finishes long before the burst does.
  const std::string path = write_sample_pla("serve_fair.pla");
  Session session(/*workers=*/2);
  session.load("s", path);
  const core::GnorPla pla = core::GnorPla::map_cover(
      Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"}));
  Server server(session);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);
  const int burst = connect_tcp_with_retry("127.0.0.1", bound);
  const int round_trips = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(burst, 0);
  ASSERT_GE(round_trips, 0);

  constexpr int kBurst = 50'000;
  constexpr int kRoundTrips = 20;
  std::vector<std::pair<std::string, std::string>> shapes;
  for (int r = 0; r < 8; ++r) {
    shapes.push_back(sample_eval(pla, r));
  }
  std::string requests;
  for (int r = 0; r < kBurst; ++r) {
    requests += shapes[static_cast<std::size_t>(r % 8)].first;
  }
  std::thread writer([&] { socket_transact(burst, requests, 0); });
  std::atomic<bool> first_answered{false};
  int burst_answered = 0;
  int burst_mismatches = 0;
  std::chrono::steady_clock::time_point burst_done;
  std::thread reader([&] {
    std::string pending;
    std::string line;
    while (burst_answered < kBurst &&
           read_line_within(burst, pending, line, std::chrono::seconds(60))) {
      if (line != shapes[static_cast<std::size_t>(burst_answered % 8)].second) {
        ++burst_mismatches;
      }
      ++burst_answered;
      first_answered.store(true);
    }
    burst_done = std::chrono::steady_clock::now();
  });

  const auto start_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!first_answered.load() &&
         std::chrono::steady_clock::now() < start_by) {
    std::this_thread::yield();
  }
  int trips_answered = 0;
  int trip_mismatches = 0;
  for (int r = 0; r < kRoundTrips; ++r) {
    const auto& [request, expected] = shapes[static_cast<std::size_t>(r % 8)];
    const std::vector<std::string> lines =
        socket_transact(round_trips, request, 1);
    if (lines.size() != 1) {
      break;
    }
    ++trips_answered;
    trip_mismatches += lines[0] != expected ? 1 : 0;
  }
  const auto trips_done = std::chrono::steady_clock::now();
  writer.join();
  reader.join();
  socket_transact(round_trips, "SHUTDOWN\n", 1);
  ::close(round_trips);
  ::close(burst);
  server_thread.join();

  EXPECT_EQ(trips_answered, kRoundTrips);
  EXPECT_EQ(trip_mismatches, 0);
  EXPECT_EQ(burst_answered, kBurst);
  EXPECT_EQ(burst_mismatches, 0);
  EXPECT_LT(trips_done, burst_done)
      << "the round trips waited for the pipelined burst";
}

// ---------------------------------------------------------------------------
// Observability over real transports: STATS connection counts, the
// HTTP side listener, and exact per-verb accounting under a
// concurrent mixed-verb hammer.
// ---------------------------------------------------------------------------

TEST(ObservabilitySocketTest, StatsReportsConnectionCounts) {
  // The append-only STATS extension: " connections=<active>/<accepted>"
  // closes the line. It renders two registry series that count whether
  // or not the per-request instrumentation is on, so it runs here off.
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_connstats.sock";
  Session session(1);
  ServerOptions options;
  options.enable_metrics = false;
  Server server(session, options);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  const auto lines = socket_transact(fd, "STATS\n", 1);
  ASSERT_EQ(lines.size(), 1u);
  // This connection is the only one ever accepted, and it is live.
  const std::string suffix = " connections=1/1";
  ASSERT_GE(lines[0].size(), suffix.size());
  EXPECT_EQ(lines[0].substr(lines[0].size() - suffix.size()), suffix)
      << lines[0];

  // A second connection: active stays 1 after the first quits, accepted
  // keeps counting.
  const auto quit = socket_transact(fd, "QUIT\n", 1);
  ASSERT_EQ(quit.size(), 1u);
  ::close(fd);
  const int second = connect_with_retry(socket_path);
  ASSERT_GE(second, 0);
  std::vector<std::string> lines2;
  // The first connection's teardown (the active gauge's decrement)
  // races our connect; poll STATS until it settles.
  for (int attempt = 0; attempt < 100; ++attempt) {
    lines2 = socket_transact(second, "STATS\n", 1);
    ASSERT_EQ(lines2.size(), 1u);
    if (lines2[0].find(" connections=1/2") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(lines2[0].find(" connections=1/2"), std::string::npos)
      << lines2[0];
  socket_transact(second, "SHUTDOWN\n", 1);
  ::close(second);
  server_thread.join();
}

/// One raw HTTP exchange against the side listener: connect, send
/// `request`, read to EOF (the listener answers Connection: close).
std::string http_transact(int port, const std::string& request) {
  const int fd = connect_tcp_with_retry("127.0.0.1", port);
  EXPECT_GE(fd, 0);
  if (fd < 0) {
    return "";
  }
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// The body of an HTTP response, verifying Content-Length framing.
std::string http_body(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos) << response.substr(0, 200);
  if (head_end == std::string::npos) {
    return "";
  }
  const std::string body = response.substr(head_end + 4);
  const std::size_t cl = response.find("Content-Length: ");
  EXPECT_NE(cl, std::string::npos);
  if (cl != std::string::npos) {
    EXPECT_EQ(static_cast<std::size_t>(
                  std::stoull(response.substr(cl + 16))),
              body.size());
  }
  return body;
}

TEST(ObservabilitySocketTest, HttpSideListenerServesScrapesMidTraffic) {
  // The --metrics side listener wired exactly as ambit_serve wires it:
  // render = Server::metrics_page, its own ephemeral port, scraped
  // while the line protocol serves a connection.
  const std::string path = write_sample_pla("serve_http_scrape.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_scrape.sock";
  Session session(1);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  MetricsHttpListener listener;
  int http_port = 0;
  listener.start("127.0.0.1", 0, [&server] { return server.metrics_page(); },
                 &http_port);
  ASSERT_GT(http_port, 0);

  // Drive some traffic first so the page has non-trivial counts.
  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  const auto lines =
      socket_transact(fd, "LOAD s " + path + "\nEVAL s 7\nEVAL s 3\n", 3);
  ASSERT_EQ(lines.size(), 3u);

  // Counters bump AFTER the response bytes go out (self-scrape
  // exclusion), so the client holding both EVAL responses does not yet
  // guarantee the second add is visible — poll the scrape until it is.
  std::string ok;
  std::string page;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ok = http_transact(http_port, "GET /metrics HTTP/1.0\r\n\r\n");
    page = http_body(ok);
    if (page.find("ambit_serve_requests_total{verb=\"EVAL\"} 2") !=
        std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(starts_with(ok, "HTTP/1.0 200 OK\r\n")) << ok.substr(0, 120);
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const auto samples = testing_support::lint_prometheus_page(page);
  EXPECT_EQ(testing_support::prom_value(
                samples, "ambit_serve_requests_total", "verb=\"EVAL\""),
            2.0);
  EXPECT_EQ(testing_support::prom_value(
                samples, "ambit_serve_requests_total", "verb=\"LOAD\""),
            1.0);
  // The side listener is NOT a protocol connection: gauges see only
  // the one line-protocol client.
  EXPECT_EQ(testing_support::prom_value(samples,
                                        "ambit_serve_connections_active"),
            1.0);

  const std::string health =
      http_transact(http_port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_TRUE(starts_with(health, "HTTP/1.0 200 OK\r\n"));
  EXPECT_EQ(http_body(health), "ok\n");

  EXPECT_TRUE(starts_with(
      http_transact(http_port, "GET /nope HTTP/1.0\r\n\r\n"),
      "HTTP/1.0 404 Not Found\r\n"));
  EXPECT_TRUE(starts_with(
      http_transact(http_port, "DELETE /metrics HTTP/1.0\r\n\r\n"),
      "HTTP/1.0 405 Method Not Allowed\r\n"));
  const std::string bad = http_transact(http_port, "not http at all\r\n\r\n");
  EXPECT_TRUE(starts_with(bad, "HTTP/1.0 400 Bad Request\r\n"));
  EXPECT_NE(bad.find("bad HTTP request line"), std::string::npos);

  // The listener survived the abuse and still scrapes.
  EXPECT_TRUE(starts_with(
      http_transact(http_port, "GET /metrics HTTP/1.0\r\n\r\n"),
      "HTTP/1.0 200 OK\r\n"));
  listener.stop();

  socket_transact(fd, "SHUTDOWN\n", 1);
  ::close(fd);
  server_thread.join();
}

TEST(ObservabilitySocketTest, MixedVerbHammerCountsEveryRequestExactly) {
  // Four clients interleave EVAL, EVALB and SIMB against one server
  // with a fresh registry: afterwards every per-verb counter and
  // latency-histogram _count must equal the number of requests sent —
  // under concurrency, not approximately.
  const std::string path = write_sample_pla("serve_obs_hammer.pla");
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_obshammer.sock";
  Session session(/*workers=*/2);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  server.load("s", path);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  PatternBatch inputs = PatternBatch::exhaustive(3);
  const core::GnorPla& gnor = session.get("s")->gnor;
  const PatternBatch expected_eval = gnor.evaluate_batch(inputs);
  simulate::GnorPlaSimulator direct(gnor, tech::default_cnfet_electrical());
  const simulate::BatchSimResult expected_sim = direct.simulate_batch(inputs);
  const std::uint64_t lane_words = expected_sim.outputs.total_words();
  const std::uint64_t simb_words = lane_words + 3 * inputs.num_patterns();

  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 15;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_with_retry(socket_path);
      if (fd < 0) {
        failures[static_cast<std::size_t>(c)] = 1;
        return;
      }
      std::ostringstream request;
      for (int r = 0; r < kRoundsPerClient; ++r) {
        const int a = (c * 5 + r * 3) % 8;
        request << "EVAL s "
                << hex_encode({(a & 1) != 0, (a & 2) != 0, (a & 4) != 0})
                << "\n"
                << "EVALB s " << inputs.num_patterns() << " "
                << inputs.total_words() << "\n" << frame_payload(inputs)
                << "SIMB s " << inputs.num_patterns() << " "
                << inputs.total_words() << "\n" << frame_payload(inputs);
      }
      request << "QUIT\n";
      const std::string wire = request.str();
      std::size_t sent = 0;
      while (sent < wire.size()) {
        const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n <= 0) {
          break;
        }
        sent += static_cast<std::size_t>(n);
      }
      std::string buffer;
      char chunk[65536];
      for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
      ::close(fd);
      // Walk the pipelined responses: an EVAL line, an EVALB frame and
      // a SIMB frame per round — all bit-exact.
      std::size_t cursor = 0;
      for (int r = 0; r < kRoundsPerClient; ++r) {
        const int a = (c * 5 + r * 3) % 8;
        const std::vector<bool> bits{(a & 1) != 0, (a & 2) != 0, (a & 4) != 0};
        const std::string want = "OK " + hex_encode(gnor.evaluate(bits));
        const std::size_t eol = buffer.find('\n', cursor);
        if (eol == std::string::npos ||
            buffer.substr(cursor, eol - cursor) != want) {
          failures[static_cast<std::size_t>(c)] = 1;
          return;
        }
        cursor = eol + 1;
        std::vector<std::uint64_t> words;
        std::size_t consumed = 0;
        if (!decode_evalb_response(buffer.substr(cursor),
                                   inputs.num_patterns(),
                                   expected_eval.total_words(), words,
                                   consumed)) {
          failures[static_cast<std::size_t>(c)] = 1;
          return;
        }
        cursor += consumed;
        if (!decode_simb_response(buffer.substr(cursor),
                                  inputs.num_patterns(), simb_words, words,
                                  consumed)) {
          failures[static_cast<std::size_t>(c)] = 1;
          return;
        }
        cursor += consumed;
      }
      if (buffer.substr(cursor) != "OK bye\n") {
        failures[static_cast<std::size_t>(c)] = 1;
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
  }

  const int ctl = connect_with_retry(socket_path);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();

  // Every counter and histogram count, exactly — scraped AFTER the
  // server drained, so the bump-after-respond window is closed.
  const std::string page = server.metrics_page();
  const auto samples = testing_support::lint_prometheus_page(page);
  const double rounds = kClients * kRoundsPerClient;
  const auto count = [&samples](const std::string& name,
                                const std::string& labels) {
    return testing_support::prom_value(samples, name, labels);
  };
  EXPECT_EQ(count("ambit_serve_requests_total", "verb=\"EVAL\""), rounds);
  EXPECT_EQ(count("ambit_serve_requests_total", "verb=\"EVALB\""), rounds);
  EXPECT_EQ(count("ambit_serve_requests_total", "verb=\"SIMB\""), rounds);
  EXPECT_EQ(count("ambit_serve_requests_total", "verb=\"QUIT\""),
            static_cast<double>(kClients));
  EXPECT_EQ(count("ambit_serve_requests_total", "verb=\"SHUTDOWN\""), 1.0);
  for (const char* idle_verb :
       {"LOAD", "SIM", "VERIFY", "STATS", "METRICS", "UNLOAD", "HELP"}) {
    EXPECT_EQ(count("ambit_serve_requests_total",
                    "verb=\"" + std::string(idle_verb) + "\""),
              0.0)
        << idle_verb;
  }
  EXPECT_EQ(count("ambit_serve_request_us_count", "verb=\"EVAL\""), rounds);
  EXPECT_EQ(count("ambit_serve_request_us_count", "verb=\"EVALB\""), rounds);
  EXPECT_EQ(count("ambit_serve_request_us_count", "verb=\"SIMB\""), rounds);
  EXPECT_EQ(count("ambit_serve_request_errors_total", ""), 0.0);
  EXPECT_EQ(count("ambit_serve_malformed_requests_total", ""), 0.0);
  EXPECT_EQ(count("ambit_serve_connections_accepted_total", ""),
            static_cast<double>(kClients) + 1);  // clients + the ctl
  EXPECT_EQ(count("ambit_serve_connections_active", ""), 0.0);
  for (const char* reason : {"idle", "send", "malformed"}) {
    EXPECT_EQ(count("ambit_serve_connections_dropped_total",
                    "reason=\"" + std::string(reason) + "\""),
              0.0)
        << reason;
  }
  // STATS renders the same registry: each count equals its series.
  const std::string stats = server.handle_line("STATS");
  const std::uint64_t n = static_cast<std::uint64_t>(rounds);
  const std::uint64_t batch = inputs.num_patterns();
  const std::vector<std::tuple<std::string, std::string, std::uint64_t>>
      fields = {{"loads", "ambit_serve_loads_total", 1},
                {"evals", "ambit_serve_evals_total", n * 2},  // EVAL+EVALB
                {"patterns", "ambit_serve_patterns_total", n * (1 + batch)},
                {"sims", "ambit_serve_sims_total", n},
                {"sim_patterns", "ambit_serve_sim_patterns_total", n * batch},
                {"verifies", "ambit_serve_verifies_total", 0}};
  for (const auto& [field, series, want] : fields) {
    EXPECT_EQ(stats_field(stats, field), want) << field;
    EXPECT_EQ(count(series, ""), static_cast<double>(want)) << series;
  }
  const auto whole = [&count](const std::string& series) {
    return std::to_string(static_cast<std::uint64_t>(count(series, "")));
  };
  EXPECT_TRUE(stats.ends_with(
      " connections=" + whole("ambit_serve_connections_active") + "/" +
      whole("ambit_serve_connections_accepted_total")))
      << stats;
}

TEST(ObservabilitySocketTest, DroppedConnectionsAreClassified) {
  // An oversized request line is a server-initiated drop with
  // reason="malformed"; a clean QUIT is peer-initiated and counts
  // under no reason at all.
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_dropclass.sock";
  Session session(1);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::thread server_thread([&] { server.serve_unix(socket_path); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  const std::string blob(kMaxLineBytes + (1 << 16), 'a');  // no newline
  std::size_t sent = 0;
  while (sent < blob.size()) {
    const ssize_t n = ::send(fd, blob.data() + sent, blob.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  char chunk[4096];
  while (::read(fd, chunk, sizeof(chunk)) > 0) {
  }
  ::close(fd);

  const int ctl = connect_with_retry(socket_path);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "QUIT\n", 1);
  ::close(ctl);
  const int shut = connect_with_retry(socket_path);
  ASSERT_GE(shut, 0);
  socket_transact(shut, "SHUTDOWN\n", 1);
  ::close(shut);
  server_thread.join();

  const metrics::Counter* malformed = registry.find_counter(
      "ambit_serve_connections_dropped_total", {{"reason", "malformed"}});
  ASSERT_NE(malformed, nullptr);
  EXPECT_EQ(malformed->value(), 1u);
  for (const char* reason : {"idle", "send"}) {
    const metrics::Counter* counter = registry.find_counter(
        "ambit_serve_connections_dropped_total", {{"reason", reason}});
    ASSERT_NE(counter, nullptr) << reason;
    EXPECT_EQ(counter->value(), 0u) << reason;
  }
}

TEST(ObservabilitySocketTest, ConnectionDropWarningsAreRateLimited) {
  // A burst of peers that each send an unframed EVALB header is counted
  // exactly, but logged as one conn.drop record per second; the first
  // drop after the interval carries the count of the ones left out.
  const std::string log_path = testing::TempDir() + "/serve_drop_limit.log";
  std::remove(log_path.c_str());
  ASSERT_TRUE(logs::set_file(log_path));
  Session session(1);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);
  const metrics::Counter* malformed = registry.find_counter(
      "ambit_serve_connections_dropped_total", {{"reason", "malformed"}});
  ASSERT_NE(malformed, nullptr);
  const auto drop_records = [&log_path] {
    std::ifstream log(log_path);
    std::ostringstream text;
    text << log.rdbuf();
    return text.str();
  };
  const auto records = [](const std::string& text) {
    std::size_t n = 0;
    for (std::size_t at = text.find("event=conn.drop"); at != std::string::npos;
         at = text.find("event=conn.drop", at + 1)) {
      ++n;
    }
    return n;
  };
  const auto await_drops = [malformed](std::uint64_t want) {
    for (int i = 0; i < 1000 && malformed->value() < want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return malformed->value();
  };
  // Sends the unframed header on every connection, then reads each one
  // to the EOF of the server's close.
  const auto drop = [bound](int connections) {
    std::vector<int> fds;
    for (int i = 0; i < connections; ++i) {
      fds.push_back(connect_tcp_with_retry("127.0.0.1", bound));
    }
    for (const int fd : fds) {
      ASSERT_GE(fd, 0);
      ASSERT_EQ(::send(fd, "EVALB x\n", 8, MSG_NOSIGNAL), 8);
    }
    for (const int fd : fds) {
      char chunk[256];
      while (::read(fd, chunk, sizeof(chunk)) > 0) {
      }
      ::close(fd);
    }
  };

  drop(20);
  EXPECT_EQ(await_drops(20), 20u);
  std::string text = drop_records();
  EXPECT_EQ(records(text), 1u) << text;
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  drop(1);
  EXPECT_EQ(await_drops(21), 21u);
  text = drop_records();
  EXPECT_EQ(records(text), 2u) << text;
  EXPECT_NE(text.find("suppressed=19"), std::string::npos) << text;

  logs::set_file("");
  const int shut = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(shut, 0);
  socket_transact(shut, "SHUTDOWN\n", 1);
  ::close(shut);
  server_thread.join();
}

TEST(ObservabilitySocketTest, IdleLoopWakeupsLandInTheZeroBucket) {
  // An idle loop wakes once per 50 ms housekeeping timeout with no
  // descriptor ready; each such wakeup is counted under le="0".
  Session session(1);
  Server server(session);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const auto samples =
      testing_support::lint_prometheus_page(server.metrics_page());
  EXPECT_GE(testing_support::prom_value(
                samples, "ambit_serve_loop_ready_events_bucket", "le=\"0\""),
            2.0);

  const int shut = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(shut, 0);
  socket_transact(shut, "SHUTDOWN\n", 1);
  ::close(shut);
  server_thread.join();
}

// ---------------------------------------------------------------------------
// Golden wire transcripts (tests/data/serve_golden/, captured from a live
// ambit_serve by scripts/capture_serve_golden.py): each .in file is one
// connection's request bytes, each .out file the socket path's response
// bytes with load times canonicalised. Every transport must reproduce
// them exactly, so the wire behaviour is pinned by data rather than by
// comparing one implementation against another.
// ---------------------------------------------------------------------------

namespace {

/// STATS reports the session's worker count; the transcripts were
/// captured with this many.
constexpr int kGoldenWorkers = 2;

struct Golden {
  std::string name;
  std::string in;   ///< request bytes, LOAD paths as placeholders
  std::string out;  ///< expected response bytes
};

std::string read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::vector<Golden> read_goldens() {
  namespace fs = std::filesystem;
  std::vector<Golden> goldens;
  for (const auto& entry :
       fs::directory_iterator(fs::path(AMBIT_TEST_DATA_DIR) / "serve_golden")) {
    if (entry.path().extension() != ".in") {
      continue;
    }
    fs::path out = entry.path();
    out.replace_extension(".out");
    goldens.push_back({entry.path().stem().string(),
                       read_file_bytes(entry.path()), read_file_bytes(out)});
  }
  std::sort(goldens.begin(), goldens.end(),
            [](const Golden& a, const Golden& b) { return a.name < b.name; });
  return goldens;
}

void replace_all(std::string& text, const std::string& from,
                 const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
}

/// Fills the LOAD placeholders with the two circuits the capture script
/// loaded (byte-identical texts).
std::string fill_golden_paths(std::string wire) {
  const auto write = [](const std::string& name, const char* text) {
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream(path, std::ios::trunc) << text;
    return path;
  };
  static const std::string sample = write(
      "golden_sample.pla", ".i 3\n.o 2\n11- 10\n0-1 01\n10- 11\n.e\n");
  static const std::string seed =
      write("golden_seed.pla", ".i 2\n.o 1\n10 1\n01 1\n.e\n");
  replace_all(wire, "@SAMPLE_PLA@", sample);
  replace_all(wire, "@SEED_PLA@", seed);
  return wire;
}

/// STATS' connections=<active>/<accepted> counts socket connections;
/// the in-process transports accept none, so their transcripts compare
/// with that field masked.
std::string mask_connection_counts(std::string transcript) {
  const std::string key = " connections=";
  for (std::size_t at = transcript.find(key); at != std::string::npos;
       at = transcript.find(key, at + key.size())) {
    const std::size_t start = at + key.size();
    std::size_t end = start;
    while (end < transcript.size() &&
           ((transcript[end] >= '0' && transcript[end] <= '9') ||
            transcript[end] == '/')) {
      ++end;
    }
    transcript.replace(start, end - start, 1, '*');
  }
  return transcript;
}

std::string read_to_eof(int fd) {
  std::string buffer;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return buffer;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One connection through a fresh serve_unix: send every byte,
/// half-close, read the responses to EOF.
std::string golden_over_unix(const std::string& wire) {
  const std::string socket_path =
      testing::TempDir() + "/ambit_serve_golden.sock";
  Session session(kGoldenWorkers);
  Server server(session);
  std::thread server_thread([&] { server.serve_unix(socket_path); });
  const int fd = connect_with_retry(socket_path);
  EXPECT_GE(fd, 0);
  socket_transact(fd, wire, /*expected_lines=*/0);  // send only
  ::shutdown(fd, SHUT_WR);
  const std::string out = read_to_eof(fd);
  ::close(fd);
  if (!server.shutdown_requested()) {
    const int ctl = connect_with_retry(socket_path);
    EXPECT_GE(ctl, 0);
    socket_transact(ctl, "SHUTDOWN\n", 1);
    ::close(ctl);
  }
  server_thread.join();
  return out;
}

/// One connection through serve_stream over a stringstream pair.
std::string golden_over_stream(const std::string& wire) {
  Session session(kGoldenWorkers);
  Server server(session);
  std::istringstream in(wire);
  std::ostringstream out;
  server.serve_stream(in, out);
  return out.str();
}

/// One connection through serve_chunks, one byte per read.
std::string golden_over_chunks(const std::string& wire) {
  Session session(kGoldenWorkers);
  Server server(session);
  std::size_t pos = 0;
  std::string out;
  server.serve_chunks(
      [&] { return pos < wire.size() ? wire.substr(pos++, 1) : std::string(); },
      out);
  return out;
}

}  // namespace

TEST(ServeGoldenTest, EveryTransportReproducesTheTranscripts) {
  const std::vector<Golden> goldens = read_goldens();
  ASSERT_GE(goldens.size(), 18u);
  for (const Golden& golden : goldens) {
    const std::string wire = fill_golden_paths(golden.in);
    EXPECT_EQ(canonical_load_times(golden_over_unix(wire)), golden.out)
        << golden.name << " over serve_unix";
    const std::string expected = mask_connection_counts(golden.out);
    EXPECT_EQ(mask_connection_counts(
                  canonical_load_times(golden_over_chunks(wire))),
              expected)
        << golden.name << " over 1-byte serve_chunks";
    EXPECT_EQ(mask_connection_counts(
                  canonical_load_times(golden_over_stream(wire))),
              expected)
        << golden.name << " over serve_stream";
  }
}

// ---------------------------------------------------------------------------
// Per-turn fusion: the one-word EVAL/EVALBs ready in one loop turn share
// a sweep per circuit, and every connection still reads exactly what it
// would read alone.
// ---------------------------------------------------------------------------

TEST(TcpSocketTest, FusedTurnMatchesServeChunksWithExactCounts) {
  // Four clients each write a whole pipelined script at once, so most
  // loop turns hold a request from every connection: hex EVALs and
  // EVALBs of 1-64 patterns against two circuits (same-circuit requests
  // that overflow one lane word spill into a second sweep), and
  // mid-script one bad hex token, one EVALB with a wrong word count and
  // one EVAL for an unknown circuit. Each connection's bytes must equal
  // serve_chunks on a fresh session fed the same bytes.
  const std::string narrow_path = write_sample_pla("serve_fused_narrow.pla");
  const std::string wide_path = testing::TempDir() + "/serve_fused_wide.pla";
  logic::write_pla_file(
      wide_path,
      logic::make_pla(Cover::parse(5, 3,
                                   {"11--- 101", "0-1-1 010", "-01-- 110",
                                    "1--01 011", "---11 100"}),
                      "wide"));
  const auto load_both = [&](Session& session) {
    session.load("s", narrow_path);
    session.load("w", wide_path);
  };
  Session session(1);
  load_both(session);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);

  constexpr int kClients = 4;
  constexpr int kRequests = 60;
  const std::vector<std::uint64_t> sizes = {1, 3, 4,  2, 64, 5,
                                            33, 8, 40, 16, 1, 31};
  std::vector<std::string> scripts(kClients);
  std::uint64_t evals = 0;
  std::uint64_t patterns = 0;
  std::uint64_t eval_lines = 0;
  std::uint64_t evalb_lines = 0;
  for (int c = 0; c < kClients; ++c) {
    std::string& script = scripts[static_cast<std::size_t>(c)];
    for (int r = 0; r < kRequests; ++r) {
      if (r == 10 + c) {
        script += "EVAL s 1 zz 3\n";  // a bad hex token
        ++eval_lines;
        continue;
      }
      if (r == 25 + c) {
        // 4 patterns over 3 inputs need 3 words, not 7.
        script += "EVALB s 4 7\n";
        script.append(7 * sizeof(std::uint64_t), 'x');
        ++evalb_lines;
        continue;
      }
      if (r == 40 + c) {
        script += "EVAL ghost 1 2\n";
        ++eval_lines;
        continue;
      }
      // The same circuit for every client at a given step, so any two
      // clients in the same turn can share a sweep.
      const bool wide = r % 3 == 2;
      const std::uint64_t np =
          sizes[static_cast<std::size_t>(c * 5 + r) % sizes.size()];
      const PatternBatch batch = make_request_batch(
          wide ? 5 : 3, np, static_cast<std::uint64_t>(c * 1000 + r));
      const std::string name = wide ? "w" : "s";
      if ((c + r) % 3 == 0) {
        script += "EVALB " + name + " " + std::to_string(np) + " " +
                  std::to_string(batch.total_words()) + "\n" +
                  frame_payload(batch);
        ++evalb_lines;
      } else {
        script += "EVAL " + name;
        for (std::uint64_t p = 0; p < np; ++p) {
          script += ' ';
          script += hex_encode(batch.pattern(p));
        }
        script += '\n';
        ++eval_lines;
      }
      ++evals;
      patterns += np;
    }
    script += "QUIT\n";
  }

  std::vector<int> fds;
  for (int c = 0; c < kClients; ++c) {
    fds.push_back(connect_tcp_with_retry("127.0.0.1", bound));
    ASSERT_GE(fds.back(), 0);
  }
  std::vector<std::string> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto k = static_cast<std::size_t>(c);
      socket_transact(fds[k], scripts[k], /*expected_lines=*/0);  // send only
      got[k] = read_to_eof(fds[k]);
      ::close(fds[k]);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();

  for (int c = 0; c < kClients; ++c) {
    Session fresh(1);
    load_both(fresh);
    Server alone(fresh);
    std::string expected;
    bool fed = false;
    alone.serve_chunks(
        [&]() -> std::string {
          if (fed) {
            return {};
          }
          fed = true;
          return scripts[static_cast<std::size_t>(c)];
        },
        expected);
    EXPECT_EQ(got[static_cast<std::size_t>(c)], expected) << "client " << c;
  }
  const std::string stats = server.handle_line("STATS");
  EXPECT_EQ(stats_field(stats, "evals"), evals);
  EXPECT_EQ(stats_field(stats, "patterns"), patterns);
  const auto value = [&](const std::string& name,
                         const metrics::Labels& labels) {
    const metrics::Counter* counter = registry.find_counter(name, labels);
    return counter != nullptr ? counter->value() : 0;
  };
  EXPECT_EQ(value("ambit_serve_requests_total", {{"verb", "EVAL"}}),
            eval_lines);
  EXPECT_EQ(value("ambit_serve_requests_total", {{"verb", "EVALB"}}),
            evalb_lines);
  EXPECT_EQ(value("ambit_serve_requests_total", {{"verb", "QUIT"}}),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(value("ambit_serve_request_errors_total", {}),
            3u * kClients);
  EXPECT_GT(value("ambit_serve_coalesce_fused_total", {}), 0u)
      << "no two requests shared a sweep";
}

// ---------------------------------------------------------------------------
// EVAL and SIM share one decode -> evaluate -> encode path through
// serve_batch; a SIM runs the simulator and is never packed into a sweep.
// ---------------------------------------------------------------------------

/// What serve_chunks on a fresh session, with `load` run on it, writes
/// for `wire` fed in one chunk: one connection's bytes served alone.
std::string served_alone(const std::function<void(Session&)>& load,
                         const std::string& wire) {
  Session fresh(1);
  load(fresh);
  Server alone(fresh);
  std::string out;
  bool fed = false;
  alone.serve_chunks(
      [&]() -> std::string {
        if (fed) {
          return {};
        }
        fed = true;
        return wire;
      },
      out);
  return out;
}

TEST(TcpSocketTest, SimBesideEvalInOneTurnMatchesServeChunks) {
  // One connection pipelines small EVALs and another pipelines SIMs of
  // the same patterns for the same circuit, both scripts sent at once,
  // so loop turns read an EVAL and a SIM together. Each connection must
  // read what it would read served alone, and no request may count as
  // fused: only one connection sends EVALs, and a SIM never packs.
  const std::string path = write_sample_pla("serve_sim_beside_eval.pla");
  const auto load = [&path](Session& s) { s.load("s", path); };
  Session session(/*workers=*/2);
  load(session);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  ASSERT_GT(bound, 0);

  constexpr int kRequests = 40;
  std::vector<std::string> scripts(2);
  for (int r = 0; r < kRequests; ++r) {
    const std::string patterns =
        hex_patterns(3, 1 + r % 4, static_cast<std::uint64_t>(r));
    scripts[0] += "EVAL s" + patterns + "\n";
    scripts[1] += "SIM s" + patterns + "\n";
  }
  std::vector<int> fds;
  for (std::string& script : scripts) {
    script += "QUIT\n";
    fds.push_back(connect_tcp_with_retry("127.0.0.1", bound));
    ASSERT_GE(fds.back(), 0);
  }
  std::vector<std::string> got(scripts.size());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    clients.emplace_back([&, c] {
      socket_transact(fds[c], scripts[c], /*expected_lines=*/0);  // send only
      got[c] = read_to_eof(fds[c]);
      ::close(fds[c]);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(ctl, 0);
  socket_transact(ctl, "SHUTDOWN\n", 1);
  ::close(ctl);
  server_thread.join();

  for (std::size_t c = 0; c < scripts.size(); ++c) {
    EXPECT_EQ(got[c], served_alone(load, scripts[c])) << "client " << c;
  }
  const auto value = [&](const std::string& name,
                         const metrics::Labels& labels) {
    const metrics::Counter* counter = registry.find_counter(name, labels);
    return counter != nullptr ? counter->value() : 0;
  };
  EXPECT_EQ(value("ambit_serve_requests_total", {{"verb", "EVAL"}}),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(value("ambit_serve_requests_total", {{"verb", "SIM"}}),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(value("ambit_serve_request_errors_total", {}), 0u);
  EXPECT_EQ(value("ambit_serve_coalesce_fused_total", {}), 0u);
}

TEST(TcpSocketTest, PoolServedSimRecordsEveryPhase) {
  // A SIM over a socket goes to the pool. Sent while every worker is
  // held, it waits in the queue, then records that wait as queue_wait
  // and its parse, evaluate and serialize, one sample each, all within
  // its request time. 256 patterns make every phase take well over the
  // 1 us the clock resolves, because a 0 us phase is not recorded.
  const std::string path = write_sample_pla("serve_pool_sim_phases.pla");
  Session session(/*workers=*/2);
  session.load("s", path);
  metrics::Registry registry;
  ServerOptions options;
  options.registry = &registry;
  Server server(session, options);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);

  std::atomic<bool> release{false};
  std::atomic<int> held{0};
  for (int w = 0; w < session.pool().num_workers(); ++w) {
    session.pool().submit([&] {
      held.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  int fd = -1;
  const OnScopeExit teardown([&] {
    release.store(true);
    if (bound > 0) {
      const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
      if (ctl >= 0) {
        socket_transact(ctl, "SHUTDOWN\n", 1);
        ::close(ctl);
      }
    }
    server_thread.join();
    if (fd >= 0) {
      ::close(fd);
    }
  });
  ASSERT_GT(bound, 0);
  const auto all_held =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (held.load() < session.pool().num_workers() &&
         std::chrono::steady_clock::now() < all_held) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(held.load(), session.pool().num_workers());

  fd = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(fd, 0);
  socket_transact(fd, "SIM s" + hex_patterns(3, 256, 7) + "\n", 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  release.store(true);
  std::string pending;
  std::string line;
  ASSERT_TRUE(read_line_within(fd, pending, line, std::chrono::seconds(30)));
  EXPECT_TRUE(starts_with(line, "OK ")) << line.substr(0, 200);

  std::uint64_t phases_us = 0;
  for (const char* phase : {"queue_wait", "parse", "evaluate", "serialize"}) {
    const metrics::Histogram* h =
        registry.find_histogram("ambit_serve_phase_us", {{"phase", phase}});
    ASSERT_NE(h, nullptr) << phase;
    EXPECT_EQ(h->count(), 1u) << phase;
    phases_us += h->sum();
  }
  const metrics::Histogram* queue_wait = registry.find_histogram(
      "ambit_serve_phase_us", {{"phase", "queue_wait"}});
  EXPECT_GE(queue_wait->sum(), 20'000u);
  const metrics::Histogram* sim_us =
      registry.find_histogram("ambit_serve_request_us", {{"verb", "SIM"}});
  ASSERT_NE(sim_us, nullptr);
  EXPECT_EQ(sim_us->count(), 1u);
  EXPECT_GE(sim_us->sum(), phases_us);
}

TEST(TcpSocketTest, OneWorkerSessionAnswersAnEvalDuringALongSim) {
  // A session of one worker still has a pool thread, so the loop hands
  // a SIM off instead of running it itself: an EVAL on a second
  // connection is answered while a long SIM on the first is still
  // running.
  const std::string path = write_sample_pla("serve_one_worker.pla");
  Session session(/*workers=*/1);
  session.load("s", path);
  const core::GnorPla pla = core::GnorPla::map_cover(
      Cover::parse(3, 2, {"11- 10", "0-1 01", "10- 11"}));
  Server server(session);
  std::atomic<int> port{0};
  std::thread server_thread = start_tcp_server(server, port);
  const int bound = await_bound_port(port);
  int sims = -1;
  int evals = -1;
  const OnScopeExit teardown([&] {
    if (bound > 0) {
      const int ctl = connect_tcp_with_retry("127.0.0.1", bound);
      if (ctl >= 0) {
        socket_transact(ctl, "SHUTDOWN\n", 1);
        ::close(ctl);
      }
    }
    server_thread.join();
    for (const int fd : {sims, evals}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  });
  ASSERT_GT(bound, 0);
  sims = connect_tcp_with_retry("127.0.0.1", bound);
  evals = connect_tcp_with_retry("127.0.0.1", bound);
  ASSERT_GE(sims, 0);
  ASSERT_GE(evals, 0);

  // About 150 ms of simulation in a Release build, and longer under the
  // sanitizers, against the EVAL's sub-millisecond round trip.
  constexpr int kLongSimPatterns = 60'000;
  socket_transact(sims, "SIM s" + hex_patterns(3, kLongSimPatterns, 3) + "\n",
                  0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto [eval, eval_expected] = sample_eval(pla, 2);
  socket_transact(evals, eval, 0);
  std::string pending;
  std::string line;
  ASSERT_TRUE(
      read_line_within(evals, pending, line, std::chrono::seconds(60)));
  EXPECT_EQ(line, eval_expected);
  std::string sim_pending;
  EXPECT_FALSE(read_line_within(sims, sim_pending, line,
                                std::chrono::milliseconds(0)))
      << "the EVAL waited for the SIM to finish";
  ASSERT_TRUE(
      read_line_within(sims, sim_pending, line, std::chrono::seconds(60)));
  EXPECT_TRUE(starts_with(line, "OK ")) << line.substr(0, 200);
}

#endif  // __linux__

}  // namespace
}  // namespace ambit::serve
