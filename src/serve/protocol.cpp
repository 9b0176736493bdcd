#include "serve/protocol.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string_view>

#include "util/error.h"
#include "util/strings.h"

namespace ambit::serve {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Parses a decimal count field of an EVALB header; every digit must be
/// consumed, so "12x" and "-3" fail as loudly as "abc".
std::uint64_t parse_count(const std::string& token, const std::string& what) {
  std::uint64_t value = 0;
  check(!token.empty(), what + " is empty");
  for (const char c : token) {
    check(c >= '0' && c <= '9', what + " '" + token + "' is not a number");
    check(value <= (~std::uint64_t{0} - static_cast<std::uint64_t>(c - '0')) / 10,
          what + " '" + token + "' overflows");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Every verb's wire spelling, in Verb enum order: find_verb maps a
/// position back to its Verb, and verb_names() lists the same table.
constexpr std::array<std::string_view, 12> kVerbNames = {
    "LOAD",  "EVAL",    "EVALB",  "SIM",  "SIMB", "VERIFY",
    "STATS", "METRICS", "UNLOAD", "HELP", "QUIT", "SHUTDOWN"};
static_assert(kVerbNames.size() ==
                  static_cast<std::size_t>(Verb::kShutdown) + 1,
              "kVerbNames must name every Verb");

}  // namespace

Request parse_request(const std::string& line) {
  const std::vector<std::string> tokens = split_ws(line);
  check(!tokens.empty(), "empty request");
  const std::optional<Verb> verb = find_verb(tokens[0]);
  if (!verb.has_value()) {
    throw Error("unknown verb '" + tokens[0] + "' (try HELP)");
  }
  Request request;
  request.verb = *verb;
  switch (*verb) {
    case Verb::kLoad:
      check(tokens.size() == 3, "LOAD needs: LOAD <name> <path>");
      request.name = tokens[1];
      request.path = tokens[2];
      break;
    case Verb::kEval:
      check(tokens.size() >= 3, "EVAL needs: EVAL <name> <hex-pattern>...");
      request.name = tokens[1];
      request.patterns.assign(tokens.begin() + 2, tokens.end());
      break;
    case Verb::kEvalB:
      check(tokens.size() == 4,
            "EVALB needs: EVALB <name> <npatterns> <nwords>");
      request.name = tokens[1];
      request.num_patterns = parse_count(tokens[2], "EVALB pattern count");
      request.num_words = parse_count(tokens[3], "EVALB word count");
      break;
    case Verb::kSim:
      check(tokens.size() >= 3, "SIM needs: SIM <name> <hex-pattern>...");
      request.name = tokens[1];
      request.patterns.assign(tokens.begin() + 2, tokens.end());
      break;
    case Verb::kSimB:
      check(tokens.size() == 4, "SIMB needs: SIMB <name> <npatterns> <nwords>");
      request.name = tokens[1];
      request.num_patterns = parse_count(tokens[2], "SIMB pattern count");
      request.num_words = parse_count(tokens[3], "SIMB word count");
      break;
    case Verb::kVerify:
      check(tokens.size() == 2, "VERIFY needs: VERIFY <name>");
      request.name = tokens[1];
      break;
    case Verb::kStats:
      check(tokens.size() == 1, "STATS takes no arguments");
      break;
    case Verb::kMetrics:
      check(tokens.size() == 1, "METRICS takes no arguments");
      break;
    case Verb::kUnload:
      check(tokens.size() == 2, "UNLOAD needs: UNLOAD <name>");
      request.name = tokens[1];
      break;
    case Verb::kHelp:
    case Verb::kQuit:
    case Verb::kShutdown:
      break;
  }
  return request;
}

std::optional<Verb> find_verb(std::string_view name) {
  for (std::size_t i = 0; i < kVerbNames.size(); ++i) {
    if (kVerbNames[i] == name) {
      return static_cast<Verb>(i);
    }
  }
  return std::nullopt;
}

std::vector<std::string> verb_names() {
  return {kVerbNames.begin(), kVerbNames.end()};
}

std::string hex_encode(const std::vector<bool>& bits) {
  const int width = static_cast<int>(bits.size());
  const int digits = std::max(1, (width + 3) / 4);
  std::string hex(static_cast<std::size_t>(digits), '0');
  for (int i = 0; i < width; ++i) {
    if (!bits[static_cast<std::size_t>(i)]) {
      continue;
    }
    // Bit i lives in hex digit i/4 counted from the LEAST significant
    // (rightmost) digit.
    const int digit = digits - 1 - i / 4;
    int value = hex_digit(hex[static_cast<std::size_t>(digit)]);
    value |= 1 << (i % 4);
    hex[static_cast<std::size_t>(digit)] =
        value < 10 ? static_cast<char>('0' + value)
                   : static_cast<char>('a' + value - 10);
  }
  return hex;
}

std::vector<bool> hex_decode(const std::string& hex, int width) {
  check(width >= 0, "hex_decode: negative width");
  std::size_t start = 0;
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    start = 2;
  }
  check(hex.size() > start, "empty hex pattern '" + hex + "'");
  std::vector<bool> bits(static_cast<std::size_t>(width), false);
  // Digit-wise from the right: digit j (0 = rightmost) covers bits
  // 4j..4j+3, so arbitrary widths never need a big integer.
  for (std::size_t k = 0; k < hex.size() - start; ++k) {
    const char c = hex[hex.size() - 1 - k];
    const int value = hex_digit(c);
    if (value < 0) {
      throw Error("bad hex digit '" + std::string(1, c) + "' in pattern '" +
                  hex + "'");
    }
    for (int b = 0; b < 4; ++b) {
      if ((value >> b) & 1) {
        const std::size_t bit = 4 * k + static_cast<std::size_t>(b);
        if (bit >= static_cast<std::size_t>(width)) {
          throw Error("pattern '" + hex + "' has bit " + std::to_string(bit) +
                      " set but the circuit has " + std::to_string(width) +
                      " inputs");
        }
        bits[bit] = true;
      }
    }
  }
  return bits;
}

std::string ok_response(const std::string& detail) {
  return detail.empty() ? "OK" : "OK " + detail;
}

std::string evalb_response_header(std::uint64_t num_patterns,
                                  std::uint64_t num_words) {
  return "OK EVALB " + std::to_string(num_patterns) + " " +
         std::to_string(num_words);
}

std::string simb_response_header(std::uint64_t num_patterns,
                                 std::uint64_t num_words) {
  return "OK SIMB " + std::to_string(num_patterns) + " " +
         std::to_string(num_words);
}

std::string sim_token(const std::vector<bool>& outputs, double precharge_s,
                      double plane1_eval_s, double plane2_eval_s) {
  char delays[96];
  std::snprintf(delays, sizeof(delays), "@%.6g/%.6g/%.6g", precharge_s * 1e12,
                plane1_eval_s * 1e12, plane2_eval_s * 1e12);
  return hex_encode(outputs) + delays;
}

std::string err_response(const std::string& message) {
  std::string flat = message;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  std::replace(flat.begin(), flat.end(), '\r', ' ');
  return "ERR " + flat;
}

std::string help_text() {
  return "commands: LOAD <name> <path> | EVAL <name> <hex>... | "
         "EVALB <name> <npatterns> <nwords> (+ raw input lanes) | "
         "SIM <name> <hex>... (switch-level, outputs@pre/e1/e2 ps) | "
         "SIMB <name> <npatterns> <nwords> (+ raw input lanes) | "
         "VERIFY <name> | STATS | "
         "METRICS (Prometheus page: OK METRICS <nbytes> + raw bytes) | "
         "UNLOAD <name> | HELP | QUIT | SHUTDOWN "
         "(protocol v" +
         std::to_string(kProtocolVersion) + ", reference: docs/PROTOCOL.md)";
}

}  // namespace ambit::serve
