// Small string utilities used by the file parsers and report writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ambit {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Splits `text` on runs of ASCII whitespace; no empty tokens.
std::vector<std::string> split_ws(std::string_view text);

/// Removes the next whitespace-delimited token from the front of `rest`
/// and returns it, split the way split_ws splits; empty once `rest`
/// holds no more tokens. Allocates nothing.
std::string_view next_token(std::string_view& rest);

/// Splits `text` on the single character `sep`; keeps empty fields.
std::vector<std::string> split_on(std::string_view text, char sep);

/// True when `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// `text` as a count: decimal digits only, at most 9 of them, and at
/// least `min`. Anything else ("2x", "-3", "4294967298") throws
/// ambit::Error "<what> needs an integer >= <min>, got '<text>'" rather
/// than parsing a prefix or wrapping. Numeric command-line options and
/// AMBIT_THREADS (ThreadPool::default_workers) all parse through it.
std::uint64_t parse_count(std::string_view what, std::string_view text,
                          std::uint64_t min);

/// Formats `value` with `digits` digits after the decimal point.
std::string format_double(double value, int digits);

/// Formats a ratio as a signed percentage string, e.g. "-21.1%".
std::string format_percent(double ratio, int digits = 1);

}  // namespace ambit
