#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/error.h"

namespace ambit {

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> tokens;
  for (std::string_view token = next_token(text); !token.empty();
       token = next_token(text)) {
    tokens.emplace_back(token);
  }
  return tokens;
}

std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() &&
         std::isspace(static_cast<unsigned char>(rest[begin]))) {
    ++begin;
  }
  std::size_t end = begin;
  while (end < rest.size() &&
         !std::isspace(static_cast<unsigned char>(rest[end]))) {
    ++end;
  }
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

std::vector<std::string> split_on(std::string_view text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::uint64_t parse_count(std::string_view what, std::string_view text,
                          std::uint64_t min) {
  const bool digits = !text.empty() && text.size() <= 9 &&
                      text.find_first_not_of("0123456789") ==
                          std::string_view::npos;
  std::uint64_t value = 0;
  if (digits) {
    std::from_chars(text.data(), text.data() + text.size(), value);
  }
  check(digits && value >= min,
        std::string(what) + " needs an integer >= " + std::to_string(min) +
            ", got '" + std::string(text) + "'");
  return value;
}

std::string format_double(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string format_percent(double ratio, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%+.*f%%", digits, ratio * 100.0);
  return buffer;
}

}  // namespace ambit
