#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gridvc {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> fields;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(delim, begin);
    if (end == std::string_view::npos) {
      fields.emplace_back(text.substr(begin));
      return fields;
    }
    fields.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string format_grouped(double value, int decimals) {
  std::string plain = format_fixed(std::abs(value), decimals);
  const std::size_t dot = plain.find('.');
  std::string integral = (dot == std::string::npos) ? plain : plain.substr(0, dot);
  const std::string fractional = (dot == std::string::npos) ? "" : plain.substr(dot);
  std::string grouped;
  grouped.reserve(integral.size() + integral.size() / 3 + fractional.size() + 1);
  const std::size_t n = integral.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) grouped.push_back(',');
    grouped.push_back(integral[i]);
  }
  if (value < 0) grouped.insert(grouped.begin(), '-');
  return grouped + fractional;
}

std::string format_percent(double fraction, int decimals) {
  return format_fixed(fraction * 100.0, decimals) + "%";
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

namespace {

[[noreturn]] void refuse_flag(std::string_view flag, std::string_view text,
                              const std::string& want) {
  std::fprintf(stderr, "%.*s: '%.*s' is not %s\n", static_cast<int>(flag.size()),
               flag.data(), static_cast<int>(text.size()), text.data(), want.c_str());
  std::exit(2);
}

std::uint64_t parse_count_in(std::string_view flag, std::string_view text,
                             std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < min ||
      value > max) {
    refuse_flag(flag, text,
                "a count in [" + std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

}  // namespace

double parse_flag_number(std::string_view flag, std::string_view text) {
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || !std::isfinite(value) ||
      value < 0.0) {
    refuse_flag(flag, text, "a finite number >= 0");
  }
  return value;
}

std::uint64_t parse_flag_count(std::string_view flag, std::string_view text,
                               std::uint64_t max) {
  return parse_count_in(flag, text, 0, max);
}

std::uint64_t parse_flag_positive(std::string_view flag, std::string_view text,
                                  std::uint64_t max) {
  return parse_count_in(flag, text, 1, max);
}

}  // namespace gridvc
