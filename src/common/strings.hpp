// Small string utilities shared across the library: splitting/trimming for
// parsers, strict numeric command-line values, and printf-style numeric
// formatting for table renderers (GCC 12 has no std::format, so we provide
// the few formatters the reports need).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace gridvc {

/// Split `text` on `delim`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Format a double with `decimals` fractional digits ("12.34").
std::string format_fixed(double value, int decimals);

/// Format with thousands separators and `decimals` fractional digits
/// ("12,037,604.5"), as the paper's tables print sizes.
std::string format_grouped(double value, int decimals);

/// Format a fraction as a percentage string with `decimals` digits ("56.87%").
std::string format_percent(double fraction, int decimals);

/// Case-sensitive prefix test.
bool starts_with(std::string_view text, std::string_view prefix);

/// Every tool's numeric flag values, for command-line parsing only: the
/// whole of `text` must parse as a finite number >= 0 (no flag takes a
/// negative duration, rate or fraction). Otherwise prints the refusal,
/// naming `flag` and `text`, to stderr and exits 2.
double parse_flag_number(std::string_view flag, std::string_view text);

/// A count, id or seed: the whole of `text` must be an integer in
/// [0, max]. Otherwise prints the refusal and exits 2, as above.
std::uint64_t parse_flag_count(std::string_view flag, std::string_view text,
                               std::uint64_t max = ~std::uint64_t{0});

/// The same, bounded by the largest value of the narrower type T.
template <class T>
T parse_flag_count(std::string_view flag, std::string_view text) {
  return static_cast<T>(parse_flag_count(flag, text, std::numeric_limits<T>::max()));
}

/// A size or lane count, where 0 has no meaning: the whole of `text`
/// must be an integer in [1, max]. Otherwise refuses and exits 2.
std::uint64_t parse_flag_positive(std::string_view flag, std::string_view text,
                                  std::uint64_t max = ~std::uint64_t{0});

}  // namespace gridvc
