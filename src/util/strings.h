// String helpers: number formatting, padding, rank intervals.

#ifndef BIORANK_UTIL_STRINGS_H_
#define BIORANK_UTIL_STRINGS_H_

#include <string>
#include <string_view>

namespace biorank {

/// Formats `value` with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

/// Formats `value` compactly: up to `precision` significant decimals with
/// trailing zeros stripped ("0.5", "0.469", "17").
std::string FormatCompact(double value, int precision = 4);

/// Pads `text` on the left with spaces to at least `width` characters.
std::string PadLeft(std::string_view text, size_t width);

/// Pads `text` on the right with spaces to at least `width` characters.
std::string PadRight(std::string_view text, size_t width);

/// Renders a rank interval like the paper's tables: "17" for a unique rank,
/// "21-22" for a tie spanning ranks 21 through 22 (1-based, inclusive).
std::string FormatRankInterval(int lo, int hi);

}  // namespace biorank

#endif  // BIORANK_UTIL_STRINGS_H_
