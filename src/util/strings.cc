#include "util/strings.h"

#include <cstdio>

namespace biorank {

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return std::string(buf);
}

std::string FormatCompact(double value, int precision) {
  std::string s = FormatDouble(value, precision);
  if (s.find('.') == std::string::npos) return s;
  size_t last = s.find_last_not_of('0');
  if (s[last] == '.') last -= 1;
  s.erase(last + 1);
  return s;
}

std::string PadLeft(std::string_view text, size_t width) {
  std::string out;
  if (text.size() < width) out.assign(width - text.size(), ' ');
  out.append(text);
  return out;
}

std::string PadRight(std::string_view text, size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string FormatRankInterval(int lo, int hi) {
  if (lo == hi) return std::to_string(lo);
  return std::to_string(lo) + "-" + std::to_string(hi);
}

}  // namespace biorank
