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

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
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
