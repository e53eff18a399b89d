#include "util/strings.h"

namespace encodesat {

std::vector<std::string> split_ws(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && delims.find(s[i]) != std::string_view::npos) ++i;
    std::size_t j = i;
    while (j < s.size() && delims.find(s[j]) == std::string_view::npos) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

std::optional<int> parse_count(std::string_view s, int max) {
  if (s.empty()) return std::nullopt;
  long long v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return std::nullopt;
    v = v * 10 + (ch - '0');
    if (v > max) return std::nullopt;
  }
  return static_cast<int>(v);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

}  // namespace encodesat
