#include "src/util/parse.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

namespace qcongest::util {

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool parse_size(std::string_view text, std::size_t* out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, &value) || value > SIZE_MAX) return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

bool parse_double(std::string_view text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return false;
  }
  const std::string copy(text);  // strtod needs a terminated string
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

}  // namespace qcongest::util
