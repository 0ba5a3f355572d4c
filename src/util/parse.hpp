#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qcongest::util {

/// Strict base-10 parse of an unsigned 64-bit number: one or more ASCII
/// digits and nothing else — no sign, no whitespace, no prefix — and no
/// overflow past 2^64-1. On failure returns false and leaves *out alone.
/// Every numeric command-line flag and JobSpec field goes through this, so
/// "-1" is an error instead of strtoull's silent 2^64-1.
bool parse_u64(std::string_view text, std::uint64_t* out);

/// parse_u64 into a std::size_t.
bool parse_size(std::string_view text, std::size_t* out);

/// Strict parse of a finite double: strtod must consume all of `text`,
/// which may not start with whitespace. "inf" and "nan" are rejected.
bool parse_double(std::string_view text, double* out);

}  // namespace qcongest::util
