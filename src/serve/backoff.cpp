#include "src/serve/backoff.hpp"

#include "src/util/rng.hpp"

namespace qcongest::serve {

std::uint64_t backoff_delay_ms(const BackoffParams& params, std::uint64_t stream,
                               std::uint64_t attempt) {
  std::uint64_t delay = params.base_ms;
  // Shift with saturation: attempt counts can exceed 63 in a long retry
  // loop and the delay must pin at the cap, not wrap.
  if (attempt >= 64 || (delay != 0 && delay > (params.cap_ms >> attempt))) {
    delay = params.cap_ms;
  } else {
    delay <<= attempt;
  }
  return util::jittered_backoff(
      delay, params.cap_ms,
      util::mix64(util::mix64(params.seed ^ (stream << 20)) ^ attempt));
}

}  // namespace qcongest::serve
