#pragma once

#include <cstdint>

namespace qcongest::serve {

/// Capped, deterministically jittered retry backoff for qload (and any
/// other client of the service). The scheme is the reliable transport's
/// retransmission timer's (ReliableParams::rto_cap, DESIGN.md §7; both call
/// util::jittered_backoff): exponential growth to a hard cap, then a
/// hash-derived downward jitter of up to a quarter of the delay, so that
/// many clients rejected by the same overload burst desynchronize instead
/// of thundering back in lockstep — while any given (seed, stream, attempt)
/// triple always yields the same delay, keeping load tests replayable.
struct BackoffParams {
  /// Delay of attempt 0, before jitter.
  std::uint64_t base_ms = 10;
  /// Hard ceiling of the un-jittered delay (the rto_cap analogue).
  std::uint64_t cap_ms = 640;
  /// Client identity folded into the jitter hash.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

/// Delay before retry number `attempt` (0-based) of logical retry stream
/// `stream` (e.g. one stream per in-flight job). Pure function:
/// min(cap, base << attempt) minus a hash jitter in [0, delay/4). Never
/// returns 0 when base_ms > 0, so a retry loop always yields.
std::uint64_t backoff_delay_ms(const BackoffParams& params, std::uint64_t stream,
                               std::uint64_t attempt);

}  // namespace qcongest::serve
