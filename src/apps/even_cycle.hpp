#pragma once

#include <optional>

#include "src/apps/net_options.hpp"
#include "src/net/engine.hpp"
#include "src/net/graph.hpp"
#include "src/util/rng.hpp"

namespace qcongest::apps {

struct ExactCycleResult {
  bool found = false;       // a cycle of *exactly* length L exists (one-sided)
  net::RunResult cost;
  std::size_t repetitions = 0;
};

/// Extension feature (the paper's Section 5.2 remark): detecting cycles of
/// exactly length L (the C_4, C_6, C_8, C_10 problems). The paper's remark
/// builds on the color-BFS of [CFGGLO20]; as a documented substitution we
/// implement the classical color-coding base (Alon–Yuster–Zwick): every
/// node samples a color in [L]; a cycle is witnessed when a token walks
/// colors 0, 1, ..., L-1 and closes back on its origin — the distinct
/// colors force the walk to be a simple cycle of length exactly L, so the
/// detection is one-sided. Each repetition catches a fixed L-cycle with
/// probability 2L / L^L; `repetitions` (0 = auto) defaults to the 2/3 count
/// ceil(ln 3 * L^L / (2L)).
///
/// Practical for L <= 6 (the repetition count grows as L^L / 2L).
ExactCycleResult exact_cycle_detection(const net::Graph& graph, std::size_t length,
                                       util::Rng& rng, std::size_t repetitions = 0,
                                       const NetOptions& options = {});

/// The auto repetition count used when `repetitions` is 0.
std::size_t exact_cycle_default_repetitions(std::size_t length);

}  // namespace qcongest::apps
