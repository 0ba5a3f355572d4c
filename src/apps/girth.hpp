#pragma once

#include <optional>

#include "src/apps/cycle_detection.hpp"

namespace qcongest::apps {

struct GirthResult {
  std::optional<std::size_t> girth;  // nullopt for forests
  net::RunResult cost;
  std::size_t charged_rounds = 0;
  std::size_t iterations = 0;  // geometric-search iterations performed
};

/// Corollary 26: compute the girth by geometric search over cycle lengths
/// k = 3, 4, 4(1+mu), 4(1+mu)^2, ... using the clustered cycle detection of
/// Lemma 25 per step. One-sided error: the result is never smaller than the
/// girth; with probability >= 2/3 it equals the girth. No upper bound on g
/// needs to be known in advance.
///
/// Substitution note (DESIGN.md): the paper opens with the O~(n^{1/5})
/// quantum triangle finding of [CFGLO22]; we run our own cycle machinery at
/// k = 3 instead, which preserves correctness and the g >= 4 asymptotics.
///
/// The steps run on cluster subgraphs, so `options` naming nodes (crash
/// windows among them) throw std::invalid_argument; see
/// cycle_detection_clustered.
GirthResult girth_quantum(const net::Graph& graph, double mu, util::Rng& rng,
                          const NetOptions& options = {});

/// Classical baseline: every node BFSes to depth n (the [PRT12]-style exact
/// girth computation), Theta(n) measured rounds even on constant-girth
/// graphs — the [FHW12] lower-bound regime the quantum algorithm beats.
GirthResult girth_classical(const net::Graph& graph, const NetOptions& options = {});

/// Girth boosted to success >= 1 - delta: one-sided error means a found
/// girth is never below the truth, so the minimum over O(log 1/delta)
/// independent runs is sound.
GirthResult girth_quantum_boosted(const net::Graph& graph, double mu, double delta,
                                  util::Rng& rng);

}  // namespace qcongest::apps
