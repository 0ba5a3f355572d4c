#pragma once

#include "src/apps/net_options.hpp"
#include "src/net/graph.hpp"
#include "src/util/rng.hpp"
#include "src/net/engine.hpp"

namespace qcongest::apps {

struct EccentricityResult {
  std::size_t value = 0;       // the computed diameter or radius
  std::size_t witness = 0;     // a node attaining it
  net::RunResult cost;
  std::size_t batches = 0;
};

/// Lemma 21: diameter (max eccentricity) in O(sqrt(n D)) measured rounds —
/// parallel maximum finding with p = D over the Corollary 9 oracle whose
/// on-the-fly subroutine is a p-source BFS (Lemma 20, O(p + D) rounds); the
/// framework's max-convergecast itself assembles each queried node's
/// eccentricity. Success probability >= 2/3.
EccentricityResult diameter_quantum(const net::Graph& graph, util::Rng& rng,
                                    const NetOptions& options = {});

/// Lemma 21, minimum variant: the radius.
EccentricityResult radius_quantum(const net::Graph& graph, util::Rng& rng,
                                  const NetOptions& options = {});

/// The paper's literal phrasing of the Lemma 21 subroutine: "we will query
/// the eccentricity of a node; to compute this eccentricity we first
/// compute BFS from the node". This variant runs the full Lemma 20 (BFS +
/// per-source echo, net::multi_source_eccentricities) so each queried node
/// *knows* its eccentricity and contributes it directly; the default
/// diameter_quantum instead lets the framework's max-convergecast assemble
/// the eccentricities from raw distances. Same asymptotics — an
/// implementation-strategy ablation.
EccentricityResult diameter_quantum_echo(const net::Graph& graph, util::Rng& rng);

/// Classical baseline: full n-source BFS (O(n + D) rounds) plus a
/// max/min-convergecast; exact.
EccentricityResult diameter_classical(const net::Graph& graph,
                                      const NetOptions& options = {});
EccentricityResult radius_classical(const net::Graph& graph,
                                    const NetOptions& options = {});

/// Success boosted to >= 1 - delta by combining O(log 1/delta) independent
/// runs (the paper's standard remark). One-sidedness makes the combination
/// sound: every run returns a *genuine* eccentricity, so the maximum over
/// runs approaches the diameter from below (resp. the minimum approaches
/// the radius from above) and never overshoots.
EccentricityResult diameter_quantum_boosted(const net::Graph& graph, double delta,
                                            util::Rng& rng);
EccentricityResult radius_quantum_boosted(const net::Graph& graph, double delta,
                                          util::Rng& rng);

struct AverageEccentricityResult {
  double estimate = 0.0;
  net::RunResult cost;
  std::size_t batches = 0;
};

/// Lemma 22: an epsilon-additive estimate of the average eccentricity in
/// O~(D^{3/2} / epsilon) measured rounds — mean estimation (Lemma 6) with
/// p = D and sigma <= D, each batch sampling D random nodes' eccentricities
/// via multi-source BFS + max-convergecast. Success probability >= 2/3.
AverageEccentricityResult average_eccentricity_quantum(const net::Graph& graph,
                                                       double epsilon, util::Rng& rng,
                                                       const NetOptions& options = {});

/// Classical baseline: exact average eccentricity via full APSP
/// (Theta(n + D) measured rounds) — the comparison point for Lemma 22's
/// D^{3/2}/eps advantage on low-diameter graphs.
AverageEccentricityResult average_eccentricity_classical(const net::Graph& graph,
                                                         const NetOptions& options = {});

}  // namespace qcongest::apps
