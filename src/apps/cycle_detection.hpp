#pragma once

#include <optional>
#include <vector>

#include "src/apps/net_options.hpp"
#include "src/net/graph.hpp"
#include "src/util/rng.hpp"
#include "src/net/engine.hpp"

namespace qcongest::apps {

/// Sentinel for "no cycle found" inside the min-semigroup aggregation.
inline constexpr std::int64_t kNoCycle = 1 << 20;

struct CycleSearchResult {
  std::optional<std::size_t> cycle_length;  // smallest cycle <= k found
  net::RunResult cost;
  std::size_t charged_rounds = 0;  // non-measured rounds (Lemma 24 clustering)
  std::size_t batches = 0;
};

/// The truncated multi-source BFS-meeting subroutine shared by the light-
/// and heavy-cycle procedures: BFS tokens from every source up to
/// `depth_limit`, restricted to `active` nodes; every node records the
/// smallest cycle-length candidate (d + d') witnessed by token meetings.
/// Returns per-node candidates (kNoCycle if none) and the measured cost.
struct CycleBfsResult {
  std::vector<std::int64_t> candidate;  // [node]
  net::RunResult cost;
};
CycleBfsResult cycle_bfs(net::Engine& engine, const std::vector<net::NodeId>& sources,
                         const std::vector<bool>& active, std::size_t depth_limit);

/// The per-query token pass of the heavy-cycle stage ([CFGGLO20]'s
/// procedure): for each query vertex s in `queries`, stage 1 floods a BFS
/// from s itself, stage 2 floods BFSs from every neighbor of s on G \ {s}
/// (tokens tagged by query slot; each node joins the first branch it sees
/// per slot, so the neighbor BFSs partition the graph as in the paper).
/// candidate[v][slot] is the smallest cycle witness (<= k) node v saw for
/// that query. Measured cost O(|queries| + k).
struct PerSourceCandidates {
  std::vector<std::vector<std::int64_t>> candidate;  // [node][slot]
  net::RunResult cost;
};
PerSourceCandidates per_source_cycle_candidates(net::Engine& engine,
                                                const std::vector<net::NodeId>& queries,
                                                std::size_t k, bool stage2);

/// Light-cycle stage of Lemma 23: all nodes of degree <= degree_threshold
/// run truncated BFS simultaneously; a min-convergecast delivers the
/// smallest candidate to the leader. Exact for cycles that avoid heavy
/// nodes; measured O(k + n^{ceil(k/2) beta}) rounds.
CycleSearchResult light_cycle_detection(const net::Graph& graph, std::size_t k,
                                        std::size_t degree_threshold,
                                        const NetOptions& options = {});

/// Lemma 23: find the smallest cycle of length <= k (k >= 3 here; the paper
/// states k >= 4, triangles work identically in our simulator and Corollary
/// 26's triangle case is documented as a substitution for [CFGLO22]).
/// Light and heavy stages with the rebalanced beta; success >= 2/3 when a
/// cycle of length <= k exists; never reports a cycle when none exists.
/// Measured O(D + (Dn)^{1/2 - 1/(4 ceil(k/2) + 2)}) rounds.
CycleSearchResult cycle_detection(const net::Graph& graph, std::size_t k,
                                  util::Rng& rng, const NetOptions& options = {});

/// Lemma 25: the diameter-independent version — Lemma 24 clustering
/// (charged, not measured; see DESIGN.md) + per-color parallel runs of
/// cycle_detection on cluster neighborhoods. Measured + charged
/// O~(k + (kn)^{1/2 - 1/(4 ceil(k/2) + 2)}) rounds. The per-cluster runs
/// are on subgraphs with their own node ids, so options that name nodes of
/// `graph` (crash windows, per-edge fault overrides, a tracked cut) throw
/// std::invalid_argument.
CycleSearchResult cycle_detection_clustered(const net::Graph& graph, std::size_t k,
                                            util::Rng& rng,
                                            const NetOptions& options = {});

/// The paper's rebalanced light/heavy threshold
/// beta = (1 + log_n(D)) / (1 + 2 ceil(k/2)); exposed for the ablation
/// bench sweeping beta.
double cycle_beta(std::size_t n, std::size_t diameter, std::size_t k);

/// Lemma 23 with an explicit beta (ablation entry point).
CycleSearchResult cycle_detection_with_beta(const net::Graph& graph, std::size_t k,
                                            double beta, util::Rng& rng,
                                            const NetOptions& options = {});

}  // namespace qcongest::apps
