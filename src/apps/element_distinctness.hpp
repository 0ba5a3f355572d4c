#pragma once

#include <optional>
#include <vector>

#include "src/apps/net_options.hpp"
#include "src/net/engine.hpp"
#include "src/net/graph.hpp"
#include "src/query/element_distinctness.hpp"
#include "src/util/rng.hpp"

namespace qcongest::apps {

struct DistinctnessResult {
  std::optional<query::CollisionPair> collision;
  net::RunResult cost;
  std::size_t batches = 0;
};

/// Lemma 12: element distinctness in a distributed vector. Each node v
/// holds x^{(v)} in [N]^k; decide whether x = sum_v x^{(v)} contains a
/// duplicate (and return one). Quantum walk of Lemma 5 with p = D over the
/// Theorem 8 oracle:
/// O((k^{2/3} D^{1/3} + D)(ceil(log N / log n) + ceil(log k / log n)))
/// measured rounds, success >= 2/3 (one-sided: never a false collision).
DistinctnessResult element_distinctness_vector_quantum(
    const net::Graph& graph, const std::vector<std::vector<query::Value>>& data,
    std::int64_t value_range, util::Rng& rng, const NetOptions& options = {});

/// Classical baseline: gather the aggregated vector at the leader
/// (Theta(D + k ceil(log N / log n)) measured rounds), answer exactly.
DistinctnessResult element_distinctness_vector_classical(
    const net::Graph& graph, const std::vector<std::vector<query::Value>>& data,
    std::int64_t value_range, const NetOptions& options = {});

/// Corollary 14: element distinctness between nodes — node v holds a single
/// value in [N]; decide whether any two nodes hold the same value. Reduces
/// to Lemma 12 with k = n and x_j^{(v)} = value_v * [j == v]:
/// O((n^{2/3} D^{1/3} + D) ceil(log N / log n)) measured rounds.
DistinctnessResult element_distinctness_nodes_quantum(const net::Graph& graph,
                                                      const std::vector<query::Value>& values,
                                                      std::int64_t value_range,
                                                      util::Rng& rng,
                                                      const NetOptions& options = {});

/// Classical baseline for the between-nodes variant: gather everything.
DistinctnessResult element_distinctness_nodes_classical(
    const net::Graph& graph, const std::vector<query::Value>& values,
    std::int64_t value_range, const NetOptions& options = {});

}  // namespace qcongest::apps
