#include "src/apps/eccentricity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/framework/distributed_oracle.hpp"
#include "src/net/bfs.hpp"
#include "src/net/multi_bfs.hpp"
#include "src/net/pipeline.hpp"
#include "src/query/mean_estimation.hpp"
#include "src/query/parallel_minfind.hpp"
#include "src/util/combinatorics.hpp"

namespace qcongest::apps {

namespace {

struct Setup {
  net::Engine engine;
  net::BfsTree tree;
  net::RunResult cost;
};

Setup make_setup(const net::Graph& graph, std::uint64_t seed,
                 const NetOptions& options = {}) {
  if (!graph.connected()) {
    throw std::invalid_argument("eccentricity: graph must be connected");
  }
  Setup s{net::Engine(graph, options.bandwidth, seed ^ options.seed), {}, {}};
  options.configure(s.engine);
  auto election = net::elect_leader(s.engine);
  s.cost += election.cost;
  s.tree = net::build_bfs_tree(s.engine, election.leader);
  s.cost += s.tree.cost;
  return s;
}

/// The Corollary 9 on-the-fly subroutine of Lemma 21: a batch of node-index
/// queries triggers a multi-source BFS from exactly those nodes (Lemma 20);
/// node v's contribution for query j is d(v, j) and the framework's
/// max-convergecast assembles ecc(j).
framework::DistributedOracle make_ecc_oracle(Setup& setup, const net::Graph& graph,
                                             obs::RoundProfiler* profiler = nullptr) {
  const std::size_t n = graph.num_nodes();
  framework::OracleConfig config;
  config.domain_size = n;
  config.parallelism = std::max<std::size_t>(1, setup.tree.height);
  config.value_bits = std::max<unsigned>(1, util::ceil_log2(n));
  config.combine = [](std::int64_t a, std::int64_t b) { return std::max(a, b); };
  config.identity = 0;
  config.profiler = profiler;

  framework::DistributedOracle::BatchComputer computer =
      [&setup, n](std::span<const std::size_t> indices) {
        std::vector<net::NodeId> sources(indices.begin(), indices.end());
        auto bfs = net::multi_source_bfs(setup.engine, sources, n);
        framework::DistributedOracle::BatchValues out;
        out.cost = bfs.cost;
        out.per_node.assign(n, std::vector<query::Value>(indices.size(), 0));
        for (std::size_t v = 0; v < n; ++v) {
          for (std::size_t slot = 0; slot < indices.size(); ++slot) {
            out.per_node[v][slot] = static_cast<query::Value>(bfs.dist[v][slot]);
          }
        }
        return out;
      };
  auto truth = [&graph](std::size_t j) {
    return static_cast<query::Value>(graph.eccentricity(j));
  };
  return {setup.engine, setup.tree, config, computer, truth};
}

EccentricityResult extremum_quantum(const net::Graph& graph, util::Rng& rng,
                                    bool maximum, const NetOptions& options = {}) {
  Setup setup = make_setup(graph, rng.engine()(), options);
  EccentricityResult result;
  result.cost = setup.cost;

  framework::DistributedOracle oracle = make_ecc_oracle(setup, graph, options.metrics);
  std::size_t witness = maximum ? query::maxfind(oracle, rng) : query::minfind(oracle, rng);
  result.witness = witness;
  result.value = static_cast<std::size_t>(oracle.peek(witness));
  result.batches = oracle.ledger().batches;
  result.cost += oracle.total_cost();
  return result;
}

EccentricityResult extremum_classical(const net::Graph& graph, bool maximum,
                                      const NetOptions& options = {}) {
  Setup setup = make_setup(graph, 4, options);
  EccentricityResult result;
  result.cost = setup.cost;
  const std::size_t n = graph.num_nodes();

  // Full APSP: BFS from every node (O(n + D)), then one convergecast
  // assembling every eccentricity at the leader.
  std::vector<net::NodeId> all(n);
  for (std::size_t v = 0; v < n; ++v) all[v] = v;
  auto bfs = net::multi_source_bfs(setup.engine, all, n);
  result.cost += bfs.cost;

  std::vector<std::vector<std::int64_t>> dist_rows(n);
  for (std::size_t v = 0; v < n; ++v) {
    dist_rows[v].assign(bfs.dist[v].begin(), bfs.dist[v].end());
  }
  auto conv = net::pipelined_convergecast(
      setup.engine, setup.tree, dist_rows, /*value_words=*/1,
      [](std::int64_t a, std::int64_t b) { return std::max(a, b); },
      /*quantum=*/false);
  result.cost += conv.cost;

  result.witness = 0;
  for (std::size_t j = 0; j < n; ++j) {
    bool better = maximum ? conv.totals[j] > conv.totals[result.witness]
                          : conv.totals[j] < conv.totals[result.witness];
    if (better) result.witness = j;
  }
  result.value = static_cast<std::size_t>(conv.totals[result.witness]);
  result.batches = 1;
  return result;
}

/// Lemma 22's sample oracle: one batch = p random nodes' eccentricities,
/// produced by the same downcast + multi-BFS + max-convergecast pattern.
class EccentricitySampler final : public query::SampleOracle {
 public:
  EccentricitySampler(Setup& setup, const net::Graph& graph)
      : setup_(&setup), graph_(&graph) {
    const std::size_t n = graph.num_nodes();
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      double e = static_cast<double>(graph.eccentricity(v));
      sum += e;
      sum_sq += e * e;
    }
    mean_ = sum / static_cast<double>(n);
    variance_ = sum_sq / static_cast<double>(n) - mean_ * mean_;
  }

  std::size_t parallelism() const override {
    return std::max<std::size_t>(1, setup_->tree.height);
  }
  double true_mean() const override { return mean_; }
  double true_variance() const override { return variance_; }

  net::RunResult network_cost() const { return network_cost_; }

 protected:
  std::vector<double> draw(std::size_t count, util::Rng& rng) override {
    const std::size_t n = graph_->num_nodes();
    // The leader samples `count` node indices and shares them (Lemma 7).
    std::vector<net::NodeId> sources;
    std::vector<std::int64_t> payload;
    for (std::size_t i = 0; i < count; ++i) {
      sources.push_back(rng.index(n));
      payload.push_back(static_cast<std::int64_t>(sources.back()));
    }
    network_cost_ += net::pipelined_downcast(setup_->engine, setup_->tree, payload,
                                             /*quantum=*/true)
                         .cost;
    auto bfs = net::multi_source_bfs(setup_->engine, sources, n);
    network_cost_ += bfs.cost;
    std::vector<std::vector<std::int64_t>> rows(n);
    for (std::size_t v = 0; v < n; ++v) {
      rows[v].assign(bfs.dist[v].begin(), bfs.dist[v].end());
    }
    auto conv = net::pipelined_convergecast(
        setup_->engine, setup_->tree, rows, /*value_words=*/1,
        [](std::int64_t a, std::int64_t b) { return std::max(a, b); },
        /*quantum=*/true);
    network_cost_ += conv.cost;
    return {conv.totals.begin(), conv.totals.end()};
  }

 private:
  Setup* setup_;
  const net::Graph* graph_;
  double mean_ = 0.0;
  double variance_ = 0.0;
  net::RunResult network_cost_;
};

}  // namespace

EccentricityResult diameter_quantum(const net::Graph& graph, util::Rng& rng,
                                    const NetOptions& options) {
  return extremum_quantum(graph, rng, /*maximum=*/true, options);
}

EccentricityResult diameter_quantum_echo(const net::Graph& graph, util::Rng& rng) {
  Setup setup = make_setup(graph, rng.engine()());
  EccentricityResult result;
  result.cost = setup.cost;
  const std::size_t n = graph.num_nodes();

  framework::OracleConfig config;
  config.domain_size = n;
  config.parallelism = std::max<std::size_t>(1, setup.tree.height);
  config.value_bits = std::max<unsigned>(1, util::ceil_log2(n));
  config.combine = [](std::int64_t a, std::int64_t b) { return std::max(a, b); };
  config.identity = 0;

  framework::DistributedOracle::BatchComputer computer =
      [&setup, n](std::span<const std::size_t> indices) {
        std::vector<net::NodeId> sources(indices.begin(), indices.end());
        auto echo = net::multi_source_eccentricities(setup.engine, sources, n);
        framework::DistributedOracle::BatchValues out;
        out.cost = echo.bfs.cost;
        out.cost += echo.echo_cost;
        // Only the queried node holds its eccentricity; everyone else
        // contributes the max-identity.
        out.per_node.assign(n, std::vector<query::Value>(indices.size(), 0));
        for (std::size_t slot = 0; slot < indices.size(); ++slot) {
          out.per_node[indices[slot]][slot] =
              static_cast<query::Value>(echo.eccentricity[slot]);
        }
        return out;
      };
  auto truth = [&graph](std::size_t j) {
    return static_cast<query::Value>(graph.eccentricity(j));
  };
  framework::DistributedOracle oracle(setup.engine, setup.tree, config, computer,
                                      truth);

  result.witness = query::maxfind(oracle, rng);
  result.value = static_cast<std::size_t>(oracle.peek(result.witness));
  result.batches = oracle.ledger().batches;
  result.cost += oracle.total_cost();
  return result;
}

EccentricityResult radius_quantum(const net::Graph& graph, util::Rng& rng,
                                  const NetOptions& options) {
  return extremum_quantum(graph, rng, /*maximum=*/false, options);
}

namespace {

EccentricityResult extremum_boosted(const net::Graph& graph, double delta,
                                    util::Rng& rng, bool maximum) {
  if (delta <= 0.0 || delta >= 1.0) {
    throw std::invalid_argument("boosted eccentricity: delta must be in (0, 1)");
  }
  auto reps = static_cast<std::size_t>(
                  std::ceil(std::log(1.0 / delta) / std::log(3.0))) +
              1;
  EccentricityResult best;
  for (std::size_t r = 0; r < reps; ++r) {
    EccentricityResult run = extremum_quantum(graph, rng, maximum);
    bool better = r == 0 || (maximum ? run.value > best.value : run.value < best.value);
    net::RunResult total = best.cost;
    total += run.cost;
    std::size_t batches = best.batches + run.batches;
    if (better) best = run;
    best.cost = total;
    best.batches = batches;
  }
  return best;
}

}  // namespace

EccentricityResult diameter_classical(const net::Graph& graph,
                                      const NetOptions& options) {
  return extremum_classical(graph, /*maximum=*/true, options);
}

EccentricityResult diameter_quantum_boosted(const net::Graph& graph, double delta,
                                            util::Rng& rng) {
  return extremum_boosted(graph, delta, rng, /*maximum=*/true);
}

EccentricityResult radius_quantum_boosted(const net::Graph& graph, double delta,
                                          util::Rng& rng) {
  return extremum_boosted(graph, delta, rng, /*maximum=*/false);
}

EccentricityResult radius_classical(const net::Graph& graph,
                                    const NetOptions& options) {
  return extremum_classical(graph, /*maximum=*/false, options);
}

AverageEccentricityResult average_eccentricity_classical(const net::Graph& graph,
                                                         const NetOptions& options) {
  Setup setup = make_setup(graph, 5, options);
  AverageEccentricityResult result;
  result.cost = setup.cost;
  const std::size_t n = graph.num_nodes();

  std::vector<net::NodeId> all(n);
  for (std::size_t v = 0; v < n; ++v) all[v] = v;
  auto bfs = net::multi_source_bfs(setup.engine, all, n);
  result.cost += bfs.cost;
  std::vector<std::vector<std::int64_t>> dist_rows(n);
  for (std::size_t v = 0; v < n; ++v) {
    dist_rows[v].assign(bfs.dist[v].begin(), bfs.dist[v].end());
  }
  auto conv = net::pipelined_convergecast(
      setup.engine, setup.tree, dist_rows, /*value_words=*/1,
      [](std::int64_t a, std::int64_t b) { return std::max(a, b); },
      /*quantum=*/false);
  result.cost += conv.cost;

  double total = 0.0;
  for (std::int64_t ecc : conv.totals) total += static_cast<double>(ecc);
  result.estimate = total / static_cast<double>(n);
  result.batches = 1;
  return result;
}

AverageEccentricityResult average_eccentricity_quantum(const net::Graph& graph,
                                                       double epsilon, util::Rng& rng,
                                                       const NetOptions& options) {
  if (epsilon <= 0.0) {
    throw std::invalid_argument("average eccentricity: epsilon <= 0");
  }
  Setup setup = make_setup(graph, rng.engine()(), options);
  AverageEccentricityResult result;
  result.cost = setup.cost;

  EccentricitySampler sampler(setup, graph);
  // Lemma 22: sigma <= D; the leader knows the tree height as its D proxy.
  double sigma_bound = std::max<double>(1.0, static_cast<double>(setup.tree.height));
  auto estimate = query::estimate_mean(sampler, epsilon, sigma_bound, rng);
  result.estimate = estimate.value;
  result.batches = estimate.batches;
  result.cost += sampler.network_cost();
  return result;
}

}  // namespace qcongest::apps
