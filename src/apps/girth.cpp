#include "src/apps/girth.hpp"

#include <cmath>
#include <stdexcept>

#include "src/net/bfs.hpp"
#include "src/net/pipeline.hpp"

namespace qcongest::apps {

GirthResult girth_quantum(const net::Graph& graph, double mu, util::Rng& rng,
                          const NetOptions& options) {
  if (mu <= 0.0 || mu > 1.0) throw std::invalid_argument("girth: mu must be in (0, 1]");
  GirthResult result;

  // Cycles, if any, have length <= 2D + 1; past that we declare a forest.
  const std::size_t k_max = 2 * graph.diameter() + 1;

  double k_target = 3.0;  // triangle step first (substitution for [CFGLO22])
  while (true) {
    auto k = static_cast<std::size_t>(std::floor(k_target));
    ++result.iterations;
    CycleSearchResult step = cycle_detection_clustered(graph, std::min(k, k_max), rng, options);
    result.cost += step.cost;
    result.charged_rounds += step.charged_rounds;
    if (step.cycle_length) {
      result.girth = step.cycle_length;  // one-sided: a found cycle is real
      return result;
    }
    if (k >= k_max) return result;  // no cycle at full length: forest
    k_target = (k < 4) ? 4.0 : k_target * (1.0 + mu);
  }
}

GirthResult girth_quantum_boosted(const net::Graph& graph, double mu, double delta,
                                  util::Rng& rng) {
  if (delta <= 0.0 || delta >= 1.0) {
    throw std::invalid_argument("girth boosted: delta must be in (0, 1)");
  }
  auto reps = static_cast<std::size_t>(
                  std::ceil(std::log(1.0 / delta) / std::log(3.0))) +
              1;
  GirthResult combined;
  for (std::size_t r = 0; r < reps; ++r) {
    GirthResult run = girth_quantum(graph, mu, rng);
    combined.cost += run.cost;
    combined.charged_rounds += run.charged_rounds;
    combined.iterations += run.iterations;
    if (run.girth && (!combined.girth || *run.girth < *combined.girth)) {
      combined.girth = run.girth;
    }
  }
  return combined;
}

GirthResult girth_classical(const net::Graph& graph, const NetOptions& options) {
  GirthResult result;
  net::Engine engine(graph, options.bandwidth, 11);
  options.configure(engine);
  const std::size_t n = graph.num_nodes();

  // All nodes BFS to full depth simultaneously; min candidate convergecast.
  std::vector<bool> active(n, true);
  std::vector<net::NodeId> sources(n);
  for (net::NodeId v = 0; v < n; ++v) sources[v] = v;
  auto bfs = cycle_bfs(engine, sources, active, n);
  result.cost += bfs.cost;

  auto election = net::elect_leader(engine);
  result.cost += election.cost;
  net::BfsTree tree = net::build_bfs_tree(engine, election.leader);
  result.cost += tree.cost;
  std::vector<std::vector<std::int64_t>> values(n);
  for (net::NodeId v = 0; v < n; ++v) values[v] = {bfs.candidate[v]};
  auto conv = net::pipelined_convergecast(
      engine, tree, values, 1,
      [](std::int64_t a, std::int64_t b) { return std::min(a, b); }, false);
  result.cost += conv.cost;

  if (conv.totals[0] < kNoCycle) {
    result.girth = static_cast<std::size_t>(conv.totals[0]);
  }
  result.iterations = 1;
  return result;
}

}  // namespace qcongest::apps
