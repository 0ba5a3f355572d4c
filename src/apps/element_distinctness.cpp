#include "src/apps/element_distinctness.hpp"

#include <stdexcept>
#include <unordered_map>

#include "src/framework/distributed_oracle.hpp"
#include "src/framework/distributed_state.hpp"
#include "src/net/bfs.hpp"
#include "src/net/pipeline.hpp"
#include "src/util/combinatorics.hpp"

namespace qcongest::apps {

namespace {

void validate(const net::Graph& graph, const std::vector<std::vector<query::Value>>& data,
              std::int64_t value_range) {
  if (data.size() != graph.num_nodes()) {
    throw std::invalid_argument("element distinctness: one vector per node");
  }
  if (data.empty() || data[0].empty()) {
    throw std::invalid_argument("element distinctness: empty input");
  }
  for (const auto& row : data) {
    if (row.size() != data[0].size()) {
      throw std::invalid_argument("element distinctness: vector sizes differ");
    }
  }
  if (value_range < 1) {
    throw std::invalid_argument("element distinctness: value_range < 1");
  }
}

std::optional<query::CollisionPair> find_collision_exact(
    const std::vector<std::int64_t>& totals) {
  std::unordered_map<std::int64_t, std::size_t> seen;
  seen.reserve(totals.size());
  for (std::size_t j = 0; j < totals.size(); ++j) {
    auto [it, inserted] = seen.try_emplace(totals[j], j);
    if (!inserted) return query::CollisionPair{it->second, j, totals[j]};
  }
  return std::nullopt;
}

}  // namespace

DistinctnessResult element_distinctness_vector_quantum(
    const net::Graph& graph, const std::vector<std::vector<query::Value>>& data,
    std::int64_t value_range, util::Rng& rng, const NetOptions& options) {
  validate(graph, data, value_range);
  const std::size_t n = graph.num_nodes();
  const std::size_t k = data[0].size();

  net::Engine engine(graph, options.bandwidth, rng.engine()());
  options.configure(engine);
  DistinctnessResult result;

  auto election = net::elect_leader(engine);
  result.cost += election.cost;
  net::BfsTree tree = net::build_bfs_tree(engine, election.leader);
  result.cost += tree.cost;

  // Lemma 12: p = D; A = [N n] (sums of n values in [N]), oplus = +.
  framework::OracleConfig config;
  config.domain_size = k;
  config.parallelism = std::max<std::size_t>(1, tree.height);
  config.value_bits = std::max<unsigned>(
      1, util::ceil_log2(static_cast<std::uint64_t>(value_range) * n + 1));
  config.combine = [](std::int64_t a, std::int64_t b) { return a + b; };
  config.identity = 0;
  config.profiler = options.metrics;
  framework::DistributedOracle oracle(engine, tree, config, data);

  result.collision = query::element_distinctness(oracle, rng);
  result.batches = oracle.ledger().batches;
  result.cost += oracle.total_cost();
  return result;
}

DistinctnessResult element_distinctness_vector_classical(
    const net::Graph& graph, const std::vector<std::vector<query::Value>>& data,
    std::int64_t value_range, const NetOptions& options) {
  validate(graph, data, value_range);
  const std::size_t n = graph.num_nodes();

  net::Engine engine(graph, options.bandwidth, options.seed);
  options.configure(engine);
  DistinctnessResult result;

  auto election = net::elect_leader(engine);
  result.cost += election.cost;
  net::BfsTree tree = net::build_bfs_tree(engine, election.leader);
  result.cost += tree.cost;

  std::size_t value_words = framework::words_for_bits(
      std::max<unsigned>(1, util::ceil_log2(
                                static_cast<std::uint64_t>(value_range) * n + 1)),
      n);
  auto conv = net::pipelined_convergecast(
      engine, tree, data, value_words,
      [](std::int64_t a, std::int64_t b) { return a + b; }, /*quantum=*/false);
  result.cost += conv.cost;
  result.collision = find_collision_exact(conv.totals);
  result.batches = 1;
  return result;
}

namespace {

std::vector<std::vector<query::Value>> nodes_to_vector_instance(
    const net::Graph& graph, const std::vector<query::Value>& values) {
  // Corollary 14's reduction: k = n, x_j^{(v)} = value_v if j == v else 0.
  // Values are shifted by +1 so that the padding zeros never collide with a
  // genuine value (the paper's [N] is 1-based).
  const std::size_t n = graph.num_nodes();
  if (values.size() != n) {
    throw std::invalid_argument("element distinctness: one value per node");
  }
  std::vector<std::vector<query::Value>> data(n, std::vector<query::Value>(n, 0));
  for (std::size_t v = 0; v < n; ++v) {
    if (values[v] < 0) {
      throw std::invalid_argument("element distinctness: negative value");
    }
    data[v][v] = values[v] + 1;
  }
  return data;
}

}  // namespace

DistinctnessResult element_distinctness_nodes_quantum(
    const net::Graph& graph, const std::vector<query::Value>& values,
    std::int64_t value_range, util::Rng& rng, const NetOptions& options) {
  auto data = nodes_to_vector_instance(graph, values);
  auto result =
      element_distinctness_vector_quantum(graph, data, value_range + 1, rng, options);
  if (result.collision) result.collision->value -= 1;  // undo the shift
  return result;
}

DistinctnessResult element_distinctness_nodes_classical(
    const net::Graph& graph, const std::vector<query::Value>& values,
    std::int64_t value_range, const NetOptions& options) {
  auto data = nodes_to_vector_instance(graph, values);
  auto result =
      element_distinctness_vector_classical(graph, data, value_range + 1, options);
  if (result.collision) result.collision->value -= 1;
  return result;
}

}  // namespace qcongest::apps
