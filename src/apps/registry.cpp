#include "src/apps/registry.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/apps/cycle_detection.hpp"
#include "src/apps/deutsch_jozsa.hpp"
#include "src/apps/eccentricity.hpp"
#include "src/apps/element_distinctness.hpp"
#include "src/apps/even_cycle.hpp"
#include "src/apps/girth.hpp"
#include "src/apps/meeting_scheduling.hpp"
#include "src/net/bfs.hpp"
#include "src/net/generators.hpp"
#include "src/net/multi_bfs.hpp"
#include "src/net/pipeline.hpp"
#include "src/util/rng.hpp"

namespace qcongest::apps {

namespace {

net::Engine make_engine(const net::Graph& graph, const NetOptions& options) {
  net::Engine engine(graph, options.bandwidth, options.seed);
  options.configure(engine);
  return engine;
}

AppOutcome run_leader(const net::Graph& graph, const NetOptions& options) {
  net::Engine engine = make_engine(graph, options);
  auto election = net::elect_leader(engine);
  return {election.cost.completed && election.leader == graph.num_nodes() - 1,
          election.cost};
}

AppOutcome run_bfs(const net::Graph& graph, const NetOptions& options) {
  net::Engine engine = make_engine(graph, options);
  net::BfsTree tree = net::build_bfs_tree(engine, 0);
  std::vector<std::size_t> truth = graph.bfs_distances(0);
  AppOutcome out;
  out.cost = tree.cost;
  out.success = tree.cost.completed && tree.depth == truth;
  return out;
}

AppOutcome run_downcast(const net::Graph& graph, const NetOptions& options) {
  net::Engine engine = make_engine(graph, options);
  net::BfsTree tree = net::build_bfs_tree(engine, 0);
  AppOutcome out;
  out.cost = tree.cost;
  std::vector<std::int64_t> payload(32);
  std::iota(payload.begin(), payload.end(), 100);
  auto down = net::pipelined_downcast(engine, tree, payload, /*quantum=*/false);
  out.cost += down.cost;
  out.success = down.cost.completed;
  for (const auto& row : down.received) {
    if (row != payload) out.success = false;
  }
  return out;
}

AppOutcome run_convergecast(const net::Graph& graph, const NetOptions& options) {
  net::Engine engine = make_engine(graph, options);
  net::BfsTree tree = net::build_bfs_tree(engine, 0);
  AppOutcome out;
  out.cost = tree.cost;
  const std::size_t n = graph.num_nodes();
  std::vector<std::vector<std::int64_t>> values(n);
  for (std::size_t v = 0; v < n; ++v) values[v] = {static_cast<std::int64_t>(v), 1};
  auto conv = net::pipelined_convergecast(
      engine, tree, values, /*value_words=*/1,
      [](std::int64_t a, std::int64_t b) { return a + b; }, /*quantum=*/false);
  out.cost += conv.cost;
  auto expected = std::vector<std::int64_t>{
      static_cast<std::int64_t>(n * (n - 1) / 2), static_cast<std::int64_t>(n)};
  out.success = conv.cost.completed && conv.totals == expected;
  return out;
}

AppOutcome run_multibfs(const net::Graph& graph, const NetOptions& options) {
  net::Engine engine = make_engine(graph, options);
  const std::size_t n = graph.num_nodes();
  std::vector<net::NodeId> sources;
  for (std::size_t s = 0; s < std::min<std::size_t>(4, n); ++s) sources.push_back(s);
  auto bfs = net::multi_source_bfs(engine, sources, n);
  AppOutcome out;
  out.cost = bfs.cost;
  out.success = bfs.cost.completed;
  for (std::size_t slot = 0; slot < sources.size() && out.success; ++slot) {
    std::vector<std::size_t> truth = graph.bfs_distances(sources[slot]);
    for (std::size_t v = 0; v < n; ++v) {
      if (static_cast<std::size_t>(bfs.dist[v][slot]) != truth[v]) {
        out.success = false;
        break;
      }
    }
  }
  return out;
}

AppOutcome run_diameter(const net::Graph& graph, const NetOptions& options) {
  auto result = diameter_classical(graph, options);
  return {result.cost.completed && result.value == graph.diameter(), result.cost};
}

AppOutcome run_radius(const net::Graph& graph, const NetOptions& options) {
  auto result = radius_classical(graph, options);
  return {result.cost.completed && result.value == graph.radius(), result.cost};
}

AppOutcome run_diameter_q(const net::Graph& graph, const NetOptions& options) {
  util::Rng rng(options.seed);
  auto result = diameter_quantum(graph, rng, options);
  return {result.cost.completed && result.value == graph.diameter(), result.cost};
}

AppOutcome run_radius_q(const net::Graph& graph, const NetOptions& options) {
  util::Rng rng(options.seed);
  auto result = radius_quantum(graph, rng, options);
  return {result.cost.completed && result.value == graph.radius(), result.cost};
}

// dj, dj_q: k = 8. Node 0 holds 01010101, everyone else all-zero, so
// x = XOR_v x^{(v)} is balanced and an exact protocol must say so.
std::vector<std::vector<query::Value>> dj_instance(std::size_t n) {
  const std::size_t k = 8;
  std::vector<std::vector<query::Value>> data(n, std::vector<query::Value>(k, 0));
  for (std::size_t i = 1; i < k; i += 2) data[0][i] = 1;
  return data;
}

AppOutcome run_dj(const net::Graph& graph, const NetOptions& options) {
  auto result =
      deutsch_jozsa_classical_exact(graph, dj_instance(graph.num_nodes()), options);
  return {result.cost.completed && result.verdict == query::DjVerdict::kBalanced,
          result.cost};
}

AppOutcome run_dj_q(const net::Graph& graph, const NetOptions& options) {
  auto result = deutsch_jozsa_quantum(graph, dj_instance(graph.num_nodes()), options);
  return {result.cost.completed && result.verdict == query::DjVerdict::kBalanced,
          result.cost};
}

// meeting, meeting_q: k = 12 slots; node v is free in slot i iff
// (v + i) % 3 == 0.
Calendars meeting_instance(std::size_t n) {
  const std::size_t k = 12;
  Calendars calendars(n, std::vector<query::Value>(k, 0));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < k; ++i) calendars[v][i] = (v + i) % 3 == 0 ? 1 : 0;
  }
  return calendars;
}

AppOutcome run_meeting(const net::Graph& graph, const NetOptions& options) {
  const Calendars calendars = meeting_instance(graph.num_nodes());
  auto truth = meeting_scheduling_reference(calendars);
  auto result = meeting_scheduling_classical(graph, calendars, options);
  return {result.cost.completed && result.best_slot == truth.best_slot &&
              result.availability == truth.availability,
          result.cost};
}

AppOutcome run_meeting_q(const net::Graph& graph, const NetOptions& options) {
  const Calendars calendars = meeting_instance(graph.num_nodes());
  auto truth = meeting_scheduling_reference(calendars);
  util::Rng rng(options.seed);
  auto result = meeting_scheduling_quantum(graph, calendars, rng, options);
  // Slots tie, so any slot attaining the maximum is a right answer.
  return {result.cost.completed && result.availability == truth.availability,
          result.cost};
}

/// True when `found` names exactly the duplicate pair {a, b}.
bool is_pair(const std::optional<query::CollisionPair>& found, std::size_t a,
             std::size_t b) {
  return found && std::min(found->i, found->j) == a && std::max(found->i, found->j) == b;
}

// edvec_q: k = 16 positions; every node holds (j mod 15) + 1 at position j,
// so x_j = n ((j mod 15) + 1) and positions 0 and 15 are the one duplicate.
AppOutcome run_edvec_q(const net::Graph& graph, const NetOptions& options) {
  const std::size_t k = 16;
  std::vector<query::Value> row(k);
  for (std::size_t j = 0; j < k; ++j) row[j] = static_cast<query::Value>(j % 15 + 1);
  const std::vector<std::vector<query::Value>> data(graph.num_nodes(), row);
  util::Rng rng(options.seed);
  auto result = element_distinctness_vector_quantum(graph, data, k, rng, options);
  return {result.cost.completed && is_pair(result.collision, 0, 15), result.cost};
}

// distinctness, distinctness_q: node v holds v mod (n - 1) from [0, n), so
// nodes 0 and n - 1 are the one duplicate pair.
std::vector<query::Value> distinctness_instance(std::size_t n) {
  std::vector<query::Value> values(n);
  for (std::size_t v = 0; v < n; ++v) values[v] = static_cast<query::Value>(v % (n - 1));
  return values;
}

AppOutcome run_distinctness(const net::Graph& graph, const NetOptions& options) {
  const std::size_t n = graph.num_nodes();
  auto result = element_distinctness_nodes_classical(graph, distinctness_instance(n),
                                                     static_cast<std::int64_t>(n), options);
  return {result.cost.completed && is_pair(result.collision, 0, n - 1), result.cost};
}

AppOutcome run_distinctness_q(const net::Graph& graph, const NetOptions& options) {
  const std::size_t n = graph.num_nodes();
  util::Rng rng(options.seed);
  auto result = element_distinctness_nodes_quantum(
      graph, distinctness_instance(n), static_cast<std::int64_t>(n), rng, options);
  return {result.cost.completed && is_pair(result.collision, 0, n - 1), result.cost};
}

// avgecc_q estimates to within epsilon = 1 (Lemma 22's additive error);
// avgecc is exact.
AppOutcome run_avgecc(const net::Graph& graph, const NetOptions& options) {
  auto result = average_eccentricity_classical(graph, options);
  return {result.cost.completed &&
              std::abs(result.estimate - graph.average_eccentricity()) <= 1e-9,
          result.cost};
}

AppOutcome run_avgecc_q(const net::Graph& graph, const NetOptions& options) {
  const double epsilon = 1.0;
  util::Rng rng(options.seed);
  auto result = average_eccentricity_quantum(graph, epsilon, rng, options);
  return {result.cost.completed &&
              std::abs(result.estimate - graph.average_eccentricity()) <= epsilon,
          result.cost};
}

// cycle_q: the smallest cycle of length <= 8, if any.
AppOutcome run_cycle_q(const net::Graph& graph, const NetOptions& options) {
  const std::size_t k = 8;
  const std::optional<std::size_t> girth = graph.girth();
  util::Rng rng(options.seed);
  auto result = cycle_detection(graph, k, rng, options);
  const bool right = girth && *girth <= k ? result.cycle_length == girth
                                          : !result.cycle_length.has_value();
  return {result.cost.completed && right, result.cost};
}

/// Exact reference for exactcycle: a 4-cycle exists iff two nodes share two
/// neighbors.
bool has_four_cycle(const net::Graph& graph) {
  const std::size_t n = graph.num_nodes();
  std::vector<std::uint8_t> shared(n * n, 0);
  for (net::NodeId x = 0; x < n; ++x) {
    const auto& around = graph.neighbors(x);
    for (std::size_t a = 0; a < around.size(); ++a) {
      for (std::size_t b = a + 1; b < around.size(); ++b) {
        const std::size_t u = std::min(around[a], around[b]);
        const std::size_t w = std::max(around[a], around[b]);
        if (++shared[u * n + w] == 2) return true;
      }
    }
  }
  return false;
}

// exactcycle: a cycle of length exactly 4, default repetition count.
AppOutcome run_exactcycle(const net::Graph& graph, const NetOptions& options) {
  util::Rng rng(options.seed);
  auto result = exact_cycle_detection(graph, 4, rng, /*repetitions=*/0, options);
  return {result.cost.completed && result.found == has_four_cycle(graph), result.cost};
}

// girth_q searches with mu = 0.5; girth is the all-BFS baseline.
AppOutcome run_girth_q(const net::Graph& graph, const NetOptions& options) {
  util::Rng rng(options.seed);
  auto result = girth_quantum(graph, 0.5, rng, options);
  return {result.cost.completed && result.girth == graph.girth(), result.cost};
}

AppOutcome run_girth(const net::Graph& graph, const NetOptions& options) {
  auto result = girth_classical(graph, options);
  return {result.cost.completed && result.girth == graph.girth(), result.cost};
}

struct GraphFamily {
  const char* name;
  net::Graph (*build)(std::size_t nodes, std::uint64_t seed);
};

[[noreturn]] void cannot_realize(const char* family, std::size_t nodes) {
  throw std::invalid_argument("make_registry_graph: family '" + std::string(family) +
                              "' cannot realize " + std::to_string(nodes) + " nodes");
}

const std::vector<GraphFamily>& family_table() {
  static const std::vector<GraphFamily> table = {
      {"tree", [](std::size_t n, std::uint64_t) { return net::binary_tree(n); }},
      {"path", [](std::size_t n, std::uint64_t) { return net::path_graph(n); }},
      {"cycle", [](std::size_t n, std::uint64_t) { return net::cycle_graph(n); }},
      {"grid",
       [](std::size_t n, std::uint64_t) {
         std::size_t side = 1;
         while ((side + 1) * (side + 1) <= n) ++side;
         return net::grid_graph(side, side);
       }},
      {"random",
       [](std::size_t n, std::uint64_t seed) {
         util::Rng rng(seed);
         return net::random_connected_graph(n, n / 2, rng);
       }},
      {"star", [](std::size_t n, std::uint64_t) { return net::star_graph(n); }},
      {"complete", [](std::size_t n, std::uint64_t) { return net::complete_graph(n); }},
      {"petersen",
       [](std::size_t n, std::uint64_t) {
         if (n != 10) cannot_realize("petersen", n);
         return net::petersen_graph();
       }},
      // Two stars whose centers are joined by a path of 2 edges.
      {"two-stars",
       [](std::size_t n, std::uint64_t) {
         if (n < 5) cannot_realize("two-stars", n);
         const std::size_t left = (n - 3) / 2;
         return net::two_stars_graph(left, n - 3 - left, 2);
       }},
      // A clique on half the nodes with a path on the rest.
      {"lollipop",
       [](std::size_t n, std::uint64_t) {
         if (n < 4) cannot_realize("lollipop", n);
         return net::lollipop_graph(n / 2, n - n / 2);
       }},
      // A 6-cycle with random trees hanging off it: girth 6.
      {"cycle-trees",
       [](std::size_t n, std::uint64_t seed) {
         if (n < 6) cannot_realize("cycle-trees", n);
         util::Rng rng(seed);
         return net::cycle_with_trees(6, n, rng);
       }},
  };
  return table;
}

}  // namespace

const std::vector<RegisteredApp>& app_registry() {
  static const std::vector<RegisteredApp> registry = {
      {"leader", "primitive: flood-max leader election", run_leader},
      {"bfs", "primitive: BFS tree", run_bfs},
      {"downcast", "primitive: pipelined downcast", run_downcast},
      {"convergecast", "primitive: pipelined convergecast", run_convergecast},
      {"multibfs", "primitive: multi-source BFS (Lemma 20)", run_multibfs},
      {"diameter", "classical APSP baseline of Lemma 21", run_diameter},
      {"radius", "classical APSP baseline of Lemma 21", run_radius},
      {"dj", "classical exact baseline of Thm 18", run_dj},
      {"meeting", "classical gather baseline of Lemma 11", run_meeting},
      {"meeting_q", "Lemma 10", run_meeting_q},
      {"edvec_q", "Lemma 12", run_edvec_q},
      {"distinctness_q", "Cor 14", run_distinctness_q},
      {"distinctness", "classical gather baseline of Cor 14", run_distinctness},
      {"dj_q", "Thm 17", run_dj_q},
      {"diameter_q", "Lemma 21", run_diameter_q},
      {"radius_q", "Lemma 21", run_radius_q},
      {"avgecc_q", "Lemma 22", run_avgecc_q},
      {"avgecc", "classical APSP baseline of Lemma 22", run_avgecc},
      {"cycle_q", "Lemma 23", run_cycle_q},
      {"exactcycle", "Section 5.2 remark", run_exactcycle},
      {"girth_q", "Cor 26", run_girth_q},
      {"girth", "classical all-BFS baseline of Cor 26", run_girth},
  };
  return registry;
}

const AppRunner* find_app(std::string_view name) {
  for (const RegisteredApp& app : app_registry()) {
    if (name == app.name) return &app.run;
  }
  return nullptr;
}

std::vector<std::string> app_names() {
  std::vector<std::string> names;
  names.reserve(app_registry().size());
  for (const RegisteredApp& app : app_registry()) names.emplace_back(app.name);
  return names;
}

net::Graph make_registry_graph(std::string_view family, std::size_t nodes,
                               std::uint64_t seed) {
  if (nodes < 2) {
    throw std::invalid_argument("make_registry_graph: need at least 2 nodes");
  }
  for (const GraphFamily& entry : family_table()) {
    if (family == entry.name) return entry.build(nodes, seed);
  }
  throw std::invalid_argument("make_registry_graph: unknown graph family '" +
                              std::string(family) + "'");
}

std::vector<std::string> graph_families() {
  std::vector<std::string> names;
  for (const GraphFamily& entry : family_table()) names.emplace_back(entry.name);
  return names;
}

}  // namespace qcongest::apps
