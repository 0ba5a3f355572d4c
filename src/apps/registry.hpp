#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/net_options.hpp"
#include "src/net/engine.hpp"
#include "src/net/graph.hpp"

namespace qcongest::apps {

/// Result of one registry app run: did the protocol's answer match ground
/// truth, and what did the run cost. The success bit is computed by the
/// runner itself (each app self-checks against an exact reference), so
/// callers — chaos_run's sweep, the qcongestd service — never need
/// app-specific knowledge to grade an outcome.
struct AppOutcome {
  bool success = false;
  net::RunResult cost;
};

/// One application under test: run it on `graph` with the given options and
/// self-check the answer. Runners are pure functions of (graph, options) —
/// no hidden state — which is what lets the service execute many of them
/// concurrently and still promise byte-identical reports per (job, seed).
using AppRunner = std::function<AppOutcome(const net::Graph&, const NetOptions&)>;

struct RegisteredApp {
  const char* name;
  /// Where the app comes from: the paper's Lemma/Corollary/Theorem for the
  /// quantum algorithms, the result a classical baseline or network
  /// primitive stands beside otherwise.
  const char* paper;
  AppRunner run;
};

/// The named application suite shared by every front end (qcongest_cli,
/// chaos_run, the qcongestd service, the result cache): the network
/// primitives leader, bfs, downcast, convergecast and multibfs; the
/// classical baselines diameter, radius, dj, meeting, distinctness, avgecc
/// and girth; and the paper's Theorem 8 applications meeting_q (Lemma 10),
/// edvec_q (Lemma 12), distinctness_q (Cor 14), dj_q (Thm 17), diameter_q
/// and radius_q (Lemma 21), avgecc_q (Lemma 22), cycle_q (Lemma 23),
/// exactcycle (Section 5.2 remark) and girth_q (Cor 26). Each app fixes its
/// input instance from n, seeds its util::Rng from options.seed, and grades
/// its answer against an exact reference. Order is fixed.
const std::vector<RegisteredApp>& app_registry();

/// Look up a runner by name; nullptr when unknown.
const AppRunner* find_app(std::string_view name);

/// The registered app names, in registry order.
std::vector<std::string> app_names();

/// The one topology factory, by family name: tree | path | cycle | grid |
/// random | star | complete | petersen | two-stars | lollipop | cycle-trees.
/// `seed` only matters for random and cycle-trees. grid builds the largest
/// side*side grid with side*side <= nodes; every other family builds
/// exactly `nodes` nodes or throws std::invalid_argument (petersen needs 10,
/// two-stars 5+, lollipop 4+, cycle-trees 6+), as it does for an unknown
/// family or fewer than 2 nodes.
net::Graph make_registry_graph(std::string_view family, std::size_t nodes,
                               std::uint64_t seed);

/// The accepted graph family names.
std::vector<std::string> graph_families();

}  // namespace qcongest::apps
