// The one app registry and graph factory (src/apps/registry): every entry
// runs on the factory's families, the entry points behind the Theorem 8
// apps keep their costs when called with default NetOptions, and the
// quantum apps keep the service's byte-identity and error-report contracts.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/apps/cycle_detection.hpp"
#include "src/apps/eccentricity.hpp"
#include "src/apps/element_distinctness.hpp"
#include "src/apps/even_cycle.hpp"
#include "src/apps/girth.hpp"
#include "src/apps/registry.hpp"
#include "src/serve/job.hpp"

namespace qcongest::apps {
namespace {

TEST(Registry, TheoremEightAppsResolve) {
  for (const char* name :
       {"meeting_q", "edvec_q", "distinctness_q", "dj_q", "diameter_q", "radius_q",
        "avgecc_q", "cycle_q", "exactcycle", "girth_q", "distinctness", "avgecc",
        "girth"}) {
    EXPECT_NE(find_app(name), nullptr) << name;
  }
  EXPECT_EQ(find_app("bogus"), nullptr);
  EXPECT_EQ(app_names().size(), app_registry().size());
}

TEST(Registry, EveryEntryCompletesOnTreeRandomAndTwoStars) {
  for (const char* family : {"tree", "random", "two-stars"}) {
    const net::Graph graph = make_registry_graph(family, 16, 4);
    for (const RegisteredApp& app : app_registry()) {
      AppOutcome out;
      ASSERT_NO_THROW(out = app.run(graph, NetOptions{})) << app.name << " on " << family;
      EXPECT_TRUE(out.cost.completed) << app.name << " on " << family;
      EXPECT_GT(out.cost.rounds, 0u) << app.name << " on " << family;
    }
  }
}

TEST(Registry, FamiliesBuildExactlyTheRequestedSizeOrThrow) {
  for (const std::string& family : graph_families()) {
    if (family == "grid" || family == "petersen") continue;
    EXPECT_EQ(make_registry_graph(family, 24, 1).num_nodes(), 24u) << family;
    EXPECT_TRUE(make_registry_graph(family, 24, 1).connected()) << family;
  }
  EXPECT_EQ(make_registry_graph("grid", 24, 1).num_nodes(), 16u);  // 4 x 4
  EXPECT_EQ(make_registry_graph("petersen", 10, 1).num_nodes(), 10u);
  EXPECT_EQ(make_registry_graph("cycle-trees", 30, 7).girth(), 6u);
  EXPECT_THROW(make_registry_graph("petersen", 12, 1), std::invalid_argument);
  EXPECT_THROW(make_registry_graph("two-stars", 4, 1), std::invalid_argument);
  EXPECT_THROW(make_registry_graph("lollipop", 3, 1), std::invalid_argument);
  EXPECT_THROW(make_registry_graph("cycle-trees", 5, 1), std::invalid_argument);
  EXPECT_THROW(make_registry_graph("tree", 1, 1), std::invalid_argument);
  EXPECT_THROW(make_registry_graph("bogus", 16, 1), std::invalid_argument);
}

/// One entry point taking a trailing `const NetOptions& = {}`: `run(nullptr)`
/// calls it without options, `run(&options)` with them. The pinned costs
/// were measured before the options were added, so default options keep
/// every existing caller's rounds and words.
struct Widened {
  const char* name;
  std::function<net::RunResult(const NetOptions*)> run;
  std::size_t rounds;
  std::size_t messages;
  std::size_t quantum_words;
};

TEST(Registry, WidenedEntryPointsKeepTheirCostsUnderDefaultOptions) {
  const net::Graph g = make_registry_graph("random", 24, 5);
  const std::size_t n = g.num_nodes();
  std::vector<query::Value> values(n);
  for (std::size_t v = 0; v < n; ++v) values[v] = static_cast<query::Value>((v * 7) % n);
  std::vector<std::vector<query::Value>> data(n, std::vector<query::Value>(10));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < 10; ++j) data[v][j] = static_cast<query::Value>((v + 3 * j) % 5);
  }
  const std::vector<Widened> table = {
      {"element_distinctness_vector_quantum",
       [&](const NetOptions* o) {
         util::Rng rng(3);
         return (o ? element_distinctness_vector_quantum(g, data, 5, rng, *o)
                   : element_distinctness_vector_quantum(g, data, 5, rng))
             .cost;
       },
       115, 1654, 1380},
      {"element_distinctness_vector_classical",
       [&](const NetOptions* o) {
         return (o ? element_distinctness_vector_classical(g, data, 5, *o)
                   : element_distinctness_vector_classical(g, data, 5))
             .cost;
       },
       36, 734, 0},
      {"element_distinctness_nodes_quantum",
       [&](const NetOptions* o) {
         util::Rng rng(3);
         return (o ? element_distinctness_nodes_quantum(g, values, 24, rng, *o)
                   : element_distinctness_nodes_quantum(g, values, 24, rng))
             .cost;
       },
       244, 3586, 3312},
      {"element_distinctness_nodes_classical",
       [&](const NetOptions* o) {
         return (o ? element_distinctness_nodes_classical(g, values, 24, *o)
                   : element_distinctness_nodes_classical(g, values, 24))
             .cost;
       },
       64, 1378, 0},
      {"average_eccentricity_quantum",
       [&](const NetOptions* o) {
         util::Rng rng(3);
         return (o ? average_eccentricity_quantum(g, 1.0, rng, *o)
                   : average_eccentricity_quantum(g, 1.0, rng))
             .cost;
       },
       144, 3058, 1104},
      {"average_eccentricity_classical",
       [&](const NetOptions* o) {
         return (o ? average_eccentricity_classical(g, *o) : average_eccentricity_classical(g))
             .cost;
       },
       63, 2523, 0},
      {"cycle_detection",
       [&](const NetOptions* o) {
         util::Rng rng(3);
         return (o ? cycle_detection(g, 6, rng, *o) : cycle_detection(g, 6, rng)).cost;
       },
       190, 4008, 2760},
      {"exact_cycle_detection",
       [&](const NetOptions* o) {
         util::Rng rng(3);
         return (o ? exact_cycle_detection(g, 4, rng, 0, *o) : exact_cycle_detection(g, 4, rng))
             .cost;
       },
       24, 455, 0},
      {"girth_quantum",
       [&](const NetOptions* o) {
         util::Rng rng(3);
         return (o ? girth_quantum(g, 0.5, rng, *o) : girth_quantum(g, 0.5, rng)).cost;
       },
       145, 2785, 1932},
      {"girth_classical",
       [&](const NetOptions* o) {
         return (o ? girth_classical(g, *o) : girth_classical(g)).cost;
       },
       38, 1425, 0},
  };
  for (const Widened& entry : table) {
    const NetOptions defaults;
    const net::RunResult without = entry.run(nullptr);
    EXPECT_EQ(without, entry.run(&defaults)) << entry.name;
    EXPECT_EQ(without.rounds, entry.rounds) << entry.name;
    EXPECT_EQ(without.messages, entry.messages) << entry.name;
    EXPECT_EQ(without.quantum_words, entry.quantum_words) << entry.name;
  }
}

std::string report_for(const std::string& text) {
  serve::JobSpec spec;
  std::string error;
  EXPECT_TRUE(serve::parse_job_spec(text, &spec, &error)) << error;
  EXPECT_TRUE(serve::validate_job_spec(spec, serve::JobLimits{}, &error)) << error;
  return serve::run_job_report(spec, /*default_deadline_rounds=*/200000);
}

TEST(Registry, QuantumAppsOverFaultyReliableLinksAreThreadIndependent) {
  for (const char* app : {"diameter_q", "distinctness_q", "meeting_q"}) {
    const std::string spec = std::string("id=q\napp=") + app +
                             "\ngraph=random\nnodes=20\nseed=3\ntransport=reliable\n"
                             "drop=0.05\n";
    const std::string serial = report_for(spec + "threads=1\n");
    EXPECT_NE(serial.find("\"success\": true"), std::string::npos) << app;
    EXPECT_EQ(serial.find("\"dropped_words\": 0,"), std::string::npos) << app;
    EXPECT_EQ(serial, report_for(spec + "threads=4\n")) << app;
  }
}

TEST(Registry, GirthWithACrashWindowIsAStructuredError) {
  const std::string body = report_for(
      "id=g\napp=girth_q\ngraph=random\nnodes=16\nseed=2\ncrash=3:5:10\n");
  EXPECT_NE(body.find("\"error_kind\": \"exception\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"success\": false"), std::string::npos) << body;
}

}  // namespace
}  // namespace qcongest::apps
