// qcongest_cli — run one registry app (src/apps/registry) on a generated
// network from the command line, printing its paper reference, whether it
// answered right, and what the run cost.
//
//   qcongest_cli <app> [--graph FAMILY] [--nodes N] [--seed S] [--report PATH]
//
// The run is the qcongestd job `app=<app> graph=FAMILY nodes=N seed=S
// transport=direct`, validated against the service's default limits (a
// bad app, family or size exits 2 before anything runs) and executed by
// serve::run_job_report. The summary is read from that report,
// and --report PATH writes the same document, byte-identical to what
// qcongestd replies for that job (see DESIGN.md §10).
//
// Examples:
//   qcongest_cli diameter_q --graph two-stars --nodes 64
//   qcongest_cli girth_q --graph cycle-trees --nodes 50
//   qcongest_cli dj_q --nodes 16 --report dj_report.json

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "src/apps/registry.hpp"
#include "src/serve/job.hpp"
#include "src/serve/service.hpp"
#include "src/util/parse.hpp"

using namespace qcongest;

namespace {

void usage() {
  std::puts(
      "usage: qcongest_cli <app> [--graph FAMILY] [--nodes N] [--seed S]\n"
      "                    [--report PATH]");
  std::string apps = "apps:";
  for (const std::string& name : apps::app_names()) apps += ' ' + name;
  std::string families = "families:";
  for (const std::string& name : apps::graph_families()) families += ' ' + name;
  std::printf("%s\n%s\n", apps.c_str(), families.c_str());
}

/// Fills *spec from argv; false on anything malformed. *help is set when
/// usage was asked for.
bool parse(int argc, char** argv, serve::JobSpec* spec, std::string* report,
           bool* help) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *help = true;
      return false;
    }
  }
  if (argc < 2) return false;
  spec->id = "cli";
  spec->app = argv[1];
  spec->graph = "random";
  spec->nodes = 32;
  spec->transport = net::Transport::kDirect;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--graph") {
      spec->graph = value;
    } else if (flag == "--nodes") {
      ok = util::parse_size(value, &spec->nodes);
    } else if (flag == "--seed") {
      ok = util::parse_u64(value, &spec->seed);
    } else if (flag == "--report") {
      *report = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

/// The value after `"key": ` at or past `from` in a report body, up to the
/// next ',', '}' or newline ("?" when absent). Quotes are kept off strings.
std::string field(const std::string& body, const std::string& key,
                  std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  std::size_t at = body.find(needle, from);
  if (at == std::string::npos) return "?";
  at += needle.size();
  if (body[at] == '"') return body.substr(at + 1, body.find('"', at + 1) - at - 1);
  return body.substr(at, body.find_first_of(",}\n", at) - at);
}

}  // namespace

int main(int argc, char** argv) {
  serve::JobSpec spec;
  std::string report_path;
  bool help = false;
  if (!parse(argc, argv, &spec, &report_path, &help)) {
    usage();
    return help ? 0 : 2;
  }
  std::string error;
  if (!serve::validate_job_spec(spec, serve::JobLimits{}, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    usage();
    return 2;
  }
  const char* paper = "";
  for (const apps::RegisteredApp& app : apps::app_registry()) {
    if (spec.app == app.name) paper = app.paper;
  }
  try {
    const net::Graph graph = apps::make_registry_graph(spec.graph, spec.nodes, spec.seed);
    std::printf("app: %s (%s)\ngraph: %s n=%zu m=%zu D=%zu seed=%llu\n",
                spec.app.c_str(), paper, spec.graph.c_str(), graph.num_nodes(),
                graph.num_edges(), graph.diameter(),
                static_cast<unsigned long long>(spec.seed));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }

  const std::string body =
      serve::run_job_report(spec, serve::ServiceConfig{}.default_deadline_rounds);
  const std::size_t result = body.find("\"result\": ");
  if (result == std::string::npos) {
    std::fprintf(stderr, "error: %s\n", field(body, "error").c_str());
  } else {
    std::printf("success: %s  rounds: %s  messages: %s  quantum words: %s\n",
                field(body, "success").c_str(), field(body, "rounds", result).c_str(),
                field(body, "messages", result).c_str(),
                field(body, "quantum_words", result).c_str());
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary);
    out << body;
    if (!out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", report_path.c_str());
      return 1;
    }
    std::printf("report: %s\n", report_path.c_str());
  }
  return result == std::string::npos ? 1 : 0;
}
