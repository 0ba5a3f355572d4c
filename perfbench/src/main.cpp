// qbench: runs one benchmark workload and prints its metrics.
//
//   qbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//          [--spans PATH]
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end metrics, with --trace 1 the per-layer
// metrics. Exit code 0 only when every answer and byte comparison checked.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "host.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload theorem8|faults-reliable|apsp-sharded|"
               "service-mix --seed N --seconds S --trace 0|1 [--work-dir DIR] [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 3600.0) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.span_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.work_dir.empty()) args.work_dir = ".qbench-work";
  return args;
}

/// Scale the time metrics of an untraced run by the host-speed factor (see
/// host.hpp) and note the raw values.
void adjust_for_host(Result& result) {
  const perfbench::HostSpeed& host = perfbench::host_speed();
  const double f = host.factor();
  std::string raw;
  for (auto& [name, metric] : result.metrics) {
    const bool time = metric.unit == "ms" || metric.unit == "s";
    if (!time && metric.unit != "1/s") continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%s=%.6g", raw.empty() ? "" : " ", name.c_str(), metric.value);
    raw += buf;
    metric.value = time ? metric.value * f : metric.value / f;
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "host reference kernel: median %.4f ms over %zu samples, nominal %.1f ms; "
                "time metrics scaled by %.4f",
                host.median_ms(), host.samples(), perfbench::HostSpeed::kNominalMs, f);
  result.note(line);
  result.note("unscaled: " + raw);
}

void print_result(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              result.correct ? "true" : "false", result.attempted, result.failed);
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : perfbench::kMissed;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Result result;
  try {
    if (args.workload == "theorem8") {
      result = perfbench::run_theorem8(args);
    } else if (args.workload == "faults-reliable") {
      result = perfbench::run_faults_reliable(args);
    } else if (args.workload == "apsp-sharded") {
      result = perfbench::run_apsp_sharded(args);
    } else if (args.workload == "service-mix") {
      result = perfbench::run_service_mix(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  if (args.trace) {
    // Every per-layer metric is printed; those this workload never reached
    // read 0 and are listed.
    std::string unused;
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      if (result.metrics.count(name) == 0) {
        result.set(name, 0.0, unit);
        unused += (unused.empty() ? "" : " ") + name;
      }
    }
    if (!unused.empty()) result.note("layers not exercised by " + args.workload + ": " + unused);
  } else {
    result.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
    adjust_for_host(result);
  }
  for (const std::string& line : result.notes) std::printf("# %s\n", line.c_str());
  print_result(result);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
