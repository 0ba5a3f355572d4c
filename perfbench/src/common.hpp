#pragma once

// Shared harness of the benchmark's workloads: arguments, the result every
// workload fills, the closed-loop driver, set-up timing, and the helpers
// that read a job report.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/engine.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for journals, caches and span dumps; inside the
  /// checkout, removed again by the harness.
  std::string work_dir;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string span_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the JSON result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a wrong answer or a byte mismatch; the run still reports its
  /// metrics but exits nonzero.
  void mismatch(const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; one a workload does not exercise reads 0 (the
/// workload makes no call into that layer).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Set `name` on a traced result; the name must be a per-layer metric.
void set_layer(Result& result, const std::string& name, double value);

/// Simulated cost of one job: CONGEST rounds and words (messages).
struct SimCost {
  std::size_t rounds = 0;
  std::size_t words = 0;
  friend bool operator==(const SimCost&, const SimCost&) = default;
};

SimCost sim_cost(const qcongest::net::RunResult& r);

/// One executed job as the closed-loop driver sees it.
struct JobOutcome {
  bool ok = true;             // completed without an error report
  std::size_t answers = 0;    // answers graded
  std::size_t correct = 0;    // answers equal to the exact reference
  SimCost cost;
};

using JobFn = std::function<JobOutcome(std::size_t job)>;

/// Result of the timed closed loop: whole passes over a fixed job list.
struct ClosedLoop {
  LatencyBook job_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t jobs = 0;
  std::size_t passes = 0;
  std::size_t ok = 0;
  std::size_t answers = 0;
  std::size_t correct = 0;
  /// Sum over one pass of the job list (identical on every pass).
  SimCost pass_cost;
  /// Per-job costs of the first pass, compared against later passes.
  std::vector<SimCost> job_costs;
};

/// Untimed per-job preparation (input generation), run before each job.
using PrepareFn = std::function<void(std::size_t job)>;

/// Run whole passes of jobs [0, n) with one caller until about `seconds`
/// have elapsed (a pass starts only if half a pass still fits), or exactly
/// one pass when `one_pass`. Job i must cost exactly the same on every
/// pass; a difference is a mismatch. Only the job calls are timed: wall and
/// CPU time add up per job, so `prepare` costs nothing in the metrics.
ClosedLoop run_closed_loop(std::size_t n, const JobFn& fn, double seconds, Result& result,
                           const PrepareFn& prepare = nullptr, bool one_pass = false);

/// The timed part of a traced invocation: untraced, traced, traced,
/// untraced quarters of `seconds` (ABBA, so a drift in host speed cancels
/// out of bench.trace_overhead). `tracer` is installed for the middle two.
struct TracedLoops {
  ClosedLoop plain;   // both untraced quarters
  ClosedLoop traced;  // both traced quarters
};
TracedLoops run_traced_loops(std::size_t n, const JobFn& fn, double seconds, Result& result,
                             Tracer& tracer, const PrepareFn& prepare = nullptr,
                             bool one_pass = false);

/// bench.trace_overhead (traced over untraced jobs_per_s), engine.cpu_per_wall,
/// and the traced run's attempted/failed counts.
void set_traced_loop_layers(const TracedLoops& loops, Result& result);

/// The end-to-end metrics of a closed-loop run. `tail_pct` is the
/// workload's fixed tail percentile (lowered, and said so, if the run has
/// too few samples for it). A closed loop with one caller has no offered
/// rate, so its submit-to-reply time is the job time: reply_ms.* repeat
/// the job_ms figures.
void closed_loop_metrics(const ClosedLoop& loop, double tail_pct, Result& result);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Warm-up jobs are generated from this fixed seed, not from --seed, so
/// every run's set-up does the same work.
inline constexpr std::uint64_t kWarmupSeed = 0x3a3a;

/// Run `setup` `reps` times; returns the median wall seconds. The last
/// repetition's state is the one the timed phase uses.
double median_setup_seconds(int reps, const std::function<void()>& setup);

/// Deterministic 64-bit mix of a seed and a stream index (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Fields read from a job's RunReport JSON.
struct ReportFacts {
  bool parsed = false;
  bool success = false;
  bool has_error = false;
  qcongest::net::RunResult cost;
};
ReportFacts read_report(std::string_view body);

/// Create (and empty) a scratch directory; remove it recursively.
void make_fresh_dir(const std::string& path);
void remove_tree(const std::string& path);

/// Workload entry points.
Result run_theorem8(const Args& args);
Result run_faults_reliable(const Args& args);
Result run_apsp_sharded(const Args& args);
Result run_service_mix(const Args& args);

}  // namespace perfbench
