// Workload "apsp-sharded": the classical all-pairs BFS baseline
// (apps::diameter_classical / radius_classical, the crossover row of
// Lemma 21) on random graphs with n cycling 256..384, engine threads=2,
// direct transport. Closed loop, one caller, many jobs per run. The only
// workload where util::ThreadPool and the admit/commit sharded scheduler do
// the work, and the one with the heaviest message traffic.

#include <cstdio>
#include <map>

#include "common.hpp"
#include "src/apps/eccentricity.hpp"
#include "src/net/bfs.hpp"
#include "src/net/generators.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace qcongest;

constexpr std::size_t kJobs = 40;
constexpr std::size_t kSizes[] = {256, 288, 320, 352, 384};
constexpr std::size_t kThreads = 2;
constexpr std::size_t kWarmupJobs = 5;
constexpr std::size_t kProbeJobs = 10;  // traced-run probes (speedup, elect/bfs)
constexpr double kTailPct = 90.0;  // p95 would rest on ~10 samples of ~200

struct Job {
  bool radius = false;
  net::Graph graph{2};
  std::size_t truth = 0;
};

Job make_job(std::uint64_t seed, std::size_t index) {
  Job job;
  const std::size_t n = kSizes[index % std::size(kSizes)];
  util::Rng rng(mix_seed(seed, index));
  job.graph = net::random_connected_graph(n, n / 2, rng);
  job.radius = index % 2 == 1;
  job.truth = job.radius ? job.graph.radius() : job.graph.diameter();
  return job;
}

class ApspSharded {
 public:
  ApspSharded(std::uint64_t seed, Result& result) : seed_(seed), result_(result) {}

  void setup() {
    jobs_.clear();
    for (std::size_t i = 0; i < kJobs; ++i) jobs_.push_back(make_job(seed_, i));
    for (std::size_t i = 0; i < kWarmupJobs; ++i) {
      const Job warm = make_job(kWarmupSeed, i);
      if (call(warm, kThreads, 0).value != warm.truth) result_.mismatch("apsp warm-up answer wrong");
    }
  }

  apps::EccentricityResult call(const Job& job, std::size_t threads, std::uint32_t id) {
    apps::NetOptions options;
    options.threads = threads;
    ScopedSpan span(job.radius ? "apps.radius_c" : "apps.diameter_c", id);
    return job.radius ? apps::radius_classical(job.graph, options)
                      : apps::diameter_classical(job.graph, options);
  }

  JobOutcome run(std::size_t index) {
    const Job& job = jobs_[index];
    const apps::EccentricityResult r = call(job, kThreads, static_cast<std::uint32_t>(index));
    if (r.value != job.truth) {
      result_.mismatch("apsp job " + std::to_string(index) + ": " +
                       (job.radius ? "radius " : "diameter ") + std::to_string(r.value) +
                       " != " + std::to_string(job.truth));
    }
    JobOutcome out;
    out.ok = r.cost.completed;
    out.answers = 1;
    out.correct = r.value == job.truth ? 1 : 0;
    out.cost = sim_cost(r.cost);
    return out;
  }

  /// Traced-run probes outside the timed loop: the serial/sharded speedup
  /// on identical jobs, and leader election plus BFS tree on the sharded
  /// engine.
  void probes(Result& result) {
    double serial_ms = 0.0, sharded_ms = 0.0;
    for (std::size_t i = 0; i < kProbeJobs; ++i) {
      for (int order = 0; order < 2; ++order) {
        const bool serial = (i + static_cast<std::size_t>(order)) % 2 == 0;
        const Clock::time_point t0 = Clock::now();
        const auto r = call(jobs_[i], serial ? 1 : kThreads, static_cast<std::uint32_t>(i));
        (serial ? serial_ms : sharded_ms) += ms_between(t0, Clock::now());
        if (r.value != jobs_[i].truth) result_.mismatch("apsp probe answer wrong");
      }
    }
    const Ratio speedup{serial_ms, sharded_ms};
    set_layer(result, "engine.thread_speedup", speedup.value());
    result.note("engine.thread_speedup = threads=1 ms / threads=2 ms = " + speedup.describe());

    for (std::size_t i = 0; i < kProbeJobs; ++i) {
      net::Engine engine(jobs_[i].graph, 1, seed_ + i);
      engine.set_threads(kThreads);
      const auto id = static_cast<std::uint32_t>(i);
      net::LeaderElectionResult election;
      {
        ScopedSpan span("net.elect_leader", id);
        election = net::elect_leader(engine);
      }
      ScopedSpan span("net.bfs_tree", id);
      (void)net::build_bfs_tree(engine, election.leader);
    }
  }

  std::size_t size() const { return jobs_.size(); }

 private:
  std::uint64_t seed_;
  Result& result_;
  std::vector<Job> jobs_;
};

}  // namespace

Result run_apsp_sharded(const Args& args) {
  Result result;
  ApspSharded w(args.seed, result);
  const double setup_s = median_setup_seconds(kSetupReps, [&] { w.setup(); });
  auto job = [&](std::size_t i) { return w.run(i); };

  if (!args.trace) {
    ClosedLoop loop = run_closed_loop(w.size(), job, args.seconds, result);
    closed_loop_metrics(loop, kTailPct, result);
    result.set("setup_s", setup_s, "s");
    return result;
  }

  Tracer tracer;
  const TracedLoops loops = run_traced_loops(w.size(), job, args.seconds, result, tracer);
  const ClosedLoop& traced = loops.traced;
  const auto loop_totals = tracer.totals();
  set_tracer(&tracer);
  w.probes(result);
  set_tracer(nullptr);
  set_traced_loop_layers(loops, result);
  if (!args.span_path.empty()) tracer.write_jsonl(args.span_path);

  const auto totals = tracer.totals();
  auto mean_ms = [&](const std::map<std::string, SpanTotals>& t, const char* name) {
    auto it = t.find(name);
    return it == t.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms / static_cast<double>(it->second.count);
  };
  set_layer(result, "apps.diameter_c.ms", mean_ms(loop_totals, "apps.diameter_c"));
  set_layer(result, "net.elect_leader.ms", mean_ms(totals, "net.elect_leader"));
  set_layer(result, "net.bfs_tree.ms", mean_ms(totals, "net.bfs_tree"));
  double app_ms = 0.0;
  for (const char* name : {"apps.diameter_c", "apps.radius_c"}) {
    if (auto it = loop_totals.find(name); it != loop_totals.end()) app_ms += it->second.total_ms;
  }
  const auto passes = static_cast<double>(traced.passes);
  const double rounds = static_cast<double>(traced.pass_cost.rounds) * passes;
  const double words = static_cast<double>(traced.pass_cost.words) * passes;
  set_layer(result, "net.rounds_per_ms", Ratio{rounds, app_ms}.value());
  set_layer(result, "net.ns_per_word", Ratio{app_ms * 1e6, words}.value());
  return result;
}

}  // namespace perfbench
