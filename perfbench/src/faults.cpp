// Workload "faults-reliable": the job run without the service around it.
// Closed loop, one caller, serve::run_job_report on registry apps over the
// reliable transport with drop, corrupt and duplicate faults; every fourth
// job also crashes a node with amnesia and runs with recover=1. Sizes n in
// 96..128. Specs carry threads=2 (qload's default; the reliable transport
// runs serially today). net/reliable, the fault lottery, recovery and the
// obs taps do the work here; framework and query do none. The registry's
// diameter/radius apps are left out: at these sizes they cost 10-30x the
// other apps over the reliable transport and would be the whole tail.

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "faults.hpp"
#include "src/apps/registry.hpp"
#include "src/serve/job.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace qcongest;

constexpr std::size_t kJobs = 70;
constexpr std::size_t kWarmupJobs = 35;
constexpr std::size_t kDeadlineRounds = 200000;
constexpr std::size_t kIdentitySample = 7;  // specs re-run at threads=1
constexpr std::size_t kTapSample = 14;      // specs timed bare vs tapped
constexpr double kTailPct = 95.0;

}  // namespace

std::string faulty_spec(std::uint64_t workload_seed, std::size_t index, bool allow_crash) {
  static const char* const kApps[] = {"bfs", "downcast", "convergecast", "multibfs", "dj",
                                      "meeting", "leader"};
  static const std::size_t kNodes[] = {96, 112, 128, 104, 120};
  static const char* const kDrop[] = {"0.02", "0.05", "0.1"};
  const std::size_t n = kNodes[index % std::size(kNodes)];
  const std::uint64_t seed = mix_seed(workload_seed, index) % 1000000007ULL;
  std::string spec = "id=j" + std::to_string(index) + "\napp=" +
                     kApps[index % std::size(kApps)] + "\ngraph=random\nnodes=" +
                     std::to_string(n) + "\nseed=" + std::to_string(seed) +
                     "\nthreads=2\ntransport=reliable\ndrop=" + kDrop[index % std::size(kDrop)] +
                     "\ncorrupt=0.01\nduplicate=0.01\n";
  if (allow_crash && index % 4 == 3) {
    spec += "crash=" + std::to_string(n / 2) + ":30:60:amnesia\nrecover=1\n";
  }
  return spec;
}

serve::JobSpec parse_spec_or_throw(const std::string& text) {
  serve::JobSpec spec;
  std::string error;
  if (!serve::parse_job_spec(text, &spec, &error) ||
      !serve::validate_job_spec(spec, serve::JobLimits{}, &error)) {
    throw std::runtime_error("benchmark spec rejected: " + error);
  }
  return spec;
}

namespace {

struct Job {
  serve::JobSpec spec;
  bool amnesia = false;
  std::string body;  // first report, for the byte-identity checks
  ReportFacts facts;
};

class FaultsReliable {
 public:
  FaultsReliable(std::uint64_t seed, Result& result) : seed_(seed), result_(result) {}

  void setup() {
    jobs_.clear();
    for (std::size_t i = 0; i < kJobs; ++i) {
      Job job;
      job.spec = parse_spec_or_throw(faulty_spec(seed_, i, true));
      job.amnesia = !job.spec.crashes.empty();
      jobs_.push_back(std::move(job));
    }
    for (std::size_t i = 0; i < kWarmupJobs; ++i) {
      (void)serve::run_job_report(parse_spec_or_throw(faulty_spec(kWarmupSeed, i, true)),
                                  kDeadlineRounds);
    }
  }

  JobOutcome run(std::size_t index) {
    Job& job = jobs_[index];
    const auto id = static_cast<std::uint32_t>(index);
    std::string body;
    {
      ScopedSpan span(job.amnesia ? "job.amnesia" : "job", id);
      body = serve::run_job_report(job.spec, kDeadlineRounds);
    }
    const ReportFacts facts = read_report(body);
    if (job.body.empty()) {
      job.body = body;
      job.facts = facts;
    } else if (body != job.body) {
      result_.mismatch("faults job " + std::to_string(index) + ": report bytes differ on re-run");
    }
    if (!facts.parsed || !facts.success || facts.has_error) {
      result_.mismatch("faults job " + std::to_string(index) + " (" + job.spec.app +
                       "): report success is not true");
    }
    JobOutcome out;
    out.ok = facts.parsed && !facts.has_error;
    out.answers = 1;
    out.correct = facts.success ? 1 : 0;
    out.cost = sim_cost(facts.cost);
    return out;
  }

  /// Re-run a fixed sample at threads=1: the body must not change.
  void check_thread_identity() {
    for (std::size_t i = 0; i < std::min(kIdentitySample, jobs_.size()); ++i) {
      serve::JobSpec serial = jobs_[i].spec;
      serial.threads = 1;
      if (serve::run_job_report(serial, kDeadlineRounds) != jobs_[i].body) {
        result_.mismatch("faults job " + std::to_string(i) + ": threads=1 body differs");
      }
    }
  }

  /// The per-layer figures that need extra runs: transport stretch against
  /// a fault-free direct run, and the tap cost against the bare runner.
  void layer_probes(Result& result) {
    std::size_t rel_rounds = 0, rel_words = 0, dir_rounds = 0, dir_words = 0;
    net::RunResult pass;
    double report_kb = 0.0;
    for (const Job& job : jobs_) {
      const net::RunResult& c = job.facts.cost;
      rel_rounds += c.rounds;
      rel_words += c.messages;
      pass.retransmissions += c.retransmissions;
      pass.dropped_words += c.dropped_words;
      pass.corrupted_words += c.corrupted_words;
      pass.duplicated_words += c.duplicated_words;
      pass.recovery_rounds += c.recovery_rounds;
      pass.recovery_words += c.recovery_words;
      report_kb += static_cast<double>(job.body.size()) / 1024.0;

      serve::JobSpec direct = job.spec;
      direct.transport = net::Transport::kDirect;
      direct.drop = direct.corrupt = direct.duplicate = 0.0;
      direct.crashes.clear();
      direct.recover = false;
      const ReportFacts d = read_report(serve::run_job_report(direct, kDeadlineRounds));
      dir_rounds += d.cost.rounds;
      dir_words += d.cost.messages;
    }
    set_layer(result, "reliable.round_stretch",
              Ratio{static_cast<double>(rel_rounds), static_cast<double>(dir_rounds)}.value());
    const Ratio useful{static_cast<double>(dir_words), static_cast<double>(rel_words)};
    set_layer(result, "reliable.useful_ratio", useful.value());
    result.note("reliable.useful_ratio = direct words / reliable words = " + useful.describe());
    set_layer(result, "reliable.retransmissions", static_cast<double>(pass.retransmissions));
    set_layer(result, "fault.dropped_words", static_cast<double>(pass.dropped_words));
    set_layer(result, "fault.corrupted_words", static_cast<double>(pass.corrupted_words));
    set_layer(result, "fault.duplicated_words", static_cast<double>(pass.duplicated_words));
    set_layer(result, "recover.recovery_rounds", static_cast<double>(pass.recovery_rounds));
    set_layer(result, "recover.recovery_words", static_cast<double>(pass.recovery_words));
    set_layer(result, "obs.report_kb", report_kb / static_cast<double>(jobs_.size()));
    physical_rounds_ = rel_rounds;

    // Tap cost: the same spec through run_job_report (trace, RoundProfiler,
    // Watchdog, report rendering) and through the bare registry runner.
    double tapped_ms = 0.0, bare_ms = 0.0;
    for (std::size_t i = 0; i < std::min(kTapSample, jobs_.size()); ++i) {
      const serve::JobSpec& spec = jobs_[i].spec;
      const net::Graph graph = apps::make_registry_graph(spec.graph, spec.nodes, spec.seed);
      apps::NetOptions options;
      options.seed = spec.seed;
      options.threads = spec.threads;
      options.transport = spec.transport;
      options.fault_plan = serve::job_fault_plan(spec);
      if (spec.recover) {
        options.recovery.enabled = true;
        options.recovery.checkpoint.every_rounds = 3;
      }
      const apps::AppRunner* runner = apps::find_app(spec.app);
      // Alternate which variant runs first, so warm caches favour neither.
      for (int order = 0; order < 2; ++order) {
        const bool tapped = (i + static_cast<std::size_t>(order)) % 2 == 0;
        const Clock::time_point t0 = Clock::now();
        if (tapped) {
          (void)serve::run_job_report(spec, kDeadlineRounds);
        } else {
          (void)(*runner)(graph, options);
        }
        const double ms = ms_between(t0, Clock::now());
        (tapped ? tapped_ms : bare_ms) += ms;
      }
    }
    const Ratio tap{tapped_ms, bare_ms};
    set_layer(result, "obs.tap_ratio", tap.value());
    result.note("obs.tap_ratio = run_job_report ms / bare runner ms = " + tap.describe());
  }

  std::size_t size() const { return jobs_.size(); }
  std::size_t physical_rounds() const { return physical_rounds_; }

 private:
  std::uint64_t seed_;
  Result& result_;
  std::vector<Job> jobs_;
  std::size_t physical_rounds_ = 0;
};

}  // namespace

Result run_faults_reliable(const Args& args) {
  Result result;
  FaultsReliable w(args.seed, result);
  const double setup_s = median_setup_seconds(kSetupReps, [&] { w.setup(); });
  auto job = [&](std::size_t i) { return w.run(i); };

  if (!args.trace) {
    ClosedLoop loop = run_closed_loop(w.size(), job, args.seconds, result);
    closed_loop_metrics(loop, kTailPct, result);
    result.set("setup_s", setup_s, "s");
    w.check_thread_identity();
    return result;
  }

  Tracer tracer;
  const TracedLoops loops = run_traced_loops(w.size(), job, args.seconds, result, tracer);
  const ClosedLoop& traced = loops.traced;
  set_traced_loop_layers(loops, result);
  if (!args.span_path.empty()) tracer.write_jsonl(args.span_path);
  w.check_thread_identity();
  w.layer_probes(result);

  const auto totals = tracer.totals();
  double job_ms = 0.0;
  for (const char* name : {"job", "job.amnesia"}) {
    if (auto it = totals.find(name); it != totals.end()) job_ms += it->second.total_ms;
  }
  const double physical = static_cast<double>(w.physical_rounds()) *
                          static_cast<double>(traced.passes);
  set_layer(result, "reliable.us_per_round", Ratio{job_ms * 1000.0, physical}.value());
  if (auto it = totals.find("job.amnesia"); it != totals.end() && it->second.count > 0) {
    set_layer(result, "recover.amnesia_job_ms",
              it->second.total_ms / static_cast<double>(it->second.count));
  }
  return result;
}

}  // namespace perfbench
