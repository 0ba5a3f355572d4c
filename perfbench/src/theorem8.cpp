// Workload "theorem8": the paper's own computation. Closed loop, one caller,
// engine threads=1, direct transport, no taps. Each job is one random graph
// (n cycling 256..384) on which the four framework applications run: Lemma 10
// meeting scheduling, Lemma 21 diameter and radius, Theorem 17
// Deutsch-Jozsa, Corollary 14 element distinctness. Every fourth job also
// runs the classical baselines (the crossover row). One job bundles the
// applications so each job costs tens of milliseconds: a single DJ query is
// under a millisecond, too short to time steadily. The quantum algorithms'
// batch counts are random, so the run makes one pass over many distinct
// jobs (about kJobsPerSecond per --seconds) rather than repeating a short
// list: the total work then varies little from seed to seed. Each job's
// graph, inputs and exact references are generated just before it runs,
// outside its timing.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "common.hpp"
#include "src/apps/deutsch_jozsa.hpp"
#include "src/apps/eccentricity.hpp"
#include "src/apps/element_distinctness.hpp"
#include "src/apps/meeting_scheduling.hpp"
#include "src/framework/distributed_oracle.hpp"
#include "src/net/bfs.hpp"
#include "src/net/generators.hpp"
#include "src/query/parallel_minfind.hpp"
#include "src/util/combinatorics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace qcongest;

constexpr double kJobsPerSecond = 8.0;
constexpr std::size_t kSizes[] = {256, 288, 320, 352, 384};
constexpr std::size_t kMeetingSlots = 64;
constexpr std::size_t kDjBits = 64;
constexpr std::size_t kClassicalEvery = 4;
constexpr std::size_t kWarmupJobs = 4;
constexpr std::size_t kRepeatSample = 3;  // jobs re-run to check determinism
constexpr double kTailPct = 90.0;

struct Job {
  std::uint64_t seed = 0;
  bool classical = false;
  net::Graph graph{2};
  apps::Calendars calendars;
  std::vector<std::vector<query::Value>> dj_data;
  query::DjVerdict dj_truth = query::DjVerdict::kConstant;
  std::vector<query::Value> values;
  std::int64_t value_range = 0;
  bool has_duplicate = false;
  // Exact references.
  std::size_t diameter = 0;
  std::size_t radius = 0;
  apps::MeetingSchedulingResult meeting_ref;
};

Job make_job(std::uint64_t workload_seed, std::size_t index) {
  Job job;
  job.seed = mix_seed(workload_seed, index);
  job.classical = index % kClassicalEvery == 0;
  const std::size_t n = kSizes[index % std::size(kSizes)];
  util::Rng rng(job.seed);
  job.graph = net::random_connected_graph(n, n / 2, rng);

  job.calendars.assign(n, std::vector<query::Value>(kMeetingSlots, 0));
  for (auto& row : job.calendars) {
    for (auto& slot : row) slot = rng.uniform() < 0.3 ? 1 : 0;
  }

  // Deutsch-Jozsa: plant x = XOR_v x^(v), constant or balanced, and spread
  // it over the nodes as random shares.
  std::vector<query::Value> x(kDjBits, 0);
  job.dj_truth = rng.uniform() < 0.5 ? query::DjVerdict::kConstant : query::DjVerdict::kBalanced;
  if (job.dj_truth == query::DjVerdict::kBalanced) {
    std::vector<std::size_t> order(kDjBits);
    for (std::size_t i = 0; i < kDjBits; ++i) order[i] = i;
    for (std::size_t i = kDjBits - 1; i > 0; --i) std::swap(order[i], order[rng.index(i + 1)]);
    for (std::size_t i = 0; i < kDjBits / 2; ++i) x[order[i]] = 1;
  } else if (rng.uniform() < 0.5) {
    std::fill(x.begin(), x.end(), 1);
  }
  job.dj_data.assign(n, std::vector<query::Value>(kDjBits, 0));
  for (std::size_t v = 1; v < n; ++v) {
    for (std::size_t i = 0; i < kDjBits; ++i) {
      job.dj_data[v][i] = rng.uniform() < 0.5 ? 1 : 0;
      x[i] ^= job.dj_data[v][i];
    }
  }
  job.dj_data[0] = x;

  // Element distinctness between nodes: distinct values in [1, 4n], with a
  // planted collision on half of the jobs.
  job.value_range = static_cast<std::int64_t>(4 * n);
  std::vector<query::Value> pool(4 * n);
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<query::Value>(i + 1);
  for (std::size_t i = 0; i < n; ++i) std::swap(pool[i], pool[i + rng.index(pool.size() - i)]);
  job.values.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(n));
  job.has_duplicate = rng.uniform() < 0.5;
  if (job.has_duplicate) {
    const std::size_t a = rng.index(n);
    std::size_t b = rng.index(n - 1);
    if (b >= a) ++b;
    job.values[b] = job.values[a];
  }

  job.diameter = job.graph.diameter();
  job.radius = job.graph.radius();
  job.meeting_ref = apps::meeting_scheduling_reference(job.calendars);
  return job;
}

/// Query-layer wrapper: times each charged batch of the Theorem 8 oracle as
/// a "framework.batch" span and forwards it unchanged.
class TimedOracle final : public query::BatchOracle {
 public:
  TimedOracle(query::BatchOracle& inner, std::uint32_t job) : inner_(inner), job_(job) {}
  std::size_t domain_size() const override { return inner_.domain_size(); }
  std::size_t parallelism() const override { return inner_.parallelism(); }
  query::Value peek(std::size_t index) const override { return inner_.peek(index); }

 protected:
  std::vector<query::Value> fetch(std::span<const std::size_t> indices) override {
    ScopedSpan span("framework.batch", job_);
    return inner_.query(indices);
  }

 private:
  query::BatchOracle& inner_;
  std::uint32_t job_;
};

/// Engine-level tallies of the traced composition (rounds and words inside
/// the spans that run the engine).
struct EngineTally {
  std::size_t rounds = 0;
  std::size_t words = 0;
  std::size_t batches = 0;
  std::size_t batch_rounds = 0;
};

/// Lemma 10 composed from its layers, mirroring
/// apps::meeting_scheduling_quantum step for step so the result is identical.
apps::MeetingSchedulingResult composed_meeting(const Job& job, util::Rng& rng,
                                               std::uint32_t id, EngineTally& tally) {
  const net::Graph& graph = job.graph;
  const std::size_t n = graph.num_nodes();
  apps::NetOptions options;
  net::Engine engine(graph, options.bandwidth, rng.engine()());
  options.configure(engine);
  apps::MeetingSchedulingResult result;

  net::LeaderElectionResult election;
  {
    ScopedSpan span("net.elect_leader", id);
    election = net::elect_leader(engine);
  }
  result.cost += election.cost;
  net::BfsTree tree;
  {
    ScopedSpan span("net.bfs_tree", id);
    tree = net::build_bfs_tree(engine, election.leader);
  }
  result.cost += tree.cost;

  framework::OracleConfig config;
  config.domain_size = kMeetingSlots;
  config.parallelism = std::max<std::size_t>(1, tree.height);
  config.value_bits = std::max<unsigned>(1, util::ceil_log2(n + 1));
  config.combine = [](std::int64_t a, std::int64_t b) { return a + b; };
  config.identity = 0;
  framework::DistributedOracle oracle(engine, tree, config, job.calendars);
  TimedOracle timed(oracle, id);
  {
    ScopedSpan span("query.maxfind", id);
    result.best_slot = query::maxfind(timed, rng);
  }
  result.availability = oracle.peek(result.best_slot);
  result.batches = oracle.ledger().batches;
  result.cost += oracle.total_cost();

  tally.rounds += result.cost.rounds;
  tally.words += result.cost.messages;
  tally.batches += result.batches;
  tally.batch_rounds += oracle.total_cost().rounds;
  return result;
}

struct AppTally {
  std::size_t answers = 0;
  std::size_t correct = 0;
};

class Theorem8 {
 public:
  Theorem8(std::uint64_t seed, Result& result) : seed_(seed), result_(result) {}

  /// The untimed warm-up: a few jobs of the fixed warm-up seed.
  void setup() {
    for (std::size_t i = 0; i < kWarmupJobs; ++i) {
      job_ = make_job(kWarmupSeed, i);
      job_index_ = SIZE_MAX;
      run(i);
    }
  }

  /// Generate job `index` (untimed).
  void prepare(std::size_t index) {
    if (job_index_ == index) return;
    job_ = make_job(seed_, index);
    job_index_ = index;
  }

  JobOutcome run(std::size_t index) {
    const Job& job = job_;
    const auto id = static_cast<std::uint32_t>(index);
    ScopedSpan job_span("job", id);
    JobOutcome out;
    util::Rng rng(job.seed ^ 0x5bd1e995ULL);
    auto grade = [&](const char* app, bool correct) {
      ++out.answers;
      AppTally& t = tally_[app];
      ++t.answers;
      if (correct) {
        ++out.correct;
        ++t.correct;
      }
    };
    auto add = [&](const net::RunResult& cost) {
      out.cost.rounds += cost.rounds;
      out.cost.words += cost.messages;
      out.ok = out.ok && cost.completed;
    };

    // Lemma 10 (bounded error): the chosen slot's availability must be the
    // true column sum; it is correct when that sum is the maximum.
    apps::MeetingSchedulingResult meeting;
    if (tracer() != nullptr) {
      ScopedSpan span("apps.meeting", id);
      meeting = composed_meeting(job, rng, id, engine_);
    } else {
      meeting = apps::meeting_scheduling_quantum(job.graph, job.calendars, rng);
    }
    if (job_index_ != SIZE_MAX) {
      if (seen_.size() <= index) seen_.resize(index + 1);
      std::optional<apps::MeetingSchedulingResult>& seen = seen_[index];
      if (!seen) {
        seen = meeting;
      } else if (!(seen->cost == meeting.cost) || seen->best_slot != meeting.best_slot ||
                 seen->batches != meeting.batches) {
        result_.mismatch("meeting job " + std::to_string(index) +
                         ": composed Lemma 10 differs from meeting_scheduling_quantum");
      }
    }
    query::Value column = 0;
    for (const auto& row : job.calendars) column += row[meeting.best_slot];
    if (column != meeting.availability || meeting.availability > job.meeting_ref.availability) {
      result_.mismatch("meeting job " + std::to_string(index) + ": availability not genuine");
    }
    grade("meeting", meeting.availability == job.meeting_ref.availability);
    add(meeting.cost);

    // Lemma 21 (bounded error, one-sided): never above the diameter, never
    // below the radius.
    apps::EccentricityResult diameter;
    {
      ScopedSpan span("apps.diameter_q", id);
      diameter = apps::diameter_quantum(job.graph, rng);
    }
    if (diameter.value > job.diameter) result_.mismatch("diameter above the true diameter");
    grade("diameter_q", diameter.value == job.diameter);
    add(diameter.cost);
    apps::EccentricityResult radius;
    {
      ScopedSpan span("apps.radius_q", id);
      radius = apps::radius_quantum(job.graph, rng);
    }
    if (radius.value < job.radius) result_.mismatch("radius below the true radius");
    grade("radius_q", radius.value == job.radius);
    add(radius.cost);

    // Theorem 17 (exact).
    apps::DjResult dj;
    {
      ScopedSpan span("apps.dj", id);
      dj = apps::deutsch_jozsa_quantum(job.graph, job.dj_data);
    }
    if (dj.verdict != job.dj_truth) result_.mismatch("dj verdict wrong on job " + std::to_string(index));
    grade("dj", dj.verdict == job.dj_truth);
    add(dj.cost);

    // Corollary 14 (bounded error, one-sided): a reported collision is real.
    apps::DistinctnessResult distinct;
    {
      ScopedSpan span("apps.distinctness", id);
      distinct = apps::element_distinctness_nodes_quantum(job.graph, job.values,
                                                          job.value_range, rng);
    }
    if (distinct.collision) {
      const auto& c = *distinct.collision;
      if (c.i == c.j || job.values.at(c.i) != job.values.at(c.j)) {
        result_.mismatch("distinctness reported a false collision");
      }
    }
    grade("distinctness", distinct.collision.has_value() == job.has_duplicate);
    add(distinct.cost);

    if (job.classical) {
      // Classical baselines: always exact.
      ScopedSpan span("apps.classical", id);
      auto mc = apps::meeting_scheduling_classical(job.graph, job.calendars);
      if (mc.availability != job.meeting_ref.availability) result_.mismatch("classical meeting wrong");
      grade("classical", mc.availability == job.meeting_ref.availability);
      add(mc.cost);
      auto dc = apps::deutsch_jozsa_classical_exact(job.graph, job.dj_data);
      if (dc.verdict != job.dj_truth) result_.mismatch("classical dj wrong");
      grade("classical", dc.verdict == job.dj_truth);
      add(dc.cost);
      auto ec = apps::element_distinctness_nodes_classical(job.graph, job.values, job.value_range);
      if (ec.collision.has_value() != job.has_duplicate) result_.mismatch("classical distinctness wrong");
      grade("classical", ec.collision.has_value() == job.has_duplicate);
      add(ec.cost);
    }
    return out;
  }

  /// Bounded-error apps must succeed with probability >= 2/3.
  void check_success_rates() {
    for (const auto& [app, t] : tally_) {
      const Ratio r{static_cast<double>(t.correct), static_cast<double>(t.answers)};
      result_.note("success " + app + " = " + r.describe());
      if (r.value() < 2.0 / 3.0) result_.mismatch(app + " success below 2/3");
    }
  }

  const EngineTally& engine_tally() const { return engine_; }
  void reset_engine_tally() { engine_ = EngineTally{}; }

 private:
  std::uint64_t seed_;
  Result& result_;
  Job job_;
  std::size_t job_index_ = SIZE_MAX;  // SIZE_MAX: a warm-up job
  // Lemma 10 result of the first run of each job; the traced composition
  // and later runs must reproduce it.
  std::vector<std::optional<apps::MeetingSchedulingResult>> seen_;
  std::map<std::string, AppTally> tally_;
  EngineTally engine_;
};

/// Re-run the first jobs after the timed pass: each must cost exactly what
/// it cost inside the pass.
void check_repeat(Theorem8& w, const ClosedLoop& loop, Result& result) {
  for (std::size_t i = 0; i < std::min(kRepeatSample, loop.job_costs.size()); ++i) {
    w.prepare(i);
    if (!(w.run(i).cost == loop.job_costs[i])) {
      result.mismatch("theorem8 job " + std::to_string(i) + " cost differs on re-run");
    }
  }
}

}  // namespace

Result run_theorem8(const Args& args) {
  Result result;
  Theorem8 w(args.seed, result);
  const double setup_s = median_setup_seconds(kSetupReps, [&] { w.setup(); });
  auto job = [&](std::size_t i) { return w.run(i); };
  auto prepare = [&](std::size_t i) { w.prepare(i); };
  auto jobs_for = [](double seconds) {
    return static_cast<std::size_t>(std::max(1.0, std::round(kJobsPerSecond * seconds)));
  };

  if (!args.trace) {
    ClosedLoop loop = run_closed_loop(jobs_for(args.seconds), job, args.seconds, result, prepare,
                                      /*one_pass=*/true);
    check_repeat(w, loop, result);
    closed_loop_metrics(loop, kTailPct, result);
    result.set("setup_s", setup_s, "s");
    w.check_success_rates();
    return result;
  }

  // Traced invocation: the same jobs untraced and traced, ABBA.
  const std::size_t n = jobs_for(args.seconds / 4);
  Tracer tracer;
  w.reset_engine_tally();
  const TracedLoops loops = run_traced_loops(n, job, args.seconds, result, tracer, prepare, true);
  const ClosedLoop& traced = loops.traced;
  check_repeat(w, traced, result);
  w.check_success_rates();
  set_traced_loop_layers(loops, result);
  if (!args.span_path.empty()) tracer.write_jsonl(args.span_path);

  const auto totals = tracer.totals();
  auto mean_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms / static_cast<double>(it->second.count);
  };
  auto total_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  set_layer(result, "apps.meeting.ms", mean_ms("apps.meeting"));
  set_layer(result, "apps.diameter_q.ms", mean_ms("apps.diameter_q"));
  set_layer(result, "apps.radius_q.ms", mean_ms("apps.radius_q"));
  set_layer(result, "apps.dj.ms", mean_ms("apps.dj"));
  set_layer(result, "apps.distinctness.ms", mean_ms("apps.distinctness"));
  set_layer(result, "net.elect_leader.ms", mean_ms("net.elect_leader"));
  set_layer(result, "net.bfs_tree.ms", mean_ms("net.bfs_tree"));
  const EngineTally& e = w.engine_tally();
  const double engine_ms =
      total_ms("net.elect_leader") + total_ms("net.bfs_tree") + total_ms("framework.batch");
  set_layer(result, "net.rounds_per_ms", Ratio{static_cast<double>(e.rounds), engine_ms}.value());
  set_layer(result, "net.ns_per_word",
            Ratio{engine_ms * 1e6, static_cast<double>(e.words)}.value());
  const double passes = static_cast<double>(traced.passes);
  set_layer(result, "framework.batches", static_cast<double>(e.batches) / passes);
  set_layer(result, "framework.rounds_per_batch",
            Ratio{static_cast<double>(e.batch_rounds), static_cast<double>(e.batches)}.value());
  set_layer(result, "framework.batch_ms", mean_ms("framework.batch"));
  auto q = totals.find("query.maxfind");
  if (q != totals.end() && q->second.count > 0) {
    set_layer(result, "query.self_ms", q->second.self_ms / static_cast<double>(q->second.count));
  }
  result.note("framework.batches = Lemma 10 batches over the " + std::to_string(n) +
              " traced jobs (exact)");
  return result;
}

}  // namespace perfbench
