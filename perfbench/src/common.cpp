#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "host.hpp"

namespace perfbench {

void Result::mismatch(const std::string& what) {
  correct = false;
  // Keep the output bounded when a defect repeats on every job.
  if (notes.size() < 200) notes.push_back("MISMATCH " + what);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"apps.meeting.ms", "ms"},
      {"apps.diameter_q.ms", "ms"},
      {"apps.radius_q.ms", "ms"},
      {"apps.dj.ms", "ms"},
      {"apps.distinctness.ms", "ms"},
      {"apps.diameter_c.ms", "ms"},
      {"net.elect_leader.ms", "ms"},
      {"net.bfs_tree.ms", "ms"},
      {"net.rounds_per_ms", "rounds/ms"},
      {"net.ns_per_word", "ns"},
      {"framework.batches", "count"},
      {"framework.rounds_per_batch", "rounds"},
      {"framework.batch_ms", "ms"},
      {"query.self_ms", "ms"},
      {"reliable.us_per_round", "us"},
      {"reliable.round_stretch", "ratio"},
      {"reliable.retransmissions", "count"},
      {"reliable.useful_ratio", "ratio"},
      {"fault.dropped_words", "words"},
      {"fault.corrupted_words", "words"},
      {"fault.duplicated_words", "words"},
      {"recover.recovery_rounds", "rounds"},
      {"recover.recovery_words", "words"},
      {"recover.amnesia_job_ms", "ms"},
      {"obs.tap_ratio", "ratio"},
      {"obs.report_kb", "KiB"},
      {"engine.thread_speedup", "ratio"},
      {"engine.cpu_per_wall", "ratio"},
      {"serve.parse_us", "us"},
      {"serve.key_us", "us"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.wire_ms", "ms"},
      {"serve.shed_ratio", "ratio"},
      {"serve.coalesced", "count"},
      {"journal.append_us", "us"},
      {"journal.bytes_per_job", "B"},
      {"cache.hit_ratio", "ratio"},
      {"cache.get_us", "us"},
      {"cache.put_us", "us"},
      {"bench.gen_late_ms", "ms"},
      {"bench.trace_overhead", "ratio"},
  };
  return metrics;
}

void set_layer(Result& result, const std::string& name, double value) {
  for (const auto& [known, unit] : per_layer_metrics()) {
    if (known == name) {
      result.set(name, value, unit);
      return;
    }
  }
  throw std::logic_error("set_layer: unknown per-layer metric " + name);
}

SimCost sim_cost(const qcongest::net::RunResult& r) { return SimCost{r.rounds, r.messages}; }

ClosedLoop run_closed_loop(std::size_t n, const JobFn& fn, double seconds, Result& result,
                           const PrepareFn& prepare, bool one_pass) {
  ClosedLoop loop;
  double pass_s = 0.0;
  for (;;) {
    if (loop.passes > 0 && (one_pass || loop.wall_s + pass_s / 2.0 >= seconds)) break;
    SimCost pass_cost;
    const double wall_before = loop.wall_s;
    for (std::size_t i = 0; i < n; ++i) {
      host_speed().maybe_sample();
      if (prepare) prepare(i);
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point start = Clock::now();
      JobOutcome out = fn(i);
      const Clock::time_point end = Clock::now();
      loop.cpu_s += process_cpu_seconds() - cpu0;
      const double ms = ms_between(start, end);
      loop.wall_s += ms / 1000.0;
      ++loop.jobs;
      loop.answers += out.answers;
      loop.correct += out.correct;
      if (out.ok) {
        ++loop.ok;
        loop.job_ms.record_ok(ms);
      } else {
        loop.job_ms.record_missed();
      }
      pass_cost.rounds += out.cost.rounds;
      pass_cost.words += out.cost.words;
      if (loop.passes == 0) {
        loop.job_costs.push_back(out.cost);
      } else if (!(loop.job_costs[i] == out.cost)) {
        result.mismatch("job " + std::to_string(i) + " cost differs between passes");
      }
    }
    if (loop.passes == 0) loop.pass_cost = pass_cost;
    ++loop.passes;
    pass_s = loop.wall_s - wall_before;
  }
  return loop;
}

TracedLoops run_traced_loops(std::size_t n, const JobFn& fn, double seconds, Result& result,
                             Tracer& tracer, const PrepareFn& prepare, bool one_pass) {
  auto add = [](ClosedLoop& into, const ClosedLoop& part) {
    if (into.passes == 0) into.pass_cost = part.pass_cost;
    into.jobs += part.jobs;
    into.ok += part.ok;
    into.passes += part.passes;
    into.wall_s += part.wall_s;
    into.cpu_s += part.cpu_s;
  };
  TracedLoops loops;
  const double quarter = seconds / 4.0;
  add(loops.plain, run_closed_loop(n, fn, quarter, result, prepare, one_pass));
  set_tracer(&tracer);
  add(loops.traced, run_closed_loop(n, fn, quarter, result, prepare, one_pass));
  add(loops.traced, run_closed_loop(n, fn, quarter, result, prepare, one_pass));
  set_tracer(nullptr);
  add(loops.plain, run_closed_loop(n, fn, quarter, result, prepare, one_pass));
  return loops;
}

void set_traced_loop_layers(const TracedLoops& loops, Result& result) {
  const ClosedLoop& t = loops.traced;
  const ClosedLoop& p = loops.plain;
  result.attempted = t.jobs;
  result.failed = t.jobs - t.ok;
  set_layer(result, "engine.cpu_per_wall", Ratio{t.cpu_s, t.wall_s}.value());
  const Ratio overhead{static_cast<double>(t.jobs) / t.wall_s,
                       static_cast<double>(p.jobs) / p.wall_s};
  set_layer(result, "bench.trace_overhead", overhead.value());
  result.note("bench.trace_overhead = traced/untraced jobs_per_s = " + overhead.describe());
}

void closed_loop_metrics(const ClosedLoop& loop, double tail_pct, Result& result) {
  const Tail tail = loop.job_ms.tail(tail_pct);
  const double p50 = loop.job_ms.p50();
  const auto jobs = static_cast<double>(loop.jobs);
  result.attempted += loop.jobs;
  result.failed += loop.jobs - loop.ok;
  result.set("job_ms.p50", p50, "ms");
  result.set("job_ms.tail", tail.value, "ms");
  result.set("jobs_per_s", jobs / loop.wall_s, "1/s");
  result.set("cpu_ms_per_job", loop.cpu_s * 1000.0 / jobs, "ms");
  result.set("reply_ms.p50.low", p50, "ms");
  result.set("reply_ms.tail.low", tail.value, "ms");
  result.set("reply_ms.p50.high", p50, "ms");
  result.set("reply_ms.tail.high", tail.value, "ms");
  const Ratio ok{static_cast<double>(loop.ok), jobs};
  const Ratio correct{static_cast<double>(loop.correct), static_cast<double>(loop.answers)};
  result.set("ok_ratio", ok.value(), "ratio");
  result.set("correct_ratio", correct.value(), "ratio");
  result.set("sim_rounds", static_cast<double>(loop.pass_cost.rounds), "rounds");
  result.set("sim_words", static_cast<double>(loop.pass_cost.words), "words");
  char line[256];
  std::snprintf(line, sizeof line,
                "closed loop, 1 caller: %zu jobs in %zu passes of %zu, %.2f s timed; "
                "job_ms.tail = %s; reply_ms.* = job_ms.* (no offered rate)",
                loop.jobs, loop.passes, loop.job_costs.size(), loop.wall_s,
                tail.describe().c_str());
  result.note(line);
  result.note("ok_ratio = " + ok.describe() + " jobs; correct_ratio = " +
              correct.describe() + " answers");
}

double median_setup_seconds(int reps, const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    host_speed().sample();
    const Clock::time_point t0 = Clock::now();
    setup();
    secs.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return median(secs);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// The unsigned integer after `"key": ` at or after `from`, or npos.
std::size_t read_uint(std::string_view body, std::string_view key, std::size_t from,
                      std::size_t* value) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const std::size_t at = body.find(needle, from);
  if (at == std::string_view::npos) return at;
  std::size_t i = at + needle.size();
  std::size_t v = 0;
  while (i < body.size() && body[i] >= '0' && body[i] <= '9') v = v * 10 + (body[i++] - '0');
  *value = v;
  return at;
}

}  // namespace

ReportFacts read_report(std::string_view body) {
  ReportFacts facts;
  facts.has_error = body.find("\"error_kind\"") != std::string_view::npos;
  facts.success = body.find("\"success\": true") != std::string_view::npos;
  const std::size_t result_at = body.find("\"result\": {");
  if (result_at == std::string_view::npos) return facts;
  qcongest::net::RunResult& r = facts.cost;
  const std::pair<const char*, std::size_t*> fields[] = {
      {"rounds", &r.rounds},
      {"messages", &r.messages},
      {"dropped_words", &r.dropped_words},
      {"corrupted_words", &r.corrupted_words},
      {"duplicated_words", &r.duplicated_words},
      {"retransmissions", &r.retransmissions},
      {"recovery_words", &r.recovery_words},
      {"recovery_rounds", &r.recovery_rounds},
  };
  facts.parsed = true;
  for (const auto& [key, slot] : fields) {
    if (read_uint(body, key, result_at, slot) == std::string_view::npos) facts.parsed = false;
  }
  return facts;
}

void make_fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
