#pragma once

// Statistics helpers of the benchmark: percentiles and tails, failure-aware
// latency books, ratios that keep their base, process CPU time, and the
// open-loop schedule with its lateness meter.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points (may be negative).
double ms_between(Clock::time_point from, Clock::time_point to);

/// Linear-interpolation percentile (pct in [0, 100]) of `samples`, the
/// definition numpy calls "linear". Empty input gives 0.
double percentile(std::vector<double> samples, double pct);

/// percentile(samples, 50).
double median(std::vector<double> samples);

/// The tail percentile ladder, highest first.
const std::vector<double>& tail_ladder();

/// The highest percentile not above `wanted` on tail_ladder() that leaves at
/// least `min_beyond` of `n` samples strictly beyond it, i.e.
/// n * (1 - pct / 100) >= min_beyond. Falls back to 50 when even the median
/// has fewer than min_beyond samples beyond it.
double tail_percentile(std::size_t n, double wanted, std::size_t min_beyond = 10);

/// A tail reading: which percentile was used, over how many samples.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
  /// "p95 of 480 samples (24 beyond)".
  std::string describe() const;
};

/// Requests that did not complete count as missing every latency limit: in
/// percentiles they sit above every completed sample. kMissed is the value a
/// percentile reads when it lands on one of them (finite, so it serializes
/// as a JSON number, and larger than any real latency).
inline constexpr double kMissed = 1e12;

/// Latencies of attempted requests, completed or not.
class LatencyBook {
 public:
  void record_ok(double ms) { ok_.push_back(ms); }
  /// A failed, shed, or timed-out request.
  void record_missed() { ++missed_; }

  std::size_t attempted() const { return ok_.size() + missed_; }
  std::size_t completed() const { return ok_.size(); }
  std::size_t missed() const { return missed_; }

  /// Percentile over every attempted request, missed ones as kMissed.
  double at(double pct) const;
  double p50() const { return at(50.0); }
  /// The tail at the highest ladder percentile <= wanted with >= 10
  /// attempted samples beyond it.
  Tail tail(double wanted) const;

 private:
  std::vector<double> with_missed() const;

  std::vector<double> ok_;
  std::size_t missed_ = 0;
};

/// A ratio that remembers its base, so it can be printed as "0.97 (97/100)".
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  /// num / den, or 0 when the base is 0.
  double value() const { return den != 0.0 ? num / den : 0.0; }
  std::string describe() const;
};

/// Process CPU time (user + system, every thread) from getrusage.
double process_cpu_seconds();

/// Peak resident set of the process so far, in MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// A fixed-rate open-loop schedule: request i is due at start + i / rate.
/// Latency is measured from the due time, not the actual send, so a stall
/// of the generator or the system is charged to every request it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s);
  Clock::time_point due(std::size_t i) const;
  /// Milliseconds from request i's due time to `replied`.
  double latency_ms(std::size_t i, Clock::time_point replied) const;

 private:
  Clock::time_point start_;
  double period_ns_;
};

/// How late an open-loop generator sent, relative to each due time.
class LatenessMeter {
 public:
  void record(Clock::time_point due, Clock::time_point sent);
  double p50_ms() const { return median(late_ms_); }
  double max_ms() const;
  std::size_t count() const { return late_ms_.size(); }

 private:
  std::vector<double> late_ms_;
};

}  // namespace perfbench
