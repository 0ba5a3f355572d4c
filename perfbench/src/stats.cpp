#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(pct, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // An interpolation touching a kMissed sample reads as missed, never as a
  // blend of a real latency and the sentinel.
  if (frac > 0.0 && samples[hi] >= kMissed) return kMissed;
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

const std::vector<double>& tail_ladder() {
  static const std::vector<double> ladder = {99.9, 99.5, 99.0, 98.0, 95.0,
                                             90.0, 80.0, 75.0, 50.0};
  return ladder;
}

double tail_percentile(std::size_t n, double wanted, std::size_t min_beyond) {
  for (double pct : tail_ladder()) {
    if (pct > wanted) continue;
    // Samples strictly beyond the pct-th percentile: n * (1 - pct/100),
    // compared in integers (x10) to keep 99.9 exact.
    const auto beyond_x1000 = static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(std::lround((100.0 - pct) * 10.0));
    if (beyond_x1000 >= static_cast<std::uint64_t>(min_beyond) * 1000) return pct;
  }
  return 50.0;
}

std::string Tail::describe() const {
  char buf[96];
  const double beyond = static_cast<double>(samples) * (100.0 - pct) / 100.0;
  std::snprintf(buf, sizeof buf, "p%g of %zu samples (%.0f beyond)", pct, samples,
                std::floor(beyond));
  return buf;
}

std::vector<double> LatencyBook::with_missed() const {
  std::vector<double> all = ok_;
  all.insert(all.end(), missed_, kMissed);
  return all;
}

double LatencyBook::at(double pct) const { return percentile(with_missed(), pct); }

Tail LatencyBook::tail(double wanted) const {
  Tail t;
  t.samples = attempted();
  t.pct = tail_percentile(t.samples, wanted);
  t.value = at(t.pct);
  return t;
}

std::string Ratio::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.4f (%.6g/%.6g)", value(), num, den);
  return buf;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_s)
    : start_(start), period_ns_(1e9 / rate_per_s) {}

Clock::time_point OpenLoopSchedule::due(std::size_t i) const {
  return start_ + std::chrono::nanoseconds(
                      static_cast<std::int64_t>(std::llround(period_ns_ * static_cast<double>(i))));
}

double OpenLoopSchedule::latency_ms(std::size_t i, Clock::time_point replied) const {
  return ms_between(due(i), replied);
}

void LatenessMeter::record(Clock::time_point due, Clock::time_point sent) {
  late_ms_.push_back(std::max(0.0, ms_between(due, sent)));
}

double LatenessMeter::max_ms() const {
  return late_ms_.empty() ? 0.0 : *std::max_element(late_ms_.begin(), late_ms_.end());
}

}  // namespace perfbench
