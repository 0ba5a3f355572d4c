// Tests of the benchmark's statistics helpers.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using std::chrono::milliseconds;

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100), 4.0);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
  EXPECT_DOUBLE_EQ(tail_percentile(1000, 99.9), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(10000, 99.9), 99.9);
  // 200 samples: p95 leaves 10.
  EXPECT_DOUBLE_EQ(tail_percentile(200, 99.0), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(199, 95.0), 90.0);
  // Never above the percentile the workload asked for.
  EXPECT_DOUBLE_EQ(tail_percentile(100000, 95.0), 95.0);
  // Too few samples for any tail: the median.
  EXPECT_DOUBLE_EQ(tail_percentile(12, 95.0), 50.0);
}

TEST(TailPercentile, DescribesWhichPercentileWasUsed) {
  LatencyBook book;
  for (int i = 1; i <= 200; ++i) book.record_ok(i);
  const Tail tail = book.tail(99.0);
  EXPECT_DOUBLE_EQ(tail.pct, 95.0);
  EXPECT_EQ(tail.samples, 200u);
  EXPECT_EQ(tail.describe(), "p95 of 200 samples (10 beyond)");
  EXPECT_NEAR(tail.value, 190.05, 1e-9);
}

TEST(LatencyBook, MissedRequestsMissEveryLimit) {
  LatencyBook book;
  for (int i = 0; i < 8; ++i) book.record_ok(5.0);
  book.record_missed();  // failed
  book.record_missed();  // shed
  book.record_missed();  // timed out
  EXPECT_EQ(book.attempted(), 11u);
  EXPECT_EQ(book.completed(), 8u);
  // The median is still a real latency, but the upper tail lands on the
  // missed requests, above any limit.
  EXPECT_DOUBLE_EQ(book.p50(), 5.0);
  EXPECT_GE(book.at(90.0), kMissed);
  // Interpolating between a real sample and a missed one reads as missed.
  EXPECT_GE(book.at(72.0), kMissed);
  EXPECT_DOUBLE_EQ(book.at(70.0), 5.0);
}

TEST(LatencyBook, AllMissedReadsMissed) {
  LatencyBook book;
  book.record_missed();
  EXPECT_GE(book.p50(), kMissed);
}

TEST(Ratio, PrintsItsBase) {
  const Ratio r{97, 100};
  EXPECT_DOUBLE_EQ(r.value(), 0.97);
  EXPECT_EQ(r.describe(), "0.9700 (97/100)");
  const Ratio empty{0, 0};
  EXPECT_EQ(empty.value(), 0.0);
  EXPECT_EQ(empty.describe(), "0.0000 (0/0)");
}

TEST(ProcessCpu, ReadsGetrusage) {
  const double before = process_cpu_seconds();
  // Busy-wait for 50 ms of wall time: CPU time must advance by most of it.
  const auto until = Clock::now() + milliseconds(50);
  volatile unsigned long spin = 0;
  while (Clock::now() < until) spin = spin + 1;
  const double used = process_cpu_seconds() - before;
  EXPECT_GT(used, 0.025);
  EXPECT_LT(used, 5.0);
  // Sleeping costs no CPU.
  const double idle_before = process_cpu_seconds();
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_LT(process_cpu_seconds() - idle_before, 0.025);
  EXPECT_GT(peak_rss_mib(), 0.0);
}

TEST(OpenLoopSchedule, TimesFromTheScheduledSend) {
  const Clock::time_point start = Clock::now();
  OpenLoopSchedule schedule(start, 100.0);  // one request every 10 ms
  EXPECT_EQ(schedule.due(0), start);
  EXPECT_EQ(schedule.due(3), start + milliseconds(30));
  // Request 3 was sent 20 ms late and answered 5 ms after the send: its
  // latency includes the 20 ms the generator (or a stall) delayed it.
  const Clock::time_point sent = schedule.due(3) + milliseconds(20);
  EXPECT_DOUBLE_EQ(schedule.latency_ms(3, sent + milliseconds(5)), 25.0);
}

TEST(LatenessMeter, MeasuresHowLateTheGeneratorRan) {
  const Clock::time_point t = Clock::now();
  LatenessMeter meter;
  meter.record(t, t + milliseconds(1));
  meter.record(t, t + milliseconds(3));
  meter.record(t, t - milliseconds(2));  // early sends count as on time
  EXPECT_EQ(meter.count(), 3u);
  EXPECT_DOUBLE_EQ(meter.p50_ms(), 1.0);
  EXPECT_DOUBLE_EQ(meter.max_ms(), 3.0);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer;
  const Clock::time_point t0 = Clock::now();
  tracer.record("parent", t0, t0 + milliseconds(10), -1, 1);
  tracer.record("child", t0 + milliseconds(2), t0 + milliseconds(5), 0, 1);
  tracer.record("child", t0 + milliseconds(4), t0 + milliseconds(6), 0, 1);  // overlaps
  EXPECT_NEAR(tracer.self_ms(0), 6.0, 1e-9);
  const auto totals = tracer.totals();
  EXPECT_EQ(totals.at("child").count, 2u);
  EXPECT_NEAR(totals.at("child").total_ms, 5.0, 1e-9);
  EXPECT_NEAR(totals.at("parent").self_ms, 6.0, 1e-9);
}

TEST(Tracer, ScopedSpansNestAndCostNothingUntraced) {
  {
    ScopedSpan untraced("outer", 0);  // no tracer installed: a no-op
  }
  Tracer tracer;
  set_tracer(&tracer);
  {
    ScopedSpan outer("outer", 7);
    ScopedSpan inner("inner", 7);
  }
  set_tracer(nullptr);
  ASSERT_EQ(tracer.size(), 2u);
  const auto totals = tracer.totals();
  EXPECT_EQ(totals.at("outer").count, 1u);
  EXPECT_LE(totals.at("outer").self_ms, totals.at("outer").total_ms);
}

}  // namespace
}  // namespace perfbench
