#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {
Tracer* g_tracer = nullptr;
}  // namespace

Tracer* tracer() { return g_tracer; }
void set_tracer(Tracer* t) { g_tracer = t; }

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::int64_t Tracer::open(std::string name, std::uint32_t job) {
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  const std::int64_t start = to_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start, start, parent, job});
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = to_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::record(std::string name, Clock::time_point start, Clock::time_point end,
                    std::int64_t parent, std::uint32_t job) {
  Span span{std::move(name), to_ns(start), to_ns(end), parent, job};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<std::vector<std::size_t>> Tracer::children() const {
  std::vector<std::vector<std::size_t>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) kids[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  }
  return kids;
}

namespace {

// Duration of [start, end) not covered by any of `intervals` (clipped).
double uncovered_ms(std::int64_t start, std::int64_t end,
                    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return static_cast<double>(end - start - covered) / 1e6;
}

}  // namespace

double Tracer::self_ms(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto kids = children();
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t c : kids[index]) intervals.emplace_back(spans_[c].start_ns, spans_[c].end_ns);
  return uncovered_ms(spans_[index].start_ns, spans_[index].end_ns, std::move(intervals));
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto kids = children();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    for (std::size_t c : kids[i]) intervals.emplace_back(spans_[c].start_ns, spans_[c].end_ns);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += uncovered_ms(s.start_ns, s.end_ns, std::move(intervals));
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"job\":%u}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.parent), s.job);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::uint32_t job) {
  if (Tracer* t = tracer()) index_ = t->open(name, job);
}

ScopedSpan::~ScopedSpan() {
  if (index_ >= 0) tracer()->close(index_);
}

}  // namespace perfbench
