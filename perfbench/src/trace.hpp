#pragma once

// In-memory span recorder of the traced run. Spans are recorded only by the
// benchmark's own code, around its calls into the library's public
// functions; the library itself reads no clock. With no tracer installed a
// ScopedSpan reads no clock either, so untraced runs pay nothing.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // steady clock, relative to the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   // index of the enclosing span, -1 for a root
  std::uint32_t job = 0;
};

/// Per-name totals over the recorded spans.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  /// Span time not covered by child spans.
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer();

  /// Open a span nested in the innermost open span of this thread's scope
  /// stack. Returns its index. Only the benchmark's driving thread opens
  /// nested spans.
  std::int64_t open(std::string name, std::uint32_t job);
  void close(std::int64_t index);

  /// Record a finished span measured elsewhere (e.g. on a pool worker),
  /// parented to `parent` (-1 for a root). Thread-safe.
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::int64_t parent, std::uint32_t job);

  /// Self time of span i: its duration minus the union of its children.
  double self_ms(std::size_t index) const;

  /// Totals per span name.
  std::map<std::string, SpanTotals> totals() const;

  std::size_t size() const;

  /// Write every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t to_ns(Clock::time_point t) const;
  std::vector<std::vector<std::size_t>> children() const;

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;          // guarded by mutex_
  std::vector<std::int64_t> stack_;  // open nested spans (driving thread)
};

/// The tracer of a traced run; null in untraced runs.
Tracer* tracer();
void set_tracer(Tracer* t);

/// RAII span around one call into a layer. No-op when no tracer is set.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint32_t job);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t index_ = -1;
};

}  // namespace perfbench
