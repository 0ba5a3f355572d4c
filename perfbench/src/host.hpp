#pragma once

// Host-speed reference. The benchmark's host is a shared virtual machine
// whose speed drifts by tens of percent over minutes (other tenants,
// frequency changes), the same for every program on it. To keep that drift
// out of comparisons between two commits, each run times a fixed reference
// kernel — breadth-first sweeps over a fixed graph in flat arrays, written
// here and sharing no code with the library — at regular points between
// jobs, and scales its time metrics by nominal / measured kernel time.
// A change to src/ cannot move the kernel, so it cannot hide in the factor.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class HostSpeed {
 public:
  /// Kernel time on the reference machine at nominal speed (ms).
  static constexpr double kNominalMs = 3.0;

  HostSpeed();

  /// Time one kernel run.
  void sample();
  /// Time one kernel run if at least kEveryMs passed since the last one.
  void maybe_sample();

  std::size_t samples() const { return ms_.size(); }
  double median_ms() const { return median(ms_); }
  /// kNominalMs / median kernel time: below 1 on a slower-than-nominal host.
  double factor() const;

 private:
  static constexpr double kEveryMs = 250.0;

  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> neighbors_;
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> queue_;
  std::vector<double> ms_;
  Clock::time_point last_;
};

/// The process-wide reference, sampled by the closed-loop driver, the
/// set-up timer and the service-mix client loop.
HostSpeed& host_speed();

}  // namespace perfbench
