#pragma once

// Spec generation shared by the faults-reliable and service-mix workloads,
// which run the same kind of job with and without the service around it.

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/serve/job.hpp"

namespace perfbench {

/// Job spec `index` of a workload seeded by `workload_seed`: a registry app
/// over the reliable transport with drop, corrupt and duplicate faults, and
/// (when `allow_crash`) an amnesia crash with recovery on every fourth job.
std::string faulty_spec(std::uint64_t workload_seed, std::size_t index, bool allow_crash);

/// Parse and validate a spec the benchmark generated; throws on rejection.
qcongest::serve::JobSpec parse_spec_or_throw(const std::string& text);

}  // namespace perfbench
