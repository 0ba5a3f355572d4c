#include "host.hpp"

#include <algorithm>

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 20000;
constexpr std::uint32_t kSources = 4;
constexpr std::uint32_t kUnseen = ~0u;

}  // namespace

HostSpeed::HostSpeed() {
  // A random tree plus kNodes random chords, from a fixed xorshift stream.
  std::vector<std::vector<std::uint32_t>> adj(kNodes);
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t v = 1; v < kNodes; ++v) {
    const auto u = static_cast<std::uint32_t>(next() % v);
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  for (std::uint32_t e = 0; e < kNodes; ++e) {
    const auto u = static_cast<std::uint32_t>(next() % kNodes);
    const auto v = static_cast<std::uint32_t>(next() % kNodes);
    if (u == v) continue;
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  offsets_.push_back(0);
  for (const auto& row : adj) {
    neighbors_.insert(neighbors_.end(), row.begin(), row.end());
    offsets_.push_back(static_cast<std::uint32_t>(neighbors_.size()));
  }
  dist_.resize(kNodes);
  queue_.resize(kNodes);
  last_ = Clock::now();
}

void HostSpeed::sample() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t total = 0;
  for (std::uint32_t src = 0; src < kSources; ++src) {
    std::fill(dist_.begin(), dist_.end(), kUnseen);
    dist_[src] = 0;
    std::uint32_t head = 0, tail = 0;
    queue_[tail++] = src;
    while (head < tail) {
      const std::uint32_t u = queue_[head++];
      for (std::uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        const std::uint32_t v = neighbors_[i];
        if (dist_[v] == kUnseen) {
          dist_[v] = dist_[u] + 1;
          queue_[tail++] = v;
        }
      }
    }
    for (std::uint32_t d : dist_) total += d;
  }
  last_ = Clock::now();
  // The graph is connected, so the distance sum is positive; the check
  // keeps the sweep from being optimized away.
  if (total == 0) return;
  ms_.push_back(ms_between(t0, last_));
}

void HostSpeed::maybe_sample() {
  if (ms_between(last_, Clock::now()) >= kEveryMs) sample();
}

double HostSpeed::factor() const {
  return ms_.empty() ? 1.0 : kNominalMs / median_ms();
}

HostSpeed& host_speed() {
  static HostSpeed speed;
  return speed;
}

}  // namespace perfbench
