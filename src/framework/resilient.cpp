#include "src/framework/resilient.hpp"

#include <optional>

#include "src/util/rng.hpp"

namespace qcongest::framework {

namespace {

/// OK-vote sentinel for the verification convergecast. Its bit pattern is
/// at Hamming distance >= 2 from 0 and from any single-bit corruption of
/// itself, so a one-bit flip in transit can never *forge* an OK verdict —
/// corruption can only cause a spurious retry, never a false pass.
constexpr std::int64_t kOkVote = 0x2B;

/// A transient, fault-induced phase failure: lost or reordered words break
/// the phase's schedule invariants, which surface as logic/runtime errors.
/// Configuration errors (std::invalid_argument) fail identically on every
/// attempt and end in PhaseAborted, which is the honest outcome anyway.
template <typename Fn>
bool attempt(net::Engine& engine, net::RunResult& cost, const Fn& fn) {
  try {
    fn();
    return true;
  } catch (const std::logic_error&) {
    cost += engine.last_stats();
    return false;
  } catch (const std::runtime_error&) {
    cost += engine.last_stats();
    return false;
  }
}

}  // namespace

std::int64_t payload_checksum(const std::vector<std::int64_t>& payload) {
  std::uint64_t h = 0x0fa17c8ecc5a17ULL;
  for (std::int64_t w : payload) h = util::mix64(h ^ static_cast<std::uint64_t>(w));
  return static_cast<std::int64_t>(h);
}

ResilientDowncastResult resilient_downcast(net::Engine& engine,
                                           const net::BfsTree& tree,
                                           const std::vector<std::int64_t>& payload,
                                           bool quantum, const RetryPolicy& policy) {
  std::vector<std::int64_t> framed = payload;
  framed.push_back(payload_checksum(payload));

  ResilientDowncastResult result;
  for (result.attempts = 1; result.attempts <= policy.max_attempts;
       ++result.attempts) {
    // Phase: the checksummed downcast itself.
    std::optional<net::DowncastResult> down;
    bool delivered = attempt(engine, result.cost, [&] {
      down = net::pipelined_downcast(engine, tree, framed, quantum);
    });
    if (!delivered) continue;
    result.cost += down->cost;

    // Local verification at every node, then a sentinel-vote convergecast
    // of the verdicts to the root.
    const std::size_t n = engine.graph().num_nodes();
    std::vector<std::vector<std::int64_t>> votes(n);
    for (std::size_t v = 0; v < n; ++v) {
      const auto& got = down->received[v];
      bool ok = got.size() == framed.size() &&
                payload_checksum({got.begin(), got.end() - 1}) == got.back();
      votes[v] = {ok ? kOkVote : 0};
    }
    std::optional<net::ConvergecastResult> verdict;
    bool voted = attempt(engine, result.cost, [&] {
      verdict = net::pipelined_convergecast(
          engine, tree, votes, /*value_words=*/1,
          [](std::int64_t a, std::int64_t b) {
            return a == kOkVote && b == kOkVote ? kOkVote : std::int64_t{0};
          },
          /*quantum=*/false);
    });
    if (!voted) continue;
    result.cost += verdict->cost;
    if (verdict->totals[0] != kOkVote) continue;  // some node saw corruption

    result.received.assign(n, {});
    for (std::size_t v = 0; v < n; ++v) {
      auto& row = down->received[v];
      row.pop_back();  // strip the checksum word
      result.received[v] = std::move(row);
    }
    return result;
  }
  throw PhaseAborted("downcast", policy.max_attempts, result.cost);
}

ResilientConvergecastResult resilient_convergecast(
    net::Engine& engine, const net::BfsTree& tree,
    const std::vector<std::vector<std::int64_t>>& values, std::size_t value_words,
    const net::CombineOp& op, bool quantum, const RetryPolicy& policy) {
  ResilientConvergecastResult result;
  std::optional<std::vector<std::int64_t>> previous;
  for (result.attempts = 1; result.attempts <= policy.max_attempts;
       ++result.attempts) {
    std::optional<net::ConvergecastResult> conv;
    bool done = attempt(engine, result.cost, [&] {
      conv = net::pipelined_convergecast(engine, tree, values, value_words, op, quantum);
    });
    if (!done) continue;
    result.cost += conv->cost;
    if (previous.has_value() && *previous == conv->totals) {
      result.totals = std::move(conv->totals);
      return result;
    }
    previous = std::move(conv->totals);
  }
  throw PhaseAborted("convergecast", policy.max_attempts, result.cost);
}

ResilientPhaseResult distribute_state_resilient(net::Engine& engine,
                                                const net::BfsTree& tree,
                                                std::size_t q_qubits,
                                                const RetryPolicy& policy) {
  ResilientPhaseResult result;
  for (result.attempts = 1; result.attempts <= policy.max_attempts;
       ++result.attempts) {
    bool done = attempt(engine, result.cost, [&] {
      result.cost += distribute_state(engine, tree, q_qubits);
    });
    if (done) return result;
  }
  throw PhaseAborted("state distribution", policy.max_attempts, result.cost);
}

}  // namespace qcongest::framework
