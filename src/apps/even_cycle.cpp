#include "src/apps/even_cycle.hpp"

#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "src/net/bfs.hpp"
#include "src/net/pipeline.hpp"
#include "src/util/combinatorics.hpp"

namespace qcongest::apps {

namespace {

constexpr std::int32_t kTagColorToken = 40;
constexpr std::int32_t kTagCycleClosed = 41;

/// One color-coding repetition. Colors are sampled locally in round 0 and
/// exchanged with neighbors (1 round); color-0 nodes then emit tokens
/// (origin, dist) that may only move to a neighbor of color dist mod L, and
/// a token at dist L-1 closes the cycle if its origin is adjacent.
class ColorCodingProgram final : public net::NodeProgram {
 public:
  ColorCodingProgram(std::size_t length) : length_(length) {}

  bool witnessed() const { return witnessed_; }

  void on_round(net::Context& ctx, std::span<const net::Message> inbox) override {
    const std::size_t degree = ctx.neighbors().size();
    if (ctx.round() == 0) {
      color_ = ctx.rng().index(length_);
      neighbor_color_.assign(degree, 0);
      outbox_.resize(degree);
      for (net::NodeId u : ctx.neighbors()) {
        ctx.send(u, net::Word{kTagColorToken, -1, static_cast<std::int64_t>(color_),
                              false});
      }
      return;
    }

    for (const net::Message& m : inbox) {
      if (m.word.tag == kTagCycleClosed) {
        witnessed_ = true;
        continue;
      }
      if (m.word.tag != kTagColorToken) continue;
      if (m.word.a < 0) {
        // Neighbor color announcement (round 1).
        neighbor_color_[neighbor_index(ctx, m.from)] =
            static_cast<std::size_t>(m.word.b);
        if (++colors_known_ == degree && color_ == 0) {
          // Seed my own walk: I am the origin at dist 0.
          accept_token(ctx, ctx.id(), 0);
        }
        continue;
      }
      accept_token(ctx, static_cast<std::size_t>(m.word.a),
                   static_cast<std::size_t>(m.word.b));
    }

    for (std::size_t ni = 0; ni < outbox_.size(); ++ni) {
      auto& queue = outbox_[ni];
      for (std::size_t budget = ctx.bandwidth(); budget > 0 && !queue.empty();
           --budget) {
        ctx.send(ctx.neighbors()[ni], queue.front());
        queue.pop_front();
      }
    }
  }

 private:
  std::size_t neighbor_index(net::Context& ctx, net::NodeId u) const {
    const auto& adj = ctx.neighbors();
    return static_cast<std::size_t>(
        std::find(adj.begin(), adj.end(), u) - adj.begin());
  }

  void accept_token(net::Context& ctx, std::size_t origin, std::size_t dist) {
    // My color must match the walk position; dedupe per origin.
    if (color_ != dist % length_) return;
    if (!seen_.insert(origin).second) return;
    if (dist + 1 == length_) {
      // Close the cycle if the origin is a neighbor.
      for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
        if (ctx.neighbors()[ni] == origin) {
          outbox_[ni].push_back(net::Word{kTagCycleClosed, 0, 0, false});
          witnessed_ = true;  // the witness edge itself is on the cycle
        }
      }
      return;
    }
    std::size_t next_color = (dist + 1) % length_;
    for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
      if (neighbor_color_[ni] != next_color) continue;
      outbox_[ni].push_back(net::Word{kTagColorToken,
                                      static_cast<std::int64_t>(origin),
                                      static_cast<std::int64_t>(dist + 1), false});
    }
  }

  std::size_t length_;
  std::size_t color_ = 0;
  std::vector<std::size_t> neighbor_color_;
  std::size_t colors_known_ = 0;
  std::unordered_set<std::size_t> seen_;
  bool witnessed_ = false;
  std::vector<std::deque<net::Word>> outbox_;
};

}  // namespace

std::size_t exact_cycle_default_repetitions(std::size_t length) {
  double p = 2.0 * static_cast<double>(length) /
             std::pow(static_cast<double>(length), static_cast<double>(length));
  return static_cast<std::size_t>(std::ceil(std::log(3.0) / p)) + 1;
}

ExactCycleResult exact_cycle_detection(const net::Graph& graph, std::size_t length,
                                       util::Rng& rng, std::size_t repetitions,
                                       const NetOptions& options) {
  if (length < 3) throw std::invalid_argument("exact_cycle_detection: length < 3");
  if (length > 6) {
    throw std::invalid_argument(
        "exact_cycle_detection: color coding impractical beyond L = 6");
  }
  const std::size_t n = graph.num_nodes();
  if (repetitions == 0) repetitions = exact_cycle_default_repetitions(length);

  ExactCycleResult result;
  result.repetitions = repetitions;
  net::Engine engine(graph, options.bandwidth, rng.engine()());
  options.configure(engine);

  bool found = false;
  for (std::size_t rep = 0; rep < repetitions && !found; ++rep) {
    std::vector<std::unique_ptr<net::NodeProgram>> programs;
    programs.reserve(n);
    for (net::NodeId v = 0; v < n; ++v) {
      programs.push_back(std::make_unique<ColorCodingProgram>(length));
    }
    std::size_t limit = 8 * (n * length + n) + 64;
    result.cost += engine.run(programs, limit);
    for (net::NodeId v = 0; v < n; ++v) {
      if (static_cast<ColorCodingProgram&>(*programs[v]).witnessed()) found = true;
    }
  }

  if (found) {
    // Broadcast the verdict: leader election + one downcast, O(D).
    auto election = net::elect_leader(engine);
    result.cost += election.cost;
    net::BfsTree tree = net::build_bfs_tree(engine, election.leader);
    result.cost += tree.cost;
    result.cost += net::pipelined_downcast(engine, tree, {1}, false).cost;
  }
  result.found = found;
  return result;
}

}  // namespace qcongest::apps
