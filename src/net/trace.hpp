#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/net/engine.hpp"
#include "src/net/graph.hpp"

namespace qcongest::net {

/// One recorded message delivery.
struct TraceEvent {
  std::size_t round = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::int32_t tag = 0;
  bool quantum = false;
};

/// Message-level execution trace for observability and debugging. Attach to
/// an Engine with Engine::add_observer; every admitted send is recorded with
/// its round. One trace may observe several engines; phases accumulate until
/// clear().
///
/// The digest — total, per-round counts, per-directed-edge counts and
/// per-tag counts — is tallied as events are recorded, at O(1) per event,
/// so reading it costs O(distinct edges), not O(events). The events
/// themselves are kept only when the trace is built with keep_events; only
/// callers that replay the delivery order (determinism transcripts) need
/// them.
class Trace final : public EngineObserver {
 public:
  explicit Trace(bool keep_events = false) : keep_events_(keep_events) {}

  /// Records the send over its engine slot (see record).
  void on_send(std::size_t round, NodeId from, NodeId to, const Word& word,
               std::size_t edge_words, std::size_t slot) override {
    (void)edge_words;
    record(TraceEvent{round, from, to, word.tag, word.quantum}, slot);
  }

  void clear();

  /// Record one delivery whose directed edge has no known slot.
  void record(const TraceEvent& event);
  /// Record one delivery over directed-edge slot `slot` of the recording
  /// engine (Engine's numbering: node v's i-th neighbor edge). The slot only
  /// speeds up the edge tally; engines on different graphs may share one
  /// trace, and a slot already holding another edge falls back to the
  /// slot-less path.
  void record(const TraceEvent& event, std::size_t slot);

  /// Every recorded event in order. Requires keep_events (throws
  /// std::logic_error otherwise).
  const std::vector<TraceEvent>& events() const;
  std::size_t size() const { return total_; }

  /// Messages sent per round (index = round), up to the last round with an
  /// event; silent rounds in between count zero.
  std::vector<std::size_t> per_round_counts() const { return per_round_; }

  /// The `top` most-used directed edges as ((from, to), count), busiest
  /// first; ties ordered by (from, to) ascending.
  std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> busiest_edges(
      std::size_t top) const;

  /// Message counts per protocol tag.
  std::map<std::int32_t, std::size_t> per_tag_counts() const;

  /// ASCII activity timeline: one line per round, a bar of '#' scaled to
  /// `width` columns, annotated with the message count. Handy in examples
  /// and failure logs.
  std::string render_timeline(std::size_t width = 50) const;

  /// Undirected per-edge message totals keyed by (min, max) endpoints —
  /// directly consumable by Graph::to_dot as edge labels.
  std::map<std::pair<NodeId, NodeId>, std::size_t> edge_totals() const;

 private:
  struct EdgeTally {
    NodeId from = 0;
    NodeId to = 0;
    std::size_t count = 0;
  };
  /// Tags in [-kTagBias, kTagBias) are tallied in a flat array; that covers
  /// the protocol tags and the link layer's negative chunk tags.
  static constexpr std::int32_t kTagBias = 128;

  void tally(const TraceEvent& event);
  /// Every directed edge with its count, sorted by (from, to), duplicates
  /// (one edge seen under several slots) merged.
  std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> directed_counts() const;

  bool keep_events_;
  std::vector<TraceEvent> events_;
  std::size_t total_ = 0;
  std::vector<std::size_t> per_round_;
  std::vector<EdgeTally> slot_edges_;  // indexed by engine edge slot
  // The rare paths append and are merged when the digest is read: edges of
  // slot-less events (or of a colliding slot), and tags outside the array.
  std::vector<std::pair<NodeId, NodeId>> loose_edges_;
  std::array<std::size_t, 2 * kTagBias> small_tags_{};
  std::vector<std::int32_t> loose_tags_;
};

}  // namespace qcongest::net
