#include "src/net/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace qcongest::net {

void Trace::clear() {
  events_.clear();
  total_ = 0;
  per_round_.clear();
  slot_edges_.clear();
  loose_edges_.clear();
  small_tags_.fill(0);
  loose_tags_.clear();
}

void Trace::tally(const TraceEvent& event) {
  if (keep_events_) events_.push_back(event);
  ++total_;
  if (event.round >= per_round_.size()) per_round_.resize(event.round + 1, 0);
  ++per_round_[event.round];
  if (event.tag >= -kTagBias && event.tag < kTagBias) {
    ++small_tags_[static_cast<std::size_t>(event.tag + kTagBias)];
  } else {
    loose_tags_.push_back(event.tag);
  }
}

void Trace::record(const TraceEvent& event) {
  tally(event);
  loose_edges_.emplace_back(event.from, event.to);
}

void Trace::record(const TraceEvent& event, std::size_t slot) {
  tally(event);
  if (slot >= slot_edges_.size()) slot_edges_.resize(slot + 1);
  EdgeTally& edge = slot_edges_[slot];
  if (edge.count == 0) {
    edge.from = event.from;
    edge.to = event.to;
  } else if (edge.from != event.from || edge.to != event.to) {
    // Another graph's edge under the same slot number.
    loose_edges_.emplace_back(event.from, event.to);
    return;
  }
  ++edge.count;
}

const std::vector<TraceEvent>& Trace::events() const {
  if (!keep_events_) {
    throw std::logic_error("Trace::events: trace was built without keep_events");
  }
  return events_;
}

std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> Trace::directed_counts()
    const {
  std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> counts;
  counts.reserve(loose_edges_.size() + slot_edges_.size());
  for (const auto& edge : loose_edges_) counts.push_back({edge, 1});
  for (const EdgeTally& edge : slot_edges_) {
    if (edge.count != 0) counts.push_back({{edge.from, edge.to}, edge.count});
  }
  std::sort(counts.begin(), counts.end());
  std::size_t keep = 0;
  for (const auto& entry : counts) {
    if (keep > 0 && counts[keep - 1].first == entry.first) {
      counts[keep - 1].second += entry.second;
    } else {
      counts[keep++] = entry;
    }
  }
  counts.resize(keep);
  return counts;
}

std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> Trace::busiest_edges(
    std::size_t top) const {
  auto sorted = directed_counts();
  // Total order — count descending, then (from, to) ascending — so tied
  // edges come back in the same order on every STL implementation (the
  // comparator alone makes the result unique; sort stability is moot).
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (sorted.size() > top) sorted.resize(top);
  return sorted;
}

std::map<std::int32_t, std::size_t> Trace::per_tag_counts() const {
  std::map<std::int32_t, std::size_t> counts;
  for (std::int32_t tag : loose_tags_) ++counts[tag];
  for (std::size_t i = 0; i < small_tags_.size(); ++i) {
    if (small_tags_[i] != 0) {
      counts[static_cast<std::int32_t>(i) - kTagBias] = small_tags_[i];
    }
  }
  return counts;
}

std::map<std::pair<NodeId, NodeId>, std::size_t> Trace::edge_totals() const {
  std::map<std::pair<NodeId, NodeId>, std::size_t> totals;
  for (const auto& [edge, count] : directed_counts()) {
    totals[{std::min(edge.first, edge.second), std::max(edge.first, edge.second)}] +=
        count;
  }
  return totals;
}

std::string Trace::render_timeline(std::size_t width) const {
  auto counts = per_round_counts();
  std::size_t peak = 0;
  for (std::size_t c : counts) peak = std::max(peak, c);
  std::string out;
  for (std::size_t round = 0; round < counts.size(); ++round) {
    std::size_t bar =
        peak == 0 ? 0 : (counts[round] * width + peak - 1) / peak;
    out += "r";
    out += std::to_string(round);
    out += " |";
    out.append(bar, '#');
    out += " ";
    out += std::to_string(counts[round]);
    out += "\n";
  }
  return out;
}

}  // namespace qcongest::net
