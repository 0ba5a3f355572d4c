#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/net/bfs.hpp"
#include "src/net/generators.hpp"
#include "src/net/pipeline.hpp"
#include "src/net/trace.hpp"
#include "src/util/rng.hpp"

namespace qcongest::net {
namespace {

TEST(Trace, RecordsEveryDelivery) {
  Graph g = path_graph(5);
  Engine engine(g);
  Trace trace(/*keep_events=*/true);
  engine.add_observer(&trace);
  BfsTree tree = build_bfs_tree(engine, 0);
  EXPECT_EQ(trace.size(), tree.cost.messages);
  // Rounds in the trace are consistent with the measured round count.
  for (const TraceEvent& e : trace.events()) {
    EXPECT_LT(e.round, tree.cost.rounds + 1);
    EXPECT_TRUE(g.has_edge(e.from, e.to));
  }
}

TEST(Trace, PerRoundCountsSumToTotal) {
  Graph g = star_graph(8);
  Engine engine(g);
  Trace trace;
  engine.add_observer(&trace);
  BfsTree tree = build_bfs_tree(engine, 0);
  auto down = pipelined_downcast(engine, tree, {1, 2, 3, 4}, true);
  std::size_t total = 0;
  for (std::size_t c : trace.per_round_counts()) total += c;
  EXPECT_EQ(total, trace.size());
  EXPECT_EQ(trace.size(), tree.cost.messages + down.cost.messages);
}

TEST(Trace, BusiestEdgesAndTags) {
  Graph g = path_graph(4);
  Engine engine(g);
  Trace trace;
  engine.add_observer(&trace);
  BfsTree tree = build_bfs_tree(engine, 0);
  trace.clear();
  (void)pipelined_downcast(engine, tree, {1, 2, 3, 4, 5}, false);
  auto busiest = trace.busiest_edges(2);
  ASSERT_EQ(busiest.size(), 2u);
  EXPECT_EQ(busiest[0].second, 5u);  // every tree edge carries 5 words
  auto tags = trace.per_tag_counts();
  EXPECT_EQ(tags.size(), 1u);  // only the downcast tag
  EXPECT_EQ(tags.begin()->second, 15u);  // 3 edges x 5 words
}

TEST(Trace, TimelineRenders) {
  Graph g = path_graph(3);
  Engine engine(g);
  Trace trace;
  engine.add_observer(&trace);
  (void)build_bfs_tree(engine, 0);
  std::string timeline = trace.render_timeline(20);
  EXPECT_NE(timeline.find("r0 |"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
  // Detaching stops recording.
  engine.clear_observers();
  std::size_t before = trace.size();
  (void)build_bfs_tree(engine, 0);
  EXPECT_EQ(trace.size(), before);
}

TEST(Trace, EdgeTotalsFeedDotExport) {
  Graph g = path_graph(3);
  Engine engine(g);
  Trace trace;
  engine.add_observer(&trace);
  BfsTree tree = build_bfs_tree(engine, 0);
  (void)pipelined_downcast(engine, tree, {1, 2}, false);
  auto totals = trace.edge_totals();
  EXPECT_EQ(totals.size(), 2u);  // both path edges used
  std::string dot = g.to_dot(&totals);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1 [label="), std::string::npos);
  EXPECT_NE(dot.find("n1 -- n2 [label="), std::string::npos);
}

TEST(Trace, DotExportWithoutLabels) {
  Graph g = cycle_graph(4);
  std::string dot = g.to_dot();
  EXPECT_NE(dot.find("n0 -- n1;"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n3;"), std::string::npos);
  // Each undirected edge exactly once.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '-') / 2, 4);
}

TEST(Trace, EmptyTraceBehaves) {
  Trace trace;
  EXPECT_TRUE(trace.per_round_counts().empty());
  EXPECT_TRUE(trace.busiest_edges(3).empty());
  EXPECT_EQ(trace.render_timeline(), "");
}

TEST(Trace, BusiestEdgesBreaksTiesByEndpoints) {
  // Four directed edges, all with the same count: the result must come back
  // sorted by (from, to) ascending, independent of recording order.
  // Regression test — the old comparator only ordered by count, leaving tied
  // edges in whatever order the sort left them.
  Trace trace;
  for (auto [from, to] : {std::pair<NodeId, NodeId>{3, 1},
                          {0, 2},
                          {1, 0},
                          {0, 1}}) {
    trace.record({/*round=*/0, from, to, /*tag=*/7, /*quantum=*/false});
    trace.record({/*round=*/1, from, to, /*tag=*/7, /*quantum=*/false});
  }
  auto busiest = trace.busiest_edges(4);
  ASSERT_EQ(busiest.size(), 4u);
  std::vector<std::pair<NodeId, NodeId>> order;
  for (const auto& [edge, count] : busiest) {
    EXPECT_EQ(count, 2u);
    order.push_back(edge);
  }
  std::vector<std::pair<NodeId, NodeId>> expected = {{0, 1}, {0, 2}, {1, 0}, {3, 1}};
  EXPECT_EQ(order, expected);
  // A higher-count edge still sorts first regardless of endpoints.
  trace.record({/*round=*/2, 9, 9, /*tag=*/7, /*quantum=*/false});
  trace.record({/*round=*/2, 9, 9, /*tag=*/7, /*quantum=*/false});
  trace.record({/*round=*/3, 9, 9, /*tag=*/7, /*quantum=*/false});
  auto with_peak = trace.busiest_edges(1);
  ASSERT_EQ(with_peak.size(), 1u);
  EXPECT_EQ(with_peak[0].first, (std::pair<NodeId, NodeId>{9, 9}));
  EXPECT_EQ(with_peak[0].second, 3u);
}

TEST(Trace, TimelineHandlesSilentRounds) {
  // Events only in round 2: rounds 0 and 1 must still render, with empty
  // bars, and the round-2 bar is scaled to the peak.
  Trace trace;
  trace.record({/*round=*/2, 0, 1, /*tag=*/1, /*quantum=*/false});
  trace.record({/*round=*/2, 1, 2, /*tag=*/1, /*quantum=*/false});
  auto counts = trace.per_round_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 2u);
  std::string timeline = trace.render_timeline(10);
  EXPECT_NE(timeline.find("r0 | 0\n"), std::string::npos);
  EXPECT_NE(timeline.find("r1 | 0\n"), std::string::npos);
  EXPECT_NE(timeline.find("r2 |########## 2\n"), std::string::npos);
}

TEST(Trace, EdgeTotalsMergeBothDirections) {
  // Traffic in both directions over the same physical edge lands in one
  // undirected (min, max) bucket.
  Trace trace;
  trace.record({/*round=*/0, 0, 1, /*tag=*/1, /*quantum=*/false});
  trace.record({/*round=*/0, 1, 0, /*tag=*/1, /*quantum=*/false});
  trace.record({/*round=*/1, 1, 0, /*tag=*/1, /*quantum=*/false});
  trace.record({/*round=*/1, 2, 1, /*tag=*/1, /*quantum=*/false});
  auto totals = trace.edge_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ((totals.at({0, 1})), 3u);
  EXPECT_EQ((totals.at({1, 2})), 1u);
}

// --- Tallied digest vs a brute-force reference --------------------------
//
// The reference is the digest computed from the full event log with
// ordered maps, the way Trace computed it before it tallied on record.

using EdgeCount = std::pair<std::pair<NodeId, NodeId>, std::size_t>;

std::vector<std::size_t> reference_per_round(const std::vector<TraceEvent>& events) {
  std::size_t max_round = 0;
  for (const TraceEvent& e : events) max_round = std::max(max_round, e.round);
  std::vector<std::size_t> counts(events.empty() ? 0 : max_round + 1, 0);
  for (const TraceEvent& e : events) ++counts[e.round];
  return counts;
}

std::vector<EdgeCount> reference_busiest(const std::vector<TraceEvent>& events,
                                         std::size_t top) {
  std::map<std::pair<NodeId, NodeId>, std::size_t> counts;
  for (const TraceEvent& e : events) ++counts[{e.from, e.to}];
  std::vector<EdgeCount> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (sorted.size() > top) sorted.resize(top);
  return sorted;
}

std::map<std::int32_t, std::size_t> reference_per_tag(const std::vector<TraceEvent>& events) {
  std::map<std::int32_t, std::size_t> counts;
  for (const TraceEvent& e : events) ++counts[e.tag];
  return counts;
}

std::map<std::pair<NodeId, NodeId>, std::size_t> reference_edge_totals(
    const std::vector<TraceEvent>& events) {
  std::map<std::pair<NodeId, NodeId>, std::size_t> totals;
  for (const TraceEvent& e : events) {
    ++totals[{std::min(e.from, e.to), std::max(e.from, e.to)}];
  }
  return totals;
}

/// Compare every digest accessor with the reference over trace.events().
void expect_digest_matches_reference(const Trace& trace) {
  const std::vector<TraceEvent>& events = trace.events();
  EXPECT_EQ(trace.size(), events.size());
  EXPECT_EQ(trace.per_round_counts(), reference_per_round(events));
  EXPECT_EQ(trace.per_tag_counts(), reference_per_tag(events));
  EXPECT_EQ(trace.edge_totals(), reference_edge_totals(events));
  const std::size_t distinct = reference_busiest(events, events.size()).size();
  for (std::size_t top : {std::size_t{0}, std::size_t{1}, std::size_t{3}, distinct,
                          distinct + 5}) {
    EXPECT_EQ(trace.busiest_edges(top), reference_busiest(events, top)) << "top " << top;
  }
}

TEST(TraceDigest, RandomStreamsMatchReference) {
  // Few endpoints, so many edges tie on count and the (count desc, edge asc)
  // order is exercised. Two slot numberings stand in for engines on two
  // different graphs sharing the trace: the same slot names different edges.
  // Some events use the slot-less form, and some tags fall outside the
  // small-tag array.
  const std::int32_t tags[] = {1, 2, 41, -1, -101, -109, 127, -128, 128, -129, 5000};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    Trace trace(/*keep_events=*/true);
    const std::size_t nodes = 2 + rng.index(5);
    const std::size_t rounds = 1 + rng.index(12);
    const std::size_t count = rng.index(200);
    for (std::size_t i = 0; i < count; ++i) {
      TraceEvent e;
      e.round = rng.index(rounds);
      e.from = rng.index(nodes);
      e.to = rng.index(nodes);
      e.tag = tags[rng.index(std::size(tags))];
      e.quantum = rng.bernoulli(0.5);
      switch (rng.index(3)) {
        case 0:
          trace.record(e);
          break;
        case 1:
          trace.record(e, e.from * nodes + e.to);  // graph A's numbering
          break;
        default:
          trace.record(e, e.to * nodes + e.from);  // graph B's numbering
          break;
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_digest_matches_reference(trace);
  }
}

TEST(TraceDigest, SharedByEnginesOnTwoGraphs) {
  // One trace across two engines whose directed-edge slots number different
  // edges, plus the slot-less poison marker chaos_run records after a throw.
  Graph path = path_graph(6);
  Graph star = star_graph(7);
  Engine on_path(path);
  Engine on_star(star);
  Trace trace(/*keep_events=*/true);
  on_path.add_observer(&trace);
  on_star.add_observer(&trace);
  BfsTree path_tree = build_bfs_tree(on_path, 0);
  BfsTree star_tree = build_bfs_tree(on_star, 3);
  trace.record(TraceEvent{0, 0, 0, -1, false});
  (void)pipelined_downcast(on_path, path_tree, {1, 2, 3}, false);
  (void)pipelined_downcast(on_star, star_tree, {4, 5}, true);
  expect_digest_matches_reference(trace);
  // Cleared, the trace is empty again.
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.per_tag_counts().empty());
  expect_digest_matches_reference(trace);
}

TEST(TraceDigest, EventsRequireKeepEvents) {
  Trace trace;
  trace.record(TraceEvent{0, 0, 1, 1, false});
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_THROW((void)trace.events(), std::logic_error);
}

}  // namespace
}  // namespace qcongest::net
