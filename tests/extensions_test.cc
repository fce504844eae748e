// Tests for the paper-§5 extensions: minimum-seed α-coverage and
// edge-traversal domination.
#include <gtest/gtest.h>

#include <string>

#include "core/edge_domination.h"
#include "core/min_seed_cover.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "wgraph/substrate.h"

namespace rwdom {
namespace {

TEST(MinSeedCoverTest, StarNeedsOneSeed) {
  Graph g = GenerateStar(12);
  ApproxGreedyOptions options{.length = 3, .num_replicates = 40, .seed = 3};
  MinSeedCoverResult result = MinSeedCover(g, 0.9, options);
  EXPECT_TRUE(result.reached_target);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0], 0);  // Hub: every walk hits it in 1 hop.
}

TEST(MinSeedCoverTest, ZeroAlphaNeedsNothing) {
  Graph g = GenerateCycle(6);
  ApproxGreedyOptions options{.length = 2, .num_replicates = 5, .seed = 1};
  MinSeedCoverResult result = MinSeedCover(g, 0.0, options);
  EXPECT_TRUE(result.reached_target);
  EXPECT_TRUE(result.selected.empty());
}

TEST(MinSeedCoverTest, FullAlphaOnDisconnectedNeedsManySeeds) {
  // Two cliques with no bridge: walks cannot cross, so α = 1 needs seeds
  // on both sides.
  Graph g = GenerateTwoCliquesBridge(4);  // Connected version first:
  ApproxGreedyOptions options{.length = 4, .num_replicates = 60, .seed = 5};
  MinSeedCoverResult connected = MinSeedCover(g, 0.95, options);
  EXPECT_TRUE(connected.reached_target);

  // Path of 2 isolated-ish halves: build explicitly disconnected graph.
  Graph two_parts = [] {
    GraphBuilder builder(6);
    builder.AddEdge(0, 1);
    builder.AddEdge(1, 2);
    builder.AddEdge(3, 4);
    builder.AddEdge(4, 5);
    return std::move(builder).BuildOrDie();
  }();
  MinSeedCoverResult split = MinSeedCover(two_parts, 0.99, options);
  EXPECT_TRUE(split.reached_target);
  EXPECT_GE(split.selected.size(), 2u);  // One per component at least.
}

TEST(MinSeedCoverTest, CoverageTrajectoryIsNondecreasing) {
  auto graph = GenerateBarabasiAlbert(50, 2, 133);
  ASSERT_TRUE(graph.ok());
  ApproxGreedyOptions options{.length = 4, .num_replicates = 30, .seed = 7};
  MinSeedCoverResult result = MinSeedCover(*graph, 0.8, options);
  EXPECT_TRUE(result.reached_target);
  for (size_t i = 1; i < result.coverage_after_pick.size(); ++i) {
    EXPECT_GE(result.coverage_after_pick[i],
              result.coverage_after_pick[i - 1] - 1e-9);
  }
  // Trajectory consistency: last coverage >= alpha * n.
  ASSERT_FALSE(result.coverage_after_pick.empty());
  EXPECT_GE(result.coverage_after_pick.back(), 0.8 * 50 - 1e-9);
}

TEST(MinSeedCoverTest, FullAlphaStopsAtTheTargetWithoutDrift) {
  // `rwdom generate --model=plc --n=50 --m=200 --seed=1`, loaded back the
  // way `rwdom cover` loads it, with cover's default L, R and seed. Summed
  // as doubles, the gains here end at 49.999999999999993 < 50, so the
  // cover used to add zero-gain nodes up to all 50 and miss the target.
  const Graph generated = GeneratePowerLawCommunity(50, 200, 16, 0.08, 1)
                              .value();
  std::string edge_list;
  for (NodeId u = 0; u < generated.num_nodes(); ++u) {
    for (NodeId v : generated.neighbors(u)) {
      if (u < v) edge_list += std::to_string(u) + " " + std::to_string(v) +
                              "\n";
    }
  }
  auto loaded = ParseSubstrate(edge_list);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ApproxGreedyOptions options{
      .length = 6, .num_replicates = 100, .seed = 42, .lazy = true};
  MinSeedCoverResult result =
      MinSeedCover(loaded->substrate.model(), 1.0, options);
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.selected.size(), 24u);
  ASSERT_FALSE(result.coverage_after_pick.empty());
  EXPECT_EQ(result.coverage_after_pick.back(), 50.0);
}

TEST(MinSeedCoverTest, HigherAlphaNeedsAtLeastAsManySeeds) {
  auto graph = GenerateBarabasiAlbert(60, 2, 135);
  ASSERT_TRUE(graph.ok());
  ApproxGreedyOptions options{.length = 4, .num_replicates = 30, .seed = 9};
  auto low = MinSeedCover(*graph, 0.5, options);
  auto high = MinSeedCover(*graph, 0.9, options);
  EXPECT_TRUE(low.reached_target);
  EXPECT_TRUE(high.reached_target);
  EXPECT_LE(low.selected.size(), high.selected.size());
}

TEST(EdgeDominationTest, EmptySetScoresZero) {
  Graph g = GenerateCycle(6);
  EdgeDominationObjective objective(&g, 4, 50, 1);
  NodeFlagSet empty(6);
  // With no targets every walk runs its full budget; savings are zero only
  // relative to nL minus expected distinct edges — value is nL - total,
  // which is > 0 because walks revisit edges. Check bounds instead.
  double value = objective.Value(empty);
  EXPECT_GE(value, 0.0);
  EXPECT_LE(value, 6.0 * 4.0);
}

TEST(EdgeDominationTest, MonotoneInTargets) {
  auto graph = GenerateBarabasiAlbert(25, 2, 137);
  ASSERT_TRUE(graph.ok());
  EdgeDominationObjective objective(&*graph, 4, 400, 3);
  NodeFlagSet small(25, {0});
  NodeFlagSet large(25, {0, 5, 10});
  // More targets absorb walks sooner: fewer edges wasted, higher value.
  // Sampled, so allow noise slack.
  EXPECT_GE(objective.Value(large), objective.Value(small) - 0.5);
}

TEST(EdgeDominationTest, GreedyPicksStarHub) {
  Graph g = GenerateStar(8);
  EdgeDominationGreedy greedy(&g, 3, 60, 5);
  SelectionResult result = greedy.Select(1);
  EXPECT_EQ(result.selected[0], 0);
  EXPECT_EQ(greedy.name(), "EdgeGreedy");
}

TEST(EdgeDominationTest, SeedsReduceExpectedEdgeTraffic) {
  // Direct check of the P2P story: expected distinct edges walked before
  // absorption drops when greedy seeds are placed.
  auto graph = GenerateBarabasiAlbert(30, 2, 139);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 5;
  EdgeDominationObjective objective(&*graph, length, 300, 7);
  NodeFlagSet empty(30);
  EdgeDominationGreedy greedy(&*graph, length, 100, 7);
  SelectionResult result = greedy.Select(3);
  NodeFlagSet seeded(30, result.selected);
  EXPECT_GT(objective.Value(seeded), objective.Value(empty));
}

}  // namespace
}  // namespace rwdom
