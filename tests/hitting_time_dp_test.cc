#include "walk/transition_dp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace rwdom {
namespace {

// Definition-based brute force for E[T^L_uS] (Eq. 1/3): enumerate all
// equally-weighted trajectories recursively. Validates Theorem 2.2's
// recurrence independently.
double BruteForceHittingTime(const Graph& g, NodeId u, const NodeFlagSet& s,
                             int32_t remaining) {
  if (s.Contains(u)) return 0.0;
  if (remaining == 0) return 0.0;  // T^0 = 0 by definition.
  auto adj = g.neighbors(u);
  if (adj.empty()) return static_cast<double>(remaining);  // Never hits.
  double expectation = 0.0;
  for (NodeId w : adj) {
    expectation += 1.0 + BruteForceHittingTime(g, w, s, remaining - 1);
  }
  return expectation / static_cast<double>(adj.size());
}

TEST(HittingTimeDpTest, TwoNodePath) {
  Graph g = GeneratePath(2);
  TransitionDp dp(&g, 3);
  auto h = dp.HittingTimesToNode(1);
  EXPECT_DOUBLE_EQ(h[0], 1.0);  // One forced step.
  EXPECT_DOUBLE_EQ(h[1], 0.0);
}

TEST(HittingTimeDpTest, ThreeNodePathHandComputed) {
  Graph g = GeneratePath(3);
  TransitionDp dp(&g, 2);
  auto h = dp.HittingTimesToNode(2);
  // Derivation in DESIGN/tests: h^2(1->2) = 1.5, h^2(0->2) = 2.
  EXPECT_DOUBLE_EQ(h[1], 1.5);
  EXPECT_DOUBLE_EQ(h[0], 2.0);
  EXPECT_DOUBLE_EQ(h[2], 0.0);
}

TEST(HittingTimeDpTest, StarHubTargetIsOneStep) {
  Graph g = GenerateStar(5);
  TransitionDp dp(&g, 4);
  NodeFlagSet s(5, {0});
  auto h = dp.HittingTimesToSet(s);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_DOUBLE_EQ(h[leaf], 1.0);
  EXPECT_DOUBLE_EQ(dp.F1(s), 5.0 * 4.0 - 4.0);
}

TEST(HittingTimeDpTest, CliqueTruncationAtLengthOne) {
  // In K3 with L = 1, every non-target takes exactly one step: T = 1
  // whether or not it lands on the target.
  Graph g = GenerateComplete(3);
  TransitionDp dp(&g, 1);
  auto h = dp.HittingTimesToNode(2);
  EXPECT_DOUBLE_EQ(h[0], 1.0);
  EXPECT_DOUBLE_EQ(h[1], 1.0);
}

TEST(HittingTimeDpTest, EmptySetGivesLEverywhere) {
  Graph g = GenerateCycle(5);
  TransitionDp dp(&g, 7);
  NodeFlagSet empty(5);
  auto h = dp.HittingTimesToSet(empty);
  for (double value : h) EXPECT_DOUBLE_EQ(value, 7.0);
  EXPECT_DOUBLE_EQ(dp.F1(empty), 0.0);  // F1(empty) = 0 (Theorem 3.1).
}

TEST(HittingTimeDpTest, ZeroLengthIsZero) {
  Graph g = GeneratePath(4);
  TransitionDp dp(&g, 0);
  NodeFlagSet s(4, {3});
  auto h = dp.HittingTimesToSet(s);
  for (double value : h) EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(HittingTimeDpTest, IsolatedNodeNeverHits) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  Graph g = std::move(builder).BuildOrDie();
  TransitionDp dp(&g, 6);
  NodeFlagSet s(3, {0});
  auto h = dp.HittingTimesToSet(s);
  EXPECT_DOUBLE_EQ(h[2], 6.0);  // Isolated: truncated at L.
  EXPECT_DOUBLE_EQ(h[1], 1.0);
}

TEST(HittingTimeDpTest, BoundedByL) {
  auto graph = GenerateBarabasiAlbert(60, 2, 31);
  ASSERT_TRUE(graph.ok());
  for (int32_t length : {1, 3, 8}) {
    TransitionDp dp(&*graph, length);
    NodeFlagSet s(60, {0, 17, 42});
    for (double value : dp.HittingTimesToSet(s)) {
      EXPECT_GE(value, 0.0);
      EXPECT_LE(value, static_cast<double>(length));
    }
  }
}

TEST(HittingTimeDpTest, MonotoneNondecreasingInL) {
  Graph g = GenerateTwoCliquesBridge(4);
  NodeFlagSet s(8, {5});
  std::vector<double> previous(8, 0.0);
  for (int32_t length = 0; length <= 6; ++length) {
    TransitionDp dp(&g, length);
    auto h = dp.HittingTimesToSet(s);
    for (NodeId u = 0; u < 8; ++u) {
      EXPECT_GE(h[u] + 1e-12, previous[u])
          << "L=" << length << " u=" << u;
    }
    previous = h;
  }
}

TEST(HittingTimeDpTest, SupersetNeverSlower) {
  // Eq. (14): S subset of T implies h_uT <= h_uS for all u outside T.
  auto graph = GenerateBarabasiAlbert(40, 2, 33);
  ASSERT_TRUE(graph.ok());
  TransitionDp dp(&*graph, 5);
  NodeFlagSet small(40, {3, 9});
  NodeFlagSet large(40, {3, 9, 20, 31});
  auto h_small = dp.HittingTimesToSet(small);
  auto h_large = dp.HittingTimesToSet(large);
  for (NodeId u = 0; u < 40; ++u) {
    if (large.Contains(u)) continue;
    EXPECT_LE(h_large[u], h_small[u] + 1e-12) << "u=" << u;
  }
}

TEST(HittingTimeDpTest, PlusVariantMatchesMaterializedUnion) {
  auto graph = GenerateBarabasiAlbert(30, 2, 35);
  ASSERT_TRUE(graph.ok());
  TransitionDp dp(&*graph, 4);
  NodeFlagSet s(30, {2, 11});
  NodeFlagSet s_union(30, {2, 11, 17});
  auto via_plus = dp.HittingTimesToSetPlus(s, 17);
  auto via_union = dp.HittingTimesToSet(s_union);
  for (NodeId u = 0; u < 30; ++u) {
    EXPECT_DOUBLE_EQ(via_plus[u], via_union[u]);
  }
  EXPECT_DOUBLE_EQ(dp.F1Plus(s, 17), dp.F1(s_union));
}

// Parameterized sweep: DP recurrence (Theorem 2.2) vs definition-based
// enumeration (Eq. 3) across several small graphs and lengths.
class HittingTimeBruteForceTest
    : public testing::TestWithParam<std::tuple<int, int32_t>> {};

TEST_P(HittingTimeBruteForceTest, DpMatchesDefinition) {
  const auto [graph_id, length] = GetParam();
  Graph g;
  switch (graph_id) {
    case 0:
      g = GeneratePath(5);
      break;
    case 1:
      g = GenerateCycle(5);
      break;
    case 2:
      g = GenerateStar(5);
      break;
    case 3:
      g = GenerateComplete(4);
      break;
    default:
      g = GenerateTwoCliquesBridge(3);
  }
  NodeFlagSet s(g.num_nodes(), {0, g.num_nodes() - 1});
  TransitionDp dp(&g, length);
  auto h = dp.HittingTimesToSet(s);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(h[u], BruteForceHittingTime(g, u, s, length), 1e-9)
        << "graph=" << graph_id << " L=" << length << " u=" << u;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGraphSweep, HittingTimeBruteForceTest,
                         testing::Combine(testing::Range(0, 5),
                                          testing::Values(1, 2, 3, 5)));

TEST(HittingTimeDpTest, MatrixMatchesPerTargetRuns) {
  Graph g = GeneratePaperFigure1();
  TransitionDp dp(&g, 3);
  auto matrix = dp.HittingTimeMatrix();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto column = dp.HittingTimesToNode(v);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_DOUBLE_EQ(matrix[u][v], column[u]);
    }
    EXPECT_DOUBLE_EQ(matrix[v][v], 0.0);
  }
}

}  // namespace
}  // namespace rwdom
