#include "walk/transition_dp.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace rwdom {
namespace {

// Definition-based brute force for p^L_uS: probability that an L-length
// walk from u visits S.
double BruteForceHitProbability(const Graph& g, NodeId u, const NodeFlagSet& s,
                                int32_t remaining) {
  if (s.Contains(u)) return 1.0;
  if (remaining == 0) return 0.0;
  auto adj = g.neighbors(u);
  if (adj.empty()) return 0.0;
  double p = 0.0;
  for (NodeId w : adj) {
    p += BruteForceHitProbability(g, w, s, remaining - 1);
  }
  return p / static_cast<double>(adj.size());
}

TEST(HitProbabilityDpTest, TwoNodePathAlwaysHits) {
  Graph g = GeneratePath(2);
  TransitionDp dp(&g, 1);
  auto p = dp.HitProbabilitiesToNode(1);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

TEST(HitProbabilityDpTest, ThreeNodePathHandComputed) {
  Graph g = GeneratePath(3);
  TransitionDp dp(&g, 2);
  auto p = dp.HitProbabilitiesToNode(2);
  EXPECT_DOUBLE_EQ(p[0], 0.5);  // Forced to 1, then coin flip.
  EXPECT_DOUBLE_EQ(p[1], 0.5);  // Coin flip at the first step.
}

TEST(HitProbabilityDpTest, CliqueSingleStep) {
  Graph g = GenerateComplete(3);
  TransitionDp dp(&g, 1);
  auto p = dp.HitProbabilitiesToNode(2);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

TEST(HitProbabilityDpTest, EmptySetIsZeroAndF2Zero) {
  Graph g = GenerateCycle(6);
  TransitionDp dp(&g, 4);
  NodeFlagSet empty(6);
  auto p = dp.HitProbabilities(empty);
  for (double value : p) EXPECT_DOUBLE_EQ(value, 0.0);
  EXPECT_DOUBLE_EQ(dp.F2(empty), 0.0);  // F2(empty) = 0 (Theorem 3.2).
}

TEST(HitProbabilityDpTest, FullSetDominatesEverything) {
  Graph g = GenerateCycle(4);
  TransitionDp dp(&g, 3);
  NodeFlagSet all(4, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(dp.F2(all), 4.0);
}

TEST(HitProbabilityDpTest, ZeroLengthIsMembershipIndicator) {
  Graph g = GeneratePath(4);
  TransitionDp dp(&g, 0);
  NodeFlagSet s(4, {1});
  auto p = dp.HitProbabilities(s);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
}

TEST(HitProbabilityDpTest, IsolatedNodeNeverHits) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  Graph g = std::move(builder).BuildOrDie();
  TransitionDp dp(&g, 5);
  NodeFlagSet s(3, {0});
  auto p = dp.HitProbabilities(s);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

TEST(HitProbabilityDpTest, ProbabilitiesAreProbabilities) {
  auto graph = GenerateBarabasiAlbert(50, 3, 41);
  ASSERT_TRUE(graph.ok());
  TransitionDp dp(&*graph, 6);
  NodeFlagSet s(50, {5, 25});
  for (double value : dp.HitProbabilities(s)) {
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 1.0);
  }
}

TEST(HitProbabilityDpTest, MonotoneNondecreasingInL) {
  Graph g = GenerateTwoCliquesBridge(4);
  NodeFlagSet s(8, {7});
  std::vector<double> previous(8, 0.0);
  for (int32_t length = 0; length <= 6; ++length) {
    TransitionDp dp(&g, length);
    auto p = dp.HitProbabilities(s);
    for (NodeId u = 0; u < 8; ++u) {
      EXPECT_GE(p[u] + 1e-12, previous[u]);
    }
    previous = p;
  }
}

TEST(HitProbabilityDpTest, SupersetNeverLess) {
  auto graph = GenerateBarabasiAlbert(40, 2, 43);
  ASSERT_TRUE(graph.ok());
  TransitionDp dp(&*graph, 5);
  NodeFlagSet small(40, {4});
  NodeFlagSet large(40, {4, 22});
  auto p_small = dp.HitProbabilities(small);
  auto p_large = dp.HitProbabilities(large);
  for (NodeId u = 0; u < 40; ++u) {
    EXPECT_GE(p_large[u] + 1e-12, p_small[u]);
  }
}

TEST(HitProbabilityDpTest, PlusVariantMatchesMaterializedUnion) {
  auto graph = GenerateBarabasiAlbert(30, 2, 45);
  ASSERT_TRUE(graph.ok());
  TransitionDp dp(&*graph, 4);
  NodeFlagSet s(30, {6});
  NodeFlagSet s_union(30, {6, 13});
  auto via_plus = dp.HitProbabilitiesPlus(s, 13);
  auto via_union = dp.HitProbabilities(s_union);
  for (NodeId u = 0; u < 30; ++u) {
    EXPECT_DOUBLE_EQ(via_plus[u], via_union[u]);
  }
  EXPECT_DOUBLE_EQ(dp.F2Plus(s, 13), dp.F2(s_union));
}

class HitProbabilityBruteForceTest
    : public testing::TestWithParam<std::tuple<int, int32_t>> {};

TEST_P(HitProbabilityBruteForceTest, DpMatchesDefinition) {
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
  NodeFlagSet s(g.num_nodes(), {1});
  TransitionDp dp(&g, length);
  auto p = dp.HitProbabilities(s);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(p[u], BruteForceHitProbability(g, u, s, length), 1e-9)
        << "graph=" << graph_id << " L=" << length << " u=" << u;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGraphSweep, HitProbabilityBruteForceTest,
                         testing::Combine(testing::Range(0, 5),
                                          testing::Values(1, 2, 3, 5)));

}  // namespace
}  // namespace rwdom
