#include "eval/metrics.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/node_set.h"
#include "walk/transition_dp.h"

namespace rwdom {
namespace {

TEST(ExactMetricsTest, StarWithHubSeed) {
  Graph g = GenerateStar(6);
  MetricsResult metrics = ExactMetrics(g, {0}, 4);
  // Every leaf hits the hub in exactly 1 hop.
  EXPECT_DOUBLE_EQ(metrics.aht, 1.0);
  EXPECT_DOUBLE_EQ(metrics.ehn, 6.0);
}

TEST(ExactMetricsTest, EmptySelection) {
  Graph g = GenerateCycle(5);
  const int32_t length = 3;
  MetricsResult metrics = ExactMetrics(g, {}, length);
  EXPECT_DOUBLE_EQ(metrics.aht, static_cast<double>(length));
  EXPECT_DOUBLE_EQ(metrics.ehn, 0.0);
}

TEST(ExactMetricsTest, FullSelection) {
  Graph g = GenerateCycle(4);
  MetricsResult metrics = ExactMetrics(g, {0, 1, 2, 3}, 5);
  EXPECT_DOUBLE_EQ(metrics.aht, 0.0);  // No free nodes.
  EXPECT_DOUBLE_EQ(metrics.ehn, 4.0);
}

TEST(ExactMetricsTest, MatchesDpDirectly) {
  auto graph = GenerateBarabasiAlbert(40, 3, 141);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 5;
  std::vector<NodeId> selected = {1, 9, 27};
  MetricsResult metrics = ExactMetrics(*graph, selected, length);

  NodeFlagSet s(40, selected);
  TransitionDp dp(&*graph, length);
  auto h = dp.HittingTimesToSet(s);
  double total = 0.0;
  for (NodeId u = 0; u < 40; ++u) {
    if (!s.Contains(u)) total += h[u];
  }
  EXPECT_NEAR(metrics.aht, total / (40.0 - 3.0), 1e-9);

  EXPECT_NEAR(metrics.ehn, dp.F2(s), 1e-9);
}

TEST(SampledMetricsTest, ConvergesToExact) {
  auto graph = GenerateBarabasiAlbert(50, 3, 143);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 6;
  std::vector<NodeId> selected = {0, 13, 31};
  MetricsResult exact = ExactMetrics(*graph, selected, length);
  // Paper protocol: R = 500.
  MetricsResult sampled = SampledMetrics(*graph, selected, length, 2000, 9);
  EXPECT_NEAR(sampled.aht / exact.aht, 1.0, 0.05);
  EXPECT_NEAR(sampled.ehn / exact.ehn, 1.0, 0.05);
}

TEST(SampledMetricsTest, DeterministicInSeed) {
  auto graph = GenerateBarabasiAlbert(30, 2, 145);
  ASSERT_TRUE(graph.ok());
  MetricsResult a = SampledMetrics(*graph, {0, 5}, 4, 50, 7);
  MetricsResult b = SampledMetrics(*graph, {0, 5}, 4, 50, 7);
  EXPECT_DOUBLE_EQ(a.aht, b.aht);
  EXPECT_DOUBLE_EQ(a.ehn, b.ehn);
}

TEST(MetricsTest, BetterSeedsImproveBothMetrics) {
  // Seeds from a hub-heavy pick should beat a random leaf set on both
  // metrics of a star-like graph.
  Graph g = GenerateStar(20);
  MetricsResult hub = ExactMetrics(g, {0}, 4);
  MetricsResult leaf = ExactMetrics(g, {7}, 4);
  EXPECT_LT(hub.aht, leaf.aht);
  EXPECT_GT(hub.ehn, leaf.ehn);
}

}  // namespace
}  // namespace rwdom
