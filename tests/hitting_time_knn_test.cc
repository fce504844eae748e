#include "walk/hitting_time_knn.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "walk/transition_dp.h"

namespace rwdom {
namespace {

TEST(ExactKnnTest, PathNeighborsOrderedByDistance) {
  // On a path 0-1-2-3-4 with query 0, expected hitting times increase with
  // hop distance, so kNN order is 1, 2, 3, 4.
  Graph g = GeneratePath(5);
  auto knn = ExactHittingTimeKnn(g, /*query=*/0, /*k=*/4, /*length=*/8);
  ASSERT_EQ(knn.size(), 4u);
  EXPECT_EQ(knn[0].node, 1);
  EXPECT_EQ(knn[1].node, 2);
  EXPECT_EQ(knn[2].node, 3);
  EXPECT_EQ(knn[3].node, 4);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_GE(knn[i].hitting_time, knn[i - 1].hitting_time);
  }
}

TEST(ExactKnnTest, StarLeavesAreEquidistantFromHub) {
  Graph g = GenerateStar(6);
  auto knn = ExactHittingTimeKnn(g, /*query=*/0, /*k=*/5, /*length=*/4);
  ASSERT_EQ(knn.size(), 5u);
  for (const auto& row : knn) {
    EXPECT_DOUBLE_EQ(row.hitting_time, 1.0);  // Every leaf: one hop.
  }
  // Ties break toward lower ids.
  EXPECT_EQ(knn[0].node, 1);
  EXPECT_EQ(knn[4].node, 5);
}

TEST(ExactKnnTest, ExcludesQueryAndCapsAtN) {
  Graph g = GenerateCycle(4);
  auto knn = ExactHittingTimeKnn(g, 2, 100, 5);
  ASSERT_EQ(knn.size(), 3u);
  for (const auto& row : knn) EXPECT_NE(row.node, 2);
}

TEST(ExactKnnTest, KZeroIsEmpty) {
  Graph g = GenerateCycle(5);
  EXPECT_TRUE(ExactHittingTimeKnn(g, 0, 0, 3).empty());
}

TEST(ExactKnnTest, ValuesMatchDpColumn) {
  auto graph = GenerateBarabasiAlbert(30, 2, 501);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 5;
  const NodeId query = 7;
  TransitionDp dp(&*graph, length);
  auto column = dp.HittingTimesToNode(query);
  auto knn = ExactHittingTimeKnn(*graph, query, 10, length);
  for (const auto& row : knn) {
    EXPECT_DOUBLE_EQ(row.hitting_time,
                     column[static_cast<size_t>(row.node)]);
  }
}

TEST(SampledKnnTest, AgreesWithExactOnWellSeparatedGraph) {
  // Two cliques joined by a bridge: nodes on the query's side have much
  // smaller hitting times, so even a sampled ranking keeps the sides apart.
  Graph g = GenerateTwoCliquesBridge(5);  // Nodes 0-4 | 5-9, bridge 0-5.
  const NodeId query = 2;                 // Inside clique A.
  RandomWalkSource source(&g, 9);
  auto sampled = SampledHittingTimeKnn(&source, query, 4, 6, 400);
  ASSERT_EQ(sampled.size(), 4u);
  for (const auto& row : sampled) {
    EXPECT_LT(row.node, 5) << "clique-A node expected in top 4";
  }
}

TEST(SampledKnnTest, EstimatesConvergeToExact) {
  auto graph = GenerateBarabasiAlbert(25, 2, 503);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 4;
  const NodeId query = 3;
  TransitionDp dp(&*graph, length);
  auto exact = dp.HittingTimesToNode(query);
  RandomWalkSource source(&*graph, 11);
  auto sampled = SampledHittingTimeKnn(&source, query, 24, length, 3000);
  for (const auto& row : sampled) {
    EXPECT_NEAR(row.hitting_time, exact[static_cast<size_t>(row.node)],
                0.12)
        << row.node;
  }
}

}  // namespace
}  // namespace rwdom
