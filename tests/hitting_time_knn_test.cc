#include "walk/hitting_time_knn.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/generators.h"
#include "walk/transition_dp.h"
#include "wgraph/substrate.h"

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
  UniformTransitionModel model(&g);
  auto sampled = SampledHittingTimeKnn(model, 9, query, 4, 6, 400);
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
  UniformTransitionModel model(&*graph);
  auto sampled = SampledHittingTimeKnn(model, 11, query, 24, length, 3000);
  for (const auto& row : sampled) {
    EXPECT_NEAR(row.hitting_time, exact[static_cast<size_t>(row.node)],
                0.12)
        << row.node;
  }
}

TEST(SampledKnnTest, RowsArePinnedOnUniformAndWeightedDirectedSubstrates) {
  // Exact rows at a fixed seed. The walks come from one Rng(seed), node by
  // node in id order, so any change to that sequence moves these values.
  // R = 32 keeps every estimate an exact binary fraction.
  GraphSubstrate uniform(GenerateBarabasiAlbert(40, 2, 505).value());
  GraphSubstrate directed(
      AttachRandomWeights(*uniform.graph(), 7, /*directed=*/true),
      /*directed=*/true);
  ASSERT_EQ(directed.kind(), "weighted-directed");
  using Rows = std::vector<std::pair<NodeId, double>>;
  auto rows_of = [](const GraphSubstrate& substrate) {
    Rows rows;
    for (const HittingTimeNeighbor& row :
         SampledHittingTimeKnn(substrate.model(), /*seed=*/2024,
                               /*query=*/3, /*k=*/5, /*length=*/6,
                               /*num_samples=*/32)) {
      rows.emplace_back(row.node, row.hitting_time);
    }
    return rows;
  };
  EXPECT_EQ(rows_of(uniform), (Rows{{11, 3.15625},
                                    {2, 3.65625},
                                    {20, 3.6875},
                                    {7, 4.25},
                                    {9, 5.0}}));
  EXPECT_EQ(rows_of(directed), (Rows{{11, 3.0625},
                                     {2, 4.0625},
                                     {7, 4.375},
                                     {9, 4.71875},
                                     {4, 5.0625}}));
}

}  // namespace
}  // namespace rwdom
