#include "wgraph/weighted_graph.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "walk/walk.h"
#include "walk/walk_source.h"
#include "wgraph/weighted_transition_model.h"

namespace rwdom {
namespace {

TEST(WeightedGraphTest, BasicDirectedConstruction) {
  WeightedGraphBuilder builder(3);
  builder.AddArc(0, 1, 2.0);
  builder.AddArc(0, 2, 1.0);
  builder.AddArc(1, 2, 4.0);
  WeightedGraph g = std::move(builder).BuildOrDie();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_arcs(), 3);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.out_degree(2), 0);  // Sink.
  EXPECT_DOUBLE_EQ(g.total_out_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(g.total_out_weight(2), 0.0);
  auto arcs = g.out_arcs(0);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0], (Arc{1, 2.0}));
  EXPECT_EQ(arcs[1], (Arc{2, 1.0}));
}

TEST(WeightedGraphTest, ParallelArcsMergeBySummingWeights) {
  WeightedGraphBuilder builder(2);
  builder.AddArc(0, 1, 1.5);
  builder.AddArc(0, 1, 2.5);
  WeightedGraph g = std::move(builder).BuildOrDie();
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_DOUBLE_EQ(g.out_arcs(0)[0].weight, 4.0);
}

TEST(WeightedGraphTest, UndirectedEdgeAddsBothArcs) {
  WeightedGraphBuilder builder(2);
  builder.AddUndirectedEdge(0, 1, 3.0);
  WeightedGraph g = std::move(builder).BuildOrDie();
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_DOUBLE_EQ(g.total_out_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(g.total_out_weight(1), 3.0);
}

TEST(WeightedGraphTest, RejectsSelfLoopsAndBadWeights) {
  {
    WeightedGraphBuilder builder(2);
    builder.AddArc(1, 1, 1.0);
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  {
    WeightedGraphBuilder builder(2);
    builder.AddArc(0, 1, 0.0);
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  {
    WeightedGraphBuilder builder(2);
    builder.AddArc(0, 1, -2.0);
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
}

TEST(WeightedGraphTest, FromUnweightedPreservesStructure) {
  Graph g = GeneratePaperFigure1();
  WeightedGraph wg = WeightedGraph::FromUnweighted(g);
  EXPECT_EQ(wg.num_nodes(), g.num_nodes());
  EXPECT_EQ(wg.num_arcs(), 2 * g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(wg.out_degree(u), g.degree(u));
    EXPECT_DOUBLE_EQ(wg.total_out_weight(u),
                     static_cast<double>(g.degree(u)));
  }
}

TEST(WeightedWalkSourceTest, WalksFollowArcs) {
  WeightedGraphBuilder builder(4);
  builder.AddUndirectedEdge(0, 1, 1.0);
  builder.AddUndirectedEdge(1, 2, 1.0);
  builder.AddUndirectedEdge(2, 3, 1.0);
  WeightedGraph wg = std::move(builder).BuildOrDie();
  WeightedTransitionModel model(&wg);
  TransitionWalkSource source(&model, 5);
  EXPECT_EQ(source.num_nodes(), 4);
  std::vector<NodeId> walk;
  for (uint64_t stream = 0; stream < 20; ++stream) {
    source.SampleWalkStream(0, stream, 6, &walk);
    ASSERT_EQ(walk.size(), 7u);
    EXPECT_EQ(walk.front(), 0);
    for (size_t j = 1; j < walk.size(); ++j) {
      // Every consecutive pair must be an arc of the path graph.
      EXPECT_EQ(std::abs(walk[j] - walk[j - 1]), 1);
    }
  }
}

TEST(WeightedWalkSourceTest, SinkEndsWalkEarly) {
  WeightedGraphBuilder builder(3);
  builder.AddArc(0, 1, 1.0);
  builder.AddArc(1, 2, 1.0);  // 2 is a sink.
  WeightedGraph wg = std::move(builder).BuildOrDie();
  WeightedTransitionModel model(&wg);
  TransitionWalkSource source(&model, 3);
  std::vector<NodeId> walk;
  source.SampleWalkStream(0, 0, 10, &walk);
  EXPECT_EQ(walk, (std::vector<NodeId>{0, 1, 2}));
}

TEST(WeightedWalkSourceTest, HeavyArcDominatesStepChoice) {
  // From node 0: weight 99 toward 1, weight 1 toward 2.
  WeightedGraphBuilder builder(3);
  builder.AddArc(0, 1, 99.0);
  builder.AddArc(0, 2, 1.0);
  WeightedGraph wg = std::move(builder).BuildOrDie();
  WeightedTransitionModel model(&wg);
  TransitionWalkSource source(&model, 7);
  std::vector<NodeId> walk;
  int toward_heavy = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    source.SampleWalkStream(0, static_cast<uint64_t>(i), 1, &walk);
    toward_heavy += walk[1] == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(toward_heavy) / kTrials, 0.99, 0.01);
}

TEST(WeightedWalkSourceTest, DeterministicInSeed) {
  WeightedGraph wg =
      WeightedGraph::FromUnweighted(GenerateCycle(12));
  WeightedTransitionModel model(&wg);
  TransitionWalkSource a(&model, 9), b(&model, 9);
  std::vector<NodeId> wa, wb;
  for (uint64_t stream = 0; stream < 10; ++stream) {
    a.SampleWalkStream(3, stream, 8, &wa);
    b.SampleWalkStream(3, stream, 8, &wb);
    EXPECT_EQ(wa, wb);
  }
}

}  // namespace
}  // namespace rwdom
