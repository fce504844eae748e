#include "core/objective.h"

#include <gtest/gtest.h>

#include "core/exact_objective.h"
#include "core/sampled_objective.h"
#include "graph/generators.h"
#include "walk/transition_dp.h"

namespace rwdom {
namespace {

TEST(ExactObjectiveTest, MatchesUnderlyingDp) {
  Graph g = GeneratePaperFigure1();
  const int32_t length = 4;
  ExactObjective f1(&g, Problem::kHittingTime, length);
  ExactObjective f2(&g, Problem::kDominatedCount, length);
  TransitionDp dp(&g, length);

  NodeFlagSet s(8, {1, 6});
  EXPECT_DOUBLE_EQ(f1.Value(s), dp.F1(s));
  EXPECT_DOUBLE_EQ(f2.Value(s), dp.F2(s));
  EXPECT_EQ(f1.universe_size(), 8);
  EXPECT_EQ(f1.name(), "F1-exact");
  EXPECT_EQ(f2.name(), "F2-exact");
}

TEST(ExactObjectiveTest, EmptySetIsZero) {
  Graph g = GenerateCycle(6);
  NodeFlagSet empty(6);
  EXPECT_DOUBLE_EQ(
      ExactObjective(&g, Problem::kHittingTime, 5).Value(empty), 0.0);
  EXPECT_DOUBLE_EQ(
      ExactObjective(&g, Problem::kDominatedCount, 5).Value(empty), 0.0);
}

TEST(ExactObjectiveTest, ValueWithExtraMatchesDefaultImplementation) {
  auto graph = GenerateBarabasiAlbert(30, 2, 81);
  ASSERT_TRUE(graph.ok());
  for (Problem problem :
       {Problem::kHittingTime, Problem::kDominatedCount}) {
    ExactObjective objective(&*graph, problem, 4);
    NodeFlagSet s(30, {3, 12});
    for (NodeId u : {0, 7, 29}) {
      // Default (copy-based) path through the base class:
      double via_base = objective.Objective::ValueWithExtra(s, u);
      EXPECT_NEAR(objective.ValueWithExtra(s, u), via_base, 1e-9);
    }
  }
}

TEST(ExactObjectiveTest, MarginalGainIsConsistent) {
  Graph g = GenerateStar(6);
  ExactObjective objective(&g, Problem::kDominatedCount, 3);
  NodeFlagSet s(6);
  double empty_value = objective.Value(s);
  // Adding the hub of a star dominates everyone in <= 1 step.
  double hub_gain = objective.MarginalGain(s, empty_value, 0);
  double leaf_gain = objective.MarginalGain(s, empty_value, 1);
  EXPECT_GT(hub_gain, leaf_gain);
  EXPECT_DOUBLE_EQ(hub_gain, 6.0);  // All nodes hit the hub.
}

TEST(SampledObjectiveTest, TracksExactOnSmallGraph) {
  auto graph = GenerateBarabasiAlbert(40, 3, 83);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 5;
  NodeFlagSet s(40, {0, 11});
  for (Problem problem :
       {Problem::kHittingTime, Problem::kDominatedCount}) {
    ExactObjective exact(&*graph, problem, length);
    SampledObjective sampled(&*graph, problem, length, /*num_samples=*/3000,
                             /*seed=*/7);
    EXPECT_NEAR(sampled.Value(s) / exact.Value(s), 1.0, 0.03)
        << ProblemName(problem);
  }
}

TEST(SampledObjectiveTest, NameAndUniverse) {
  Graph g = GenerateCycle(5);
  SampledObjective objective(&g, Problem::kHittingTime, 3, 10, 1);
  EXPECT_EQ(objective.name(), "F1-sampled");
  EXPECT_EQ(objective.universe_size(), 5);
  EXPECT_EQ(objective.length(), 3);
  EXPECT_EQ(objective.num_samples(), 10);
}

}  // namespace
}  // namespace rwdom
