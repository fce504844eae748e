#include "walk/walk.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "walk/walk_source.h"

namespace rwdom {
namespace {

TEST(FindFirstHitTest, HitsAtStart) {
  NodeFlagSet targets(4, {0});
  FirstHit hit = FindFirstHit({0, 1, 2}, targets, 2);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.time, 0);
}

TEST(FindFirstHitTest, HitsMidWalk) {
  NodeFlagSet targets(4, {2});
  FirstHit hit = FindFirstHit({0, 1, 2, 1}, targets, 3);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.time, 2);
}

TEST(FindFirstHitTest, MissTruncatesAtBudget) {
  NodeFlagSet targets(4, {3});
  FirstHit hit = FindFirstHit({0, 1, 0, 1}, targets, 3);
  EXPECT_FALSE(hit.hit);
  EXPECT_EQ(hit.time, 3);
}

TEST(FindFirstHitTest, ShortTrajectoryStillTruncatesAtBudget) {
  // Stuck walk (isolated start): trajectory shorter than budget.
  NodeFlagSet targets(4, {3});
  FirstHit hit = FindFirstHit({0}, targets, 5);
  EXPECT_FALSE(hit.hit);
  EXPECT_EQ(hit.time, 5);
}

TEST(FindFirstHitTest, EmptyTargetsNeverHit) {
  NodeFlagSet targets(4);
  FirstHit hit = FindFirstHit({0, 1, 2}, targets, 2);
  EXPECT_FALSE(hit.hit);
  EXPECT_EQ(hit.time, 2);
}

TEST(FindFirstHitOfNodeTest, MatchesSetVariant) {
  FirstHit hit = FindFirstHitOfNode({0, 1, 2, 1}, 1, 3);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.time, 1);
  EXPECT_FALSE(FindFirstHitOfNode({0, 2}, 1, 1).hit);
}

TEST(IsValidTrajectoryTest, AcceptsLegalWalks) {
  Graph g = GeneratePath(4);  // 0-1-2-3.
  EXPECT_TRUE(IsValidTrajectory(g, {0, 1, 2}, 2));
  EXPECT_TRUE(IsValidTrajectory(g, {1, 0, 1, 2}, 3));
}

TEST(IsValidTrajectoryTest, RejectsIllegalWalks) {
  Graph g = GeneratePath(4);
  EXPECT_FALSE(IsValidTrajectory(g, {}, 2));          // Empty.
  EXPECT_FALSE(IsValidTrajectory(g, {0, 2}, 1));      // Not an edge.
  EXPECT_FALSE(IsValidTrajectory(g, {0, 1, 2}, 1));   // Too long.
  EXPECT_FALSE(IsValidTrajectory(g, {0, 1}, 2));      // Short but not stuck.
  EXPECT_FALSE(IsValidTrajectory(g, {0, 9}, 1));      // Bad node id.
}

TEST(IsValidTrajectoryTest, ShortWalkOkOnIsolatedNode) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  Graph g = std::move(builder).BuildOrDie();  // 2 isolated.
  EXPECT_TRUE(IsValidTrajectory(g, {2}, 4));
}

TEST(RandomWalkSourceTest, ProducesValidWalks) {
  auto graph = GenerateBarabasiAlbert(100, 3, 21);
  ASSERT_TRUE(graph.ok());
  RandomWalkSource source(&*graph, 99);
  std::vector<NodeId> walk;
  for (NodeId start = 0; start < 100; start += 7) {
    source.SampleWalkStream(start, static_cast<uint64_t>(start), 5, &walk);
    EXPECT_EQ(walk.front(), start);
    EXPECT_TRUE(IsValidTrajectory(*graph, walk, 5));
    EXPECT_EQ(walk.size(), 6u);  // Connected graph: full length.
  }
}

TEST(RandomWalkSourceTest, DeterministicInSeed) {
  Graph g = GenerateCycle(10);
  RandomWalkSource a(&g, 5), b(&g, 5), c(&g, 6);
  std::vector<NodeId> wa, wb, wc;
  bool any_diff = false;
  for (uint64_t stream = 0; stream < 20; ++stream) {
    a.SampleWalkStream(0, stream, 8, &wa);
    b.SampleWalkStream(0, stream, 8, &wb);
    c.SampleWalkStream(0, stream, 8, &wc);
    EXPECT_EQ(wa, wb);
    any_diff |= (wa != wc);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomWalkSourceTest, IsolatedNodeStaysPut) {
  GraphBuilder builder(2);
  Graph g = std::move(builder).BuildOrDie();
  RandomWalkSource source(&g, 1);
  std::vector<NodeId> walk;
  source.SampleWalkStream(0, 0, 5, &walk);
  EXPECT_EQ(walk, std::vector<NodeId>{0});
}

TEST(RandomWalkSourceTest, ZeroLengthWalkIsJustStart) {
  Graph g = GeneratePath(3);
  RandomWalkSource source(&g, 1);
  std::vector<NodeId> walk;
  source.SampleWalkStream(1, 0, 0, &walk);
  EXPECT_EQ(walk, std::vector<NodeId>{1});
}

TEST(FixedWalkSourceTest, ReplaysInOrder) {
  // Stream i is the i-th walk registered for the start node, on every
  // call: the source is a pure function, so it replays any number of times.
  Graph g = GeneratePath(4);
  FixedWalkSource source(&g);
  source.AddWalk({0, 1, 2}, 2);
  source.AddWalk({0, 1, 0}, 2);
  std::vector<NodeId> walk;
  for (int pass = 0; pass < 2; ++pass) {
    source.SampleWalkStream(0, 1, 2, &walk);
    EXPECT_EQ(walk, (std::vector<NodeId>{0, 1, 0}));
    source.SampleWalkStream(0, 0, 2, &walk);
    EXPECT_EQ(walk, (std::vector<NodeId>{0, 1, 2}));
  }
}

TEST(FixedWalkSourceTest, ExhaustionDies) {
  Graph g = GeneratePath(4);
  FixedWalkSource source(&g);
  source.AddWalk({0, 1, 2}, 2);
  std::vector<NodeId> walk;
  source.SampleWalkStream(0, 0, 2, &walk);
  EXPECT_DEATH(source.SampleWalkStream(0, 1, 2, &walk), "exhausted");
}

TEST(FixedWalkSourceTest, UnregisteredStartDies) {
  Graph g = GeneratePath(4);
  FixedWalkSource source(&g);
  std::vector<NodeId> walk;
  EXPECT_DEATH(source.SampleWalkStream(3, 0, 2, &walk), "no fixed walk");
}

TEST(FixedWalkSourceTest, InvalidWalkRejectedAtRegistration) {
  Graph g = GeneratePath(4);
  FixedWalkSource source(&g);
  EXPECT_DEATH(source.AddWalk({0, 2, 1}, 2), "not a valid walk");
}

}  // namespace
}  // namespace rwdom
