#include "index/gain_state.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "walk/sampled_evaluator.h"
#include "walk/walk_source.h"

namespace rwdom {
namespace {

// Reference D value for Problem 1 straight from the definition: the
// truncated first-hit time of v's i-th walk (stream i) against S.
int32_t ReferenceHitTime(const std::vector<NodeId>& walk,
                         const NodeFlagSet& s, int32_t length) {
  for (size_t t = 0; t < walk.size(); ++t) {
    if (s.Contains(walk[t])) return static_cast<int32_t>(t);
  }
  return length;
}

// Reference indicator for Problem 2: a hit at exactly hop L still counts
// as a hit (X = 1), even though the truncated hitting time equals L.
bool ReferenceHit(const std::vector<NodeId>& walk, const NodeFlagSet& s) {
  for (NodeId position : walk) {
    if (s.Contains(position)) return true;
  }
  return false;
}

class GainStateRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(GainStateRandomTest, DArrayTracksRecordedWalks) {
  const uint64_t seed = GetParam();
  auto graph = GenerateBarabasiAlbert(35, 3, seed);
  ASSERT_TRUE(graph.ok());
  const NodeId n = graph->num_nodes();
  const int32_t length = 5;
  const int32_t replicates = 4;
  RandomWalkSource source(&*graph, seed * 31 + 7);
  InvertedWalkIndex index =
      InvertedWalkIndex::Build(length, replicates, &source);

  GainState state_p1(&index, Problem::kHittingTime);
  GainState state_p2(&index, Problem::kDominatedCount);
  NodeFlagSet selected(n);

  // Commit a few nodes and re-derive every D entry from the raw walks.
  std::vector<NodeId> walk;
  for (NodeId pick : std::vector<NodeId>{3, 17, 0}) {
    state_p1.Commit(pick);
    state_p2.Commit(pick);
    selected.Insert(pick);
    for (int32_t i = 0; i < replicates; ++i) {
      for (NodeId v = 0; v < n; ++v) {
        source.SampleWalkStream(v, static_cast<uint64_t>(i), length, &walk);
        int32_t expected = ReferenceHitTime(walk, selected, length);
        EXPECT_EQ(state_p1.DValue(i, v), expected)
            << "P1 replicate " << i << " node " << v;
        EXPECT_EQ(state_p2.DValue(i, v), ReferenceHit(walk, selected) ? 1 : 0)
            << "P2 replicate " << i << " node " << v;
      }
    }
  }
}

TEST_P(GainStateRandomTest, ApproxGainIsExactMarginalOfSampleEstimate) {
  // ApproxGain must equal F̂(S ∪ {u}) - F̂(S) computed on the same
  // materialized walks (for Problem 1 both sides evaluated from D).
  const uint64_t seed = GetParam();
  auto graph = GenerateBarabasiAlbert(30, 2, seed + 1000);
  ASSERT_TRUE(graph.ok());
  const NodeId n = graph->num_nodes();
  const int32_t length = 4;
  RandomWalkSource source(&*graph, seed);
  InvertedWalkIndex index = InvertedWalkIndex::Build(length, 3, &source);

  for (Problem problem :
       {Problem::kHittingTime, Problem::kDominatedCount}) {
    GainState state(&index, problem);
    state.Commit(5);
    double before = state.EstimatedObjective();
    for (NodeId u = 0; u < n; ++u) {
      if (u == 5) continue;
      double gain = state.ApproxGain(u);
      // Compute F̂ after committing u on a fresh twin state.
      GainState twin(&index, problem);
      twin.Commit(5);
      twin.Commit(u);
      EXPECT_NEAR(gain, twin.EstimatedObjective() - before, 1e-9)
          << ProblemName(problem) << " u=" << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GainStateRandomTest,
                         testing::Values(1, 2, 3, 4, 5));

TEST(GainStateTest, InitialStateMatchesEmptySet) {
  Graph g = GenerateCycle(6);
  RandomWalkSource source(&g, 3);
  InvertedWalkIndex index = InvertedWalkIndex::Build(4, 2, &source);

  GainState p1(&index, Problem::kHittingTime);
  EXPECT_DOUBLE_EQ(p1.EstimatedObjective(), 0.0);  // F1(empty) = 0.
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(p1.DValue(0, v), 4);
    EXPECT_EQ(p1.DValue(1, v), 4);
  }

  GainState p2(&index, Problem::kDominatedCount);
  EXPECT_DOUBLE_EQ(p2.EstimatedObjective(), 0.0);  // F2(empty) = 0.
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(p2.DValue(0, v), 0);
}

TEST(GainStateTest, DoubleCommitDies) {
  Graph g = GenerateCycle(4);
  RandomWalkSource source(&g, 3);
  InvertedWalkIndex index = InvertedWalkIndex::Build(2, 1, &source);
  GainState state(&index, Problem::kHittingTime);
  state.Commit(1);
  EXPECT_DEATH(state.Commit(1), "committed twice");
}

TEST(GainStateTest, GainsAreNonNegativeAndShrink) {
  // Submodularity on the materialized sample: the gain of a fixed node
  // never grows as the set expands.
  auto graph = GenerateBarabasiAlbert(40, 3, 71);
  ASSERT_TRUE(graph.ok());
  RandomWalkSource source(&*graph, 5);
  InvertedWalkIndex index = InvertedWalkIndex::Build(5, 3, &source);
  for (Problem problem :
       {Problem::kHittingTime, Problem::kDominatedCount}) {
    GainState state(&index, problem);
    std::vector<double> before;
    for (NodeId u = 0; u < 40; ++u) before.push_back(state.ApproxGain(u));
    state.Commit(8);
    state.Commit(23);
    for (NodeId u = 0; u < 40; ++u) {
      if (u == 8 || u == 23) continue;
      double after = state.ApproxGain(u);
      EXPECT_GE(after, -1e-12);
      EXPECT_LE(after, before[static_cast<size_t>(u)] + 1e-12)
          << ProblemName(problem) << " u=" << u;
    }
  }
}

TEST(GainStateTest, EstimatedObjectiveMatchesAlgorithm2OnSameWalks) {
  // Index replicate i and evaluator sample i are the same stream walk, so
  // the index's F̂ and Algorithm 2's F̂ on one source must agree exactly.
  auto graph = GenerateBarabasiAlbert(25, 2, 73);
  ASSERT_TRUE(graph.ok());
  const NodeId n = graph->num_nodes();
  const int32_t length = 4;
  const int32_t replicates = 5;
  RandomWalkSource source(&*graph, 17);
  InvertedWalkIndex index =
      InvertedWalkIndex::Build(length, replicates, &source);

  std::vector<NodeId> picks = {2, 19};
  GainState p1(&index, Problem::kHittingTime);
  GainState p2(&index, Problem::kDominatedCount);
  for (NodeId u : picks) {
    p1.Commit(u);
    p2.Commit(u);
  }

  SampledEvaluator evaluator(length, replicates);
  SampledObjectives via_alg2 = evaluator.Evaluate(NodeFlagSet(n, picks),
                                                  &source);

  EXPECT_NEAR(p1.EstimatedObjective(), via_alg2.f1, 1e-9);
  EXPECT_NEAR(p2.EstimatedObjective(), via_alg2.f2, 1e-9);
}

}  // namespace
}  // namespace rwdom
