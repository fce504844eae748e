// Cross-implementation conformance: the same quantity computed through
// independent code paths must agree. Parameterized over graph families and
// seeds so regressions in any one path surface as a disagreement.
//
//   exact DP  <->  Algorithm-2 sampling  <->  inverted-index D-array
//   DP greedy <->  approximate greedy    <->  weighted pipeline (weights=1)
#include <gtest/gtest.h>

#include <cmath>

#include "core/approx_greedy.h"
#include "core/dp_greedy.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "index/gain_state.h"
#include "util/rng.h"
#include "walk/sampled_evaluator.h"
#include "walk/transition_dp.h"
#include "wgraph/weighted_graph.h"
#include "wgraph/weighted_transition_model.h"

namespace rwdom {
namespace {

Graph MakeFamilyGraph(int family, uint64_t seed) {
  switch (family) {
    case 0:
      return GenerateBarabasiAlbert(80, 3, seed).value();
    case 1:
      return GenerateErdosRenyiGnm(80, 320, seed).value();
    case 2:
      return GenerateWattsStrogatz(80, 3, 0.2, seed).value();
    default:
      return GeneratePowerLawCommunity(80, 320, 4, 0.1, seed).value();
  }
}

class ConformanceTest
    : public testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ConformanceTest, SamplingConvergesToDpOnBothObjectives) {
  const auto [family, seed] = GetParam();
  Graph g = MakeFamilyGraph(family, seed);
  const int32_t length = 5;
  NodeFlagSet s(g.num_nodes(), {1, 17, 42});

  TransitionDp dp(&g, length);
  RandomWalkSource source(&g, seed * 13 + 1);
  SampledEvaluator evaluator(length, /*num_samples=*/2500);
  SampledObjectives sampled = evaluator.Evaluate(s, &source);

  EXPECT_NEAR(sampled.f1 / dp.F1(s), 1.0, 0.03)
      << "family " << family;
  EXPECT_NEAR(sampled.f2 / dp.F2(s), 1.0, 0.03)
      << "family " << family;
}

TEST_P(ConformanceTest, IndexEstimateConvergesToDp) {
  // The D-array estimate after commits must converge (in R) to the exact
  // objective — it is Algorithm 2 on materialized walks.
  const auto [family, seed] = GetParam();
  Graph g = MakeFamilyGraph(family, seed);
  const int32_t length = 5;
  RandomWalkSource source(&g, seed * 29 + 5);
  InvertedWalkIndex index = InvertedWalkIndex::Build(length, 800, &source);

  TransitionDp dp(&g, length);
  NodeFlagSet s(g.num_nodes(), {3, 55});

  GainState p1(&index, Problem::kHittingTime);
  GainState p2(&index, Problem::kDominatedCount);
  for (NodeId u : s.members()) {
    p1.Commit(u);
    p2.Commit(u);
  }
  EXPECT_NEAR(p1.EstimatedObjective() / dp.F1(s), 1.0, 0.05);
  EXPECT_NEAR(p2.EstimatedObjective() / dp.F2(s), 1.0, 0.05);
}

TEST_P(ConformanceTest, ApproxSelectionScoresLikeDpSelection) {
  const auto [family, seed] = GetParam();
  Graph g = MakeFamilyGraph(family, seed);
  const int32_t length = 4;
  const int32_t k = 6;
  for (Problem problem :
       {Problem::kHittingTime, Problem::kDominatedCount}) {
    DpGreedy dp(&g, problem, length);
    MetricsResult dp_metrics = ExactMetrics(g, dp.Select(k).selected, length);
    ApproxGreedyOptions options{.length = length,
                                .num_replicates = 200,
                                .seed = seed * 3 + 7,
                                .lazy = true};
    ApproxGreedy approx(&g, problem, options);
    MetricsResult approx_metrics =
        ExactMetrics(g, approx.Select(k).selected, length);
    EXPECT_NEAR(approx_metrics.aht / dp_metrics.aht, 1.0, 0.06)
        << ProblemName(problem) << " family " << family;
    EXPECT_NEAR(approx_metrics.ehn / dp_metrics.ehn, 1.0, 0.06)
        << ProblemName(problem) << " family " << family;
  }
}

TEST_P(ConformanceTest, WeightedPipelineWithUnitWeightsMatchesUnweighted) {
  // The weighted DP with all-ones weights is the unweighted DP; the
  // weighted DP greedy must therefore reproduce the unweighted DP greedy
  // selection exactly (same oracle, same tie-breaking).
  const auto [family, seed] = GetParam();
  Graph g = MakeFamilyGraph(family, seed);
  WeightedGraph wg = WeightedGraph::FromUnweighted(g);
  WeightedTransitionModel model(&wg);
  const int32_t length = 4;
  for (Problem problem :
       {Problem::kHittingTime, Problem::kDominatedCount}) {
    DpGreedy unweighted(&g, problem, length);
    DpGreedy weighted(&model, problem, length);
    EXPECT_EQ(unweighted.Select(5).selected, weighted.Select(5).selected)
        << ProblemName(problem) << " family " << family;
  }
}

INSTANTIATE_TEST_SUITE_P(FamiliesAndSeeds, ConformanceTest,
                         testing::Combine(testing::Range(0, 4),
                                          testing::Values(2u, 9u)));

TEST(ConformanceTest, UniformStepDistributionChiSquare) {
  // The unweighted walker must pick neighbors uniformly: chi-square on the
  // first step out of a degree-6 node.
  Graph g = GenerateStar(7);  // Hub 0, degree 6.
  RandomWalkSource source(&g, 77);
  std::vector<NodeId> walk;
  std::vector<int64_t> counts(7, 0);
  const int kTrials = 60000;
  for (int i = 0; i < kTrials; ++i) {
    source.SampleWalkStream(0, static_cast<uint64_t>(i), 1, &walk);
    ++counts[static_cast<size_t>(walk[1])];
  }
  const double expected = kTrials / 6.0;
  double chi_square = 0.0;
  for (NodeId leaf = 1; leaf < 7; ++leaf) {
    const double diff = static_cast<double>(counts[leaf]) - expected;
    chi_square += diff * diff / expected;
  }
  // 5 degrees of freedom: P(chi2 > 20.5) ~ 0.001.
  EXPECT_LT(chi_square, 20.5);
}

TEST(ConformanceTest, MetricsExactAndSampledAgreeOnSelections) {
  // Close the loop at the metrics layer: the evaluation used in benches
  // (sampled, R=500) matches the DP metrics on real selections.
  Graph g = GeneratePowerLawCommunity(400, 2400, 6, 0.1, 5).value();
  const int32_t length = 6;
  ApproxGreedyOptions options{.length = length,
                              .num_replicates = 100,
                              .seed = 11,
                              .lazy = true};
  ApproxGreedy greedy(&g, Problem::kDominatedCount, options);
  auto selected = greedy.Select(20).selected;
  MetricsResult exact = ExactMetrics(g, selected, length);
  MetricsResult sampled = SampledMetrics(g, selected, length, 2000, 13);
  EXPECT_NEAR(sampled.aht / exact.aht, 1.0, 0.03);
  EXPECT_NEAR(sampled.ehn / exact.ehn, 1.0, 0.03);
}

}  // namespace
}  // namespace rwdom
