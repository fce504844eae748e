#include "walk/sampled_evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "walk/sample_size.h"
#include "walk/transition_dp.h"
#include "walk/walk.h"

namespace rwdom {
namespace {

TEST(SampledEvaluatorTest, DeterministicWalksGiveExactValues) {
  // On a path of two nodes with S = {1}, every walk hits at step 1: no
  // randomness in the outcome, so the estimate is exact at any R.
  Graph g = GeneratePath(2);
  RandomWalkSource source(&g, 3);
  SampledEvaluator evaluator(/*length=*/3, /*num_samples=*/5);
  NodeFlagSet s(2, {1});
  SampledObjectives result = evaluator.Evaluate(s, &source);
  // F1 = nL - h_0S = 2*3 - 1 = 5; F2 = |S| + p_0 = 1 + 1 = 2.
  EXPECT_DOUBLE_EQ(result.f1, 5.0);
  EXPECT_DOUBLE_EQ(result.f2, 2.0);
}

TEST(SampledEvaluatorTest, FixedWalksReproduceEquations9And10) {
  // Two scripted walks from node 0 on a path 0-1-2 with S = {2}:
  // one hits at t=2, one never hits (budget 2). Eq. 9: ĥ = (2 + 2)/2 = 2...
  // with r=1, t=2, R=2, L=2: (2 + (2-1)*2)/2 = 2. Eq. 10: r/R = 0.5.
  Graph g = GeneratePath(3);
  FixedWalkSource source(&g);
  source.AddWalk({0, 1, 2}, 2);
  source.AddWalk({0, 1, 0}, 2);
  source.AddWalk({1, 2, 1}, 2);  // Hits at t=1 (walk continues past S).
  source.AddWalk({1, 0, 1}, 2);  // Never hits.
  SampledEvaluator evaluator(/*length=*/2, /*num_samples=*/2);
  NodeFlagSet s(3, {2});
  PerNodeEstimates per_node;
  SampledObjectives result =
      evaluator.EvaluateWithPerNode(s, &source, &per_node);
  EXPECT_DOUBLE_EQ(per_node.hitting_time[0], 2.0);
  EXPECT_DOUBLE_EQ(per_node.hit_prob[0], 0.5);
  EXPECT_DOUBLE_EQ(per_node.hitting_time[1], 1.5);  // (1 + 2)/2.
  EXPECT_DOUBLE_EQ(per_node.hit_prob[1], 0.5);
  EXPECT_DOUBLE_EQ(per_node.hitting_time[2], 0.0);  // Member of S.
  EXPECT_DOUBLE_EQ(per_node.hit_prob[2], 1.0);
  // F̂1 = nL - (2 + 1.5) = 6 - 3.5; F̂2 = 1 + 0.5 + 0.5.
  EXPECT_DOUBLE_EQ(result.f1, 2.5);
  EXPECT_DOUBLE_EQ(result.f2, 2.0);
}

TEST(SampledEvaluatorTest, StreamSourceMatchesPerWalkReplay) {
  // The parallel evaluator against Equations 9/10 tallied by hand from
  // the same (node, stream) walks. Node 40 is isolated, so its walks
  // get stuck at Z^0 and never reach S.
  auto er = GenerateErdosRenyiGnm(40, 80, 17);
  ASSERT_TRUE(er.ok());
  GraphBuilder builder(41);
  for (NodeId u = 0; u < er->num_nodes(); ++u) {
    for (NodeId v : er->neighbors(u)) {
      if (u < v) builder.AddEdge(u, v);
    }
  }
  Graph g = std::move(builder).BuildOrDie();
  const NodeId isolated = 40;
  ASSERT_EQ(g.degree(isolated), 0);
  const int32_t length = 5;
  const int32_t samples = 64;  // A power of two, so 1/R scales exactly.
  NodeFlagSet s(g.num_nodes(), {0, 7, 33});

  RandomWalkSource source(&g, 91);
  SampledEvaluator evaluator(length, samples);
  PerNodeEstimates per_node;
  SampledObjectives result =
      evaluator.EvaluateWithPerNode(s, &source, &per_node);

  std::vector<NodeId> walk;
  double total_hitting = 0.0;
  double total_hits = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    double h_hat = 0.0;
    double p_hat = 1.0;
    if (!s.Contains(u)) {
      int64_t hits = 0;
      int64_t time_sum = 0;
      for (int32_t i = 0; i < samples; ++i) {
        source.SampleWalkStream(u, static_cast<uint64_t>(i), length, &walk);
        const FirstHit first = FindFirstHit(walk, s, length);
        if (first.hit) {
          ++hits;
          time_sum += first.time;
        }
      }
      // Eq. 9: a walk that misses S counts the full budget L.
      const int64_t misses = samples - hits;
      h_hat = static_cast<double>(time_sum + misses * length) / samples;
      p_hat = static_cast<double>(hits) / samples;  // Eq. 10.
      total_hitting += h_hat;
      total_hits += p_hat;
    }
    EXPECT_EQ(per_node.hitting_time[static_cast<size_t>(u)], h_hat)
        << "node " << u;
    EXPECT_EQ(per_node.hit_prob[static_cast<size_t>(u)], p_hat) << "node " << u;
  }
  EXPECT_EQ(per_node.hitting_time[isolated], static_cast<double>(length));
  EXPECT_EQ(per_node.hit_prob[isolated], 0.0);
  EXPECT_EQ(result.f1,
            static_cast<double>(g.num_nodes()) * length - total_hitting);
  EXPECT_EQ(result.f2, static_cast<double>(s.size()) + total_hits);
}

TEST(SampledEvaluatorTest, ConvergesToExactDp) {
  auto graph = GenerateBarabasiAlbert(60, 3, 51);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 5;
  NodeFlagSet s(60, {0, 7, 33});

  TransitionDp dp(&*graph, length);
  const double exact_f1 = dp.F1(s);
  const double exact_f2 = dp.F2(s);

  RandomWalkSource source(&*graph, 77);
  SampledEvaluator evaluator(length, /*num_samples=*/4000);
  SampledObjectives estimate = evaluator.Evaluate(s, &source);

  // Hoeffding at R=4000: per-node deviation ~ L*sqrt(log/2R) is tiny;
  // test with generous slack on the aggregate.
  EXPECT_NEAR(estimate.f1 / exact_f1, 1.0, 0.02);
  EXPECT_NEAR(estimate.f2 / exact_f2, 1.0, 0.02);
}

TEST(SampledEvaluatorTest, EstimatesWithinHoeffdingEnvelope) {
  // Lemma 3.3-style check: repeat independent estimates; the deviation
  // |F̂1 - F1| should exceed eps*(n-|S|)*L in at most ~delta of runs.
  auto graph = GenerateBarabasiAlbert(30, 2, 53);
  ASSERT_TRUE(graph.ok());
  const int32_t length = 4;
  NodeFlagSet s(30, {0, 9});
  TransitionDp dp(&*graph, length);
  const double exact_f1 = dp.F1(s);

  const double eps = 0.1;
  const double delta = 0.05;
  const int32_t samples = static_cast<int32_t>(
      SampleSizeForF1(30 - 2, eps, delta));
  SampledEvaluator evaluator(length, samples);
  const double envelope = eps * (30.0 - 2.0) * static_cast<double>(length);

  int violations = 0;
  const int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    RandomWalkSource source(&*graph, 1000 + static_cast<uint64_t>(trial));
    SampledObjectives estimate = evaluator.Evaluate(s, &source);
    if (std::abs(estimate.f1 - exact_f1) >= envelope) ++violations;
  }
  // Expected violations <= delta * trials = 1; allow 2 for test stability.
  EXPECT_LE(violations, 2);
}

TEST(SampledEvaluatorTest, FullSetShortCircuits) {
  Graph g = GenerateCycle(4);
  RandomWalkSource source(&g, 5);
  SampledEvaluator evaluator(3, 10);
  NodeFlagSet all(4, {0, 1, 2, 3});
  SampledObjectives result = evaluator.Evaluate(all, &source);
  EXPECT_DOUBLE_EQ(result.f1, 12.0);  // nL - 0.
  EXPECT_DOUBLE_EQ(result.f2, 4.0);
}

TEST(SampleSizeTest, LemmaFormulas) {
  // R >= log(n/delta) / (2 eps^2).
  EXPECT_EQ(SampleSizeForF1(100, 0.1, 0.05),
            static_cast<int64_t>(std::ceil(std::log(100 / 0.05) / 0.02)));
  EXPECT_EQ(SampleSizeForF2(1000, 0.05, 0.01),
            static_cast<int64_t>(std::ceil(std::log(1000 / 0.01) / 0.005)));
}

TEST(SampleSizeTest, MonotoneInParameters) {
  EXPECT_GT(SampleSizeForF2(1000, 0.05, 0.01),
            SampleSizeForF2(1000, 0.1, 0.01));
  EXPECT_GT(SampleSizeForF2(1000, 0.05, 0.01),
            SampleSizeForF2(100, 0.05, 0.01));
  EXPECT_GT(SampleSizeForF2(1000, 0.05, 0.001),
            SampleSizeForF2(1000, 0.05, 0.01));
}

TEST(SampleSizeTest, HoeffdingTailDecays) {
  EXPECT_NEAR(HoeffdingTail(0.1, 0), 1.0, 1e-12);
  EXPECT_LT(HoeffdingTail(0.1, 1000), HoeffdingTail(0.1, 100));
  EXPECT_LT(HoeffdingTail(0.2, 100), HoeffdingTail(0.1, 100));
}

}  // namespace
}  // namespace rwdom
