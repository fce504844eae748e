// Theorems 2.2 / 2.3 on weighted digraphs: TransitionDp and
// TransitionWalkSource over a WeightedTransitionModel, plus the weighted
// selects through the same MakeSelector registry every substrate uses.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/approx_greedy.h"
#include "core/selector_registry.h"
#include "graph/generators.h"
#include "walk/transition_dp.h"
#include "walk/walk_source.h"
#include "wgraph/weighted_graph.h"
#include "wgraph/weighted_transition_model.h"

namespace rwdom {
namespace {

// Definition-based brute force on a weighted digraph.
double BruteHit(const WeightedGraph& g, NodeId u, const NodeFlagSet& s,
                int32_t remaining) {
  if (s.Contains(u)) return 0.0;
  if (remaining == 0) return 0.0;
  const double total = g.total_out_weight(u);
  if (total <= 0.0) return static_cast<double>(remaining);
  double expectation = 0.0;
  for (const Arc& arc : g.out_arcs(u)) {
    expectation +=
        (arc.weight / total) * (1.0 + BruteHit(g, arc.target, s, remaining - 1));
  }
  return expectation;
}

double BruteProb(const WeightedGraph& g, NodeId u, const NodeFlagSet& s,
                 int32_t remaining) {
  if (s.Contains(u)) return 1.0;
  if (remaining == 0) return 0.0;
  const double total = g.total_out_weight(u);
  if (total <= 0.0) return 0.0;
  double p = 0.0;
  for (const Arc& arc : g.out_arcs(u)) {
    p += (arc.weight / total) * BruteProb(g, arc.target, s, remaining - 1);
  }
  return p;
}

// A registry-built selector over `model`; fails the test if the name is
// unknown.
std::unique_ptr<Selector> MustMake(const std::string& name,
                                   const TransitionModel& model,
                                   const SelectorParams& params) {
  auto selector = MakeSelector(name, &model, params);
  EXPECT_TRUE(selector.ok()) << selector.status();
  return std::move(selector).value();
}

WeightedGraph WeightedTriangle() {
  // 0 -> 1 (w 2), 0 -> 2 (w 1), 1 -> 2 (w 1), 2 -> 0 (w 1).
  WeightedGraphBuilder builder(3);
  builder.AddArc(0, 1, 2.0);
  builder.AddArc(0, 2, 1.0);
  builder.AddArc(1, 2, 1.0);
  builder.AddArc(2, 0, 1.0);
  return std::move(builder).BuildOrDie();
}

TEST(WeightedDpTest, HandComputedDirectedCase) {
  WeightedGraph g = WeightedTriangle();
  WeightedTransitionModel model(&g);
  TransitionDp dp(&model, 2);
  NodeFlagSet s(3, {2});
  auto h = dp.HittingTimesToSet(s);
  // From 1: forced 1 -> 2, h = 1. From 0: 1/3 straight to 2 (t=1),
  // 2/3 to 1 then forced to 2 (t=2): h = 1/3 + 4/3 = 5/3.
  EXPECT_DOUBLE_EQ(h[1], 1.0);
  EXPECT_NEAR(h[0], 5.0 / 3.0, 1e-12);
  auto p = dp.HitProbabilities(s);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

TEST(WeightedDpTest, UniformWeightsMatchUnweightedDp) {
  // Weight-1 symmetric arcs must reproduce the unweighted DPs exactly.
  auto graph = GenerateBarabasiAlbert(40, 3, 201);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = WeightedGraph::FromUnweighted(*graph);
  const int32_t length = 5;
  NodeFlagSet s(40, {0, 11, 29});

  WeightedTransitionModel model(&wg);
  TransitionDp weighted(&model, length);
  TransitionDp unweighted(&*graph, length);

  auto wh = weighted.HittingTimesToSet(s);
  auto uh = unweighted.HittingTimesToSet(s);
  auto wp = weighted.HitProbabilities(s);
  auto up = unweighted.HitProbabilities(s);
  for (NodeId u = 0; u < 40; ++u) {
    EXPECT_NEAR(wh[u], uh[u], 1e-12) << u;
    EXPECT_NEAR(wp[u], up[u], 1e-12) << u;
  }
  EXPECT_NEAR(weighted.F1(s), unweighted.F1(s), 1e-9);
  EXPECT_NEAR(weighted.F2(s), unweighted.F2(s), 1e-9);
}

class WeightedBruteForceTest : public testing::TestWithParam<int32_t> {};

TEST_P(WeightedBruteForceTest, DpMatchesDefinition) {
  const int32_t length = GetParam();
  // Small weighted digraph with a sink and asymmetric weights.
  WeightedGraphBuilder builder(5);
  builder.AddArc(0, 1, 1.0);
  builder.AddArc(0, 2, 3.0);
  builder.AddArc(1, 3, 2.0);
  builder.AddArc(2, 1, 0.5);
  builder.AddArc(2, 4, 1.5);
  builder.AddArc(3, 0, 1.0);
  // 4 is a sink.
  WeightedGraph g = std::move(builder).BuildOrDie();
  NodeFlagSet s(5, {3});
  WeightedTransitionModel model(&g);
  TransitionDp dp(&model, length);
  auto h = dp.HittingTimesToSet(s);
  auto p = dp.HitProbabilities(s);
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_NEAR(h[u], BruteHit(g, u, s, length), 1e-9) << "h " << u;
    EXPECT_NEAR(p[u], BruteProb(g, u, s, length), 1e-9) << "p " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, WeightedBruteForceTest,
                         testing::Values(0, 1, 2, 4, 7));

TEST(WeightedDpTest, PlusVariantMatchesUnion) {
  WeightedGraph wg =
      WeightedGraph::FromUnweighted(GenerateTwoCliquesBridge(4));
  WeightedTransitionModel model(&wg);
  TransitionDp dp(&model, 4);
  NodeFlagSet s(8, {1});
  NodeFlagSet s_union(8, {1, 6});
  EXPECT_NEAR(dp.F1Plus(s, 6), dp.F1(s_union), 1e-12);
  EXPECT_NEAR(dp.F2Plus(s, 6), dp.F2(s_union), 1e-12);
}

TEST(WeightedDpTest, SampledWalksAgreeWithDp) {
  // Monte-Carlo over the weighted walker vs the exact weighted DP.
  WeightedGraphBuilder builder(4);
  builder.AddUndirectedEdge(0, 1, 1.0);
  builder.AddUndirectedEdge(1, 2, 5.0);
  builder.AddUndirectedEdge(2, 3, 1.0);
  builder.AddUndirectedEdge(0, 3, 2.0);
  WeightedGraph g = std::move(builder).BuildOrDie();
  const int32_t length = 4;
  NodeFlagSet s(4, {2});
  WeightedTransitionModel model(&g);
  TransitionDp dp(&model, length);
  auto exact = dp.HitProbabilities(s);

  TransitionWalkSource source(&model, 31);
  std::vector<NodeId> walk;
  const int kTrials = 40000;
  for (NodeId start : {0, 1, 3}) {
    int hits = 0;
    for (int i = 0; i < kTrials; ++i) {
      source.SampleWalkStream(start, static_cast<uint64_t>(i), length, &walk);
      for (NodeId node : walk) {
        if (node == 2) {
          ++hits;
          break;
        }
      }
    }
    EXPECT_NEAR(static_cast<double>(hits) / kTrials, exact[start], 0.01)
        << "start " << start;
  }
}

TEST(WeightedSelectTest, WeightedDpGreedyPrefersHeavyHub) {
  // Star where all leaves' arcs point at the hub with heavy weight and at
  // each other not at all: hub must be the first pick.
  WeightedGraphBuilder builder(6);
  for (NodeId leaf = 1; leaf < 6; ++leaf) {
    builder.AddUndirectedEdge(0, leaf, 2.0);
  }
  WeightedGraph g = std::move(builder).BuildOrDie();
  WeightedTransitionModel model(&g);
  auto greedy = MustMake("DPF2", model, {.length = 3});
  SelectionResult result = greedy->Select(1);
  EXPECT_EQ(result.selected[0], 0);
  EXPECT_EQ(greedy->name(), "DPF2");
}

TEST(WeightedSelectTest, WeightBiasChangesSelection) {
  // Two stars joined by a bridge; star B's edges carry 10x the weight so
  // random walkers near B concentrate faster. With k=1 and hitting-time
  // objective, the selection must react to the weights: compare against
  // the uniform-weight selection on the same topology.
  auto build = [](double b_weight) {
    WeightedGraphBuilder builder(9);
    for (NodeId leaf = 1; leaf <= 3; ++leaf) {
      builder.AddUndirectedEdge(0, leaf, 1.0);  // Star A, hub 0.
    }
    for (NodeId leaf = 5; leaf <= 7; ++leaf) {
      builder.AddUndirectedEdge(4, leaf, b_weight);  // Star B, hub 4.
    }
    builder.AddUndirectedEdge(3, 5, 1.0);  // Bridge.
    builder.AddUndirectedEdge(8, 4, b_weight);
    return std::move(builder).BuildOrDie();
  };
  WeightedGraph uniform = build(1.0);
  WeightedGraph biased = build(10.0);
  WeightedTransitionModel uniform_model(&uniform);
  WeightedTransitionModel biased_model(&biased);
  auto u_sel =
      MustMake("DPF1", uniform_model, {.length = 4})->Select(2).selected;
  auto b_sel =
      MustMake("DPF1", biased_model, {.length = 4})->Select(2).selected;
  // The objective values must differ; the selections typically do too.
  TransitionDp u_dp(&uniform_model, 4);
  TransitionDp b_dp(&biased_model, 4);
  NodeFlagSet su(9, u_sel), sb(9, b_sel);
  EXPECT_NE(u_dp.F1(su), b_dp.F1(sb));
}

TEST(WeightedSelectTest, WeightedApproxTracksWeightedDp) {
  // On a uniform-weight conversion, weighted ApproxF2 must score close
  // to the weighted DP greedy (and hence to the unweighted pipeline).
  auto graph = GeneratePowerLawWithSize(200, 1000, 203);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = WeightedGraph::FromUnweighted(*graph);
  WeightedTransitionModel model(&wg);
  const int32_t length = 4;
  const int32_t k = 6;

  SelectionResult dp_result =
      MustMake("DPF2", model, {.length = length})->Select(k);

  auto approx = MustMake(
      "ApproxF2", model,
      {.length = length, .num_samples = 120, .seed = 3, .lazy = true});
  SelectionResult approx_result = approx->Select(k);
  EXPECT_EQ(approx->name(), "ApproxF2");
  ASSERT_NE(dynamic_cast<ApproxGreedy&>(*approx).index(), nullptr);

  TransitionDp dp_eval(&model, length);
  NodeFlagSet s_dp(200, dp_result.selected);
  NodeFlagSet s_approx(200, approx_result.selected);
  EXPECT_NEAR(dp_eval.F2(s_approx) / dp_eval.F2(s_dp), 1.0, 0.05);
}

TEST(WeightedSelectTest, DeterministicInSeed) {
  WeightedGraph wg =
      WeightedGraph::FromUnweighted(GenerateCycle(30));
  WeightedTransitionModel model(&wg);
  const SelectorParams params{
      .length = 3, .num_samples = 20, .seed = 5, .lazy = true};
  EXPECT_EQ(MustMake("ApproxF1", model, params)->Select(4).selected,
            MustMake("ApproxF1", model, params)->Select(4).selected);
}

}  // namespace
}  // namespace rwdom
