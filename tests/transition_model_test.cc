// The tentpole invariant of the unified substrate: every algorithm layer
// produces identical results whether it reaches a graph through the
// uniform model, or through a weight-1 weighted model over the same
// topology — and the weighted model honors real weights.
#include "walk/transition_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/baselines.h"
#include "core/dp_greedy.h"
#include "core/sampled_objective.h"
#include "core/selector_registry.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/node_set.h"
#include "walk/transition_dp.h"
#include "walk/walk_source.h"
#include "wgraph/weighted_graph.h"
#include "wgraph/weighted_transition_model.h"

namespace rwdom {
namespace {

Graph Star() {
  // Hub 0 with leaves 1..4, plus a 4-5 tail.
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(0, 3);
  builder.AddEdge(0, 4);
  builder.AddEdge(4, 5);
  return std::move(builder).BuildOrDie();
}

TEST(UniformTransitionModelTest, MirrorsGraphStructure) {
  Graph graph = Star();
  UniformTransitionModel model(&graph);
  EXPECT_EQ(model.num_nodes(), 6);
  EXPECT_EQ(model.out_degree(0), 4);
  EXPECT_EQ(model.out_degree(5), 1);
  EXPECT_FALSE(model.directed());
  EXPECT_EQ(model.name(), "uniform");
  EXPECT_EQ(model.MemoryUsageBytes(), graph.MemoryUsageBytes());

  std::vector<NodeId> successors;
  model.AppendSuccessors(0, &successors);
  EXPECT_EQ(successors, (std::vector<NodeId>{1, 2, 3, 4}));
}

TEST(UniformTransitionModelTest, ExpectedValueIsNeighborMean) {
  Graph graph = Star();
  UniformTransitionModel model(&graph);
  std::vector<double> values{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(model.ExpectedValue(0, values), (1 + 2 + 3 + 4) / 4.0);
  EXPECT_DOUBLE_EQ(model.ExpectedValue(5, values), 4.0);
}

TEST(UniformTransitionModelTest, StepOnSinkReturnsInvalid) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);  // Node 2 and 3 exist; 3 is isolated.
  builder.AddEdge(1, 2);
  Graph with_isolated = std::move(builder).BuildOrDie();
  UniformTransitionModel model(&with_isolated);
  Rng rng(7);
  EXPECT_EQ(model.Step(3, &rng), kInvalidNode);
  NodeId next = model.Step(0, &rng);
  EXPECT_EQ(next, 1);  // Only neighbor.
}

TEST(WeightedTransitionModelTest, HonorsWeights) {
  // 0 -> 1 weight 3, 0 -> 2 weight 1: steps from 0 should hit 1 ~75%.
  WeightedGraphBuilder builder(3);
  builder.AddArc(0, 1, 3.0);
  builder.AddArc(0, 2, 1.0);
  WeightedGraph g = std::move(builder).BuildOrDie();
  WeightedTransitionModel model(&g, /*directed=*/true);
  EXPECT_TRUE(model.directed());
  EXPECT_EQ(model.name(), "weighted-directed");

  Rng rng(123);
  int hits_one = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (model.Step(0, &rng) == 1) ++hits_one;
  }
  EXPECT_NEAR(static_cast<double>(hits_one) / kTrials, 0.75, 0.02);

  std::vector<double> values{0.0, 8.0, 4.0};
  EXPECT_DOUBLE_EQ(model.ExpectedValue(0, values), (3 * 8 + 1 * 4) / 4.0);
  EXPECT_EQ(model.Step(1, &rng), kInvalidNode);  // Sink.
}

TEST(WeightedTransitionModelTest, MemoryIncludesAliasTables) {
  auto graph = GenerateBarabasiAlbert(50, 3, 5);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = WeightedGraph::FromUnweighted(*graph);
  WeightedTransitionModel model(&wg, /*directed=*/false);
  EXPECT_GT(model.MemoryUsageBytes(), wg.MemoryUsageBytes());
}

TEST(TransitionDpTest, UniformAndWeightOneModelsAgreeExactly) {
  auto graph = GenerateBarabasiAlbert(60, 3, 11);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = WeightedGraph::FromUnweighted(*graph);
  UniformTransitionModel uniform(&*graph);
  WeightedTransitionModel weighted(&wg, /*directed=*/false);
  TransitionDp dp_uniform(&uniform, 5);
  TransitionDp dp_weighted(&weighted, 5);
  NodeFlagSet s(60, {0, 7, 23});
  auto hu = dp_uniform.HittingTimesToSet(s);
  auto hw = dp_weighted.HittingTimesToSet(s);
  auto pu = dp_uniform.HitProbabilities(s);
  auto pw = dp_weighted.HitProbabilities(s);
  for (NodeId u = 0; u < 60; ++u) {
    EXPECT_NEAR(hu[u], hw[u], 1e-12) << u;
    EXPECT_NEAR(pu[u], pw[u], 1e-12) << u;
  }
  EXPECT_NEAR(dp_uniform.F1(s), dp_weighted.F1(s), 1e-9);
  EXPECT_NEAR(dp_uniform.F2(s), dp_weighted.F2(s), 1e-9);
}

TEST(TransitionDpTest, GraphConstructorMatchesUniformModel) {
  auto graph = GenerateErdosRenyiGnm(40, 120, 3).value();
  UniformTransitionModel model(&graph);
  TransitionDp dp(&model, 4);
  TransitionDp over_graph(&graph, 4);
  NodeFlagSet s(40, {1, 2});
  EXPECT_EQ(dp.HittingTimesToSet(s), over_graph.HittingTimesToSet(s));
  EXPECT_EQ(dp.F1(s), over_graph.F1(s));
  EXPECT_EQ(dp.HittingTimesToNode(5), over_graph.HittingTimesToNode(5));
}

TEST(TransitionWalkSourceTest, MatchesRandomWalkSourceBitForBit) {
  auto graph = GenerateBarabasiAlbert(80, 2, 17);
  ASSERT_TRUE(graph.ok());
  UniformTransitionModel model(&*graph);
  TransitionWalkSource unified(&model, 99);
  RandomWalkSource legacy(&*graph, 99);
  std::vector<NodeId> a, b;
  for (NodeId start : {NodeId{0}, NodeId{13}, NodeId{79}}) {
    for (uint64_t stream : {0u, 3u, 11u}) {
      unified.SampleWalkStream(start, stream, 6, &a);
      legacy.SampleWalkStream(start, stream, 6, &b);
      EXPECT_EQ(a, b) << "start=" << start << " stream=" << stream;
    }
  }
}

TEST(BaselinesOverModelTest, DegreeAndDominateMatchGraphConstructors) {
  auto graph = GenerateBarabasiAlbert(100, 3, 23);
  ASSERT_TRUE(graph.ok());
  UniformTransitionModel model(&*graph);
  DegreeBaseline by_graph(&*graph);
  DegreeBaseline by_model(&model);
  EXPECT_EQ(by_graph.Select(10).selected, by_model.Select(10).selected);
  DominateBaseline dom_graph(&*graph);
  DominateBaseline dom_model(&model);
  EXPECT_EQ(dom_graph.Select(10).selected, dom_model.Select(10).selected);
}

TEST(BaselinesOverModelTest, DegreeUsesOutDegreeOnDigraphs) {
  // 0 has out-degree 3; everything else 0 or 1.
  WeightedGraphBuilder builder(4);
  builder.AddArc(0, 1, 1.0);
  builder.AddArc(0, 2, 1.0);
  builder.AddArc(0, 3, 1.0);
  builder.AddArc(1, 0, 1.0);
  WeightedGraph g = std::move(builder).BuildOrDie();
  WeightedTransitionModel model(&g, /*directed=*/true);
  DegreeBaseline degree(&model);
  EXPECT_EQ(degree.Select(1).selected, (std::vector<NodeId>{0}));
}

TEST(RegistryOverModelTest, EverySelectorRunsOnTheWeightedSubstrate) {
  auto graph = GenerateBarabasiAlbert(40, 2, 31);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = WeightedGraph::FromUnweighted(*graph);
  WeightedTransitionModel model(&wg, /*directed=*/false);
  SelectorParams params{.length = 3, .num_samples = 10, .seed = 5};
  for (const std::string& name : KnownSelectorNames()) {
    auto selector = MakeSelector(name, &model, params);
    ASSERT_TRUE(selector.ok()) << name;
    SelectionResult result = (*selector)->Select(3);
    EXPECT_EQ(result.selected.size(), 3u) << name;
  }
}

TEST(RegistryOverModelTest, GraphOverloadMatchesModelOverload) {
  auto graph = GenerateErdosRenyiGnm(50, 150, 41).value();
  UniformTransitionModel model(&graph);
  SelectorParams params{.length = 4, .num_samples = 20, .seed = 9};
  for (const char* name : {"Degree", "DPF2", "ApproxF1"}) {
    auto by_graph = MakeSelector(name, &graph, params);
    auto by_model = MakeSelector(name, &model, params);
    ASSERT_TRUE(by_graph.ok() && by_model.ok()) << name;
    EXPECT_EQ((*by_graph)->Select(5).selected,
              (*by_model)->Select(5).selected)
        << name;
  }
}

TEST(MetricsOverModelTest, WeightOneMetricsMatchUnweighted) {
  auto graph = GenerateBarabasiAlbert(70, 3, 51);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = WeightedGraph::FromUnweighted(*graph);
  UniformTransitionModel uniform(&*graph);
  WeightedTransitionModel weighted(&wg, /*directed=*/false);
  std::vector<NodeId> seeds{0, 5, 12};
  MetricsResult eu = ExactMetrics(uniform, seeds, 4);
  MetricsResult ew = ExactMetrics(weighted, seeds, 4);
  EXPECT_NEAR(eu.aht, ew.aht, 1e-9);
  EXPECT_NEAR(eu.ehn, ew.ehn, 1e-9);
  // Sampled: also a pure function of (seed, model); the uniform overload
  // must agree with the Graph convenience overload bit-for-bit.
  MetricsResult a = SampledMetrics(uniform, seeds, 4, 50, 13);
  MetricsResult b = SampledMetrics(*graph, seeds, 4, 50, 13);
  EXPECT_EQ(a.aht, b.aht);
  EXPECT_EQ(a.ehn, b.ehn);
}

TEST(DpGreedyOverModelTest, WeightsChangeTheExactSelection) {
  // Two hubs; hub 4's edges are heavy, so weighted DPF2 must find the
  // weighted structure (and agree with unweighted when weights are 1).
  auto graph = GenerateTwoCliquesBridge(5);
  UniformTransitionModel uniform(&graph);
  WeightedGraph wg1 = WeightedGraph::FromUnweighted(graph);
  WeightedTransitionModel weight_one(&wg1, /*directed=*/false);
  DpGreedy a(&uniform, Problem::kDominatedCount, 3);
  DpGreedy b(&weight_one, Problem::kDominatedCount, 3);
  EXPECT_EQ(a.Select(2).selected, b.Select(2).selected);
}

TEST(SampledObjectiveOverModelTest, WeightedEstimateTracksWeightedDp) {
  WeightedGraphBuilder builder(4);
  builder.AddUndirectedEdge(0, 1, 1.0);
  builder.AddUndirectedEdge(1, 2, 6.0);
  builder.AddUndirectedEdge(2, 3, 1.0);
  WeightedGraph g = std::move(builder).BuildOrDie();
  WeightedTransitionModel model(&g, /*directed=*/false);
  SampledObjective objective(&model, Problem::kDominatedCount, /*length=*/3,
                             /*num_samples=*/4000, /*seed=*/77);
  TransitionDp dp(&model, 3);
  NodeFlagSet s(4, {2});
  EXPECT_NEAR(objective.Value(s), dp.F2(s), 0.15);
}

}  // namespace
}  // namespace rwdom
