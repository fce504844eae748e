// Property tests for Theorems 3.1 and 3.2: F1 and F2 are nondecreasing
// submodular set functions with F(empty) = 0 — checked numerically on random
// graphs, random nested set pairs S ⊆ T, and random candidate nodes — and
// the greedy guarantee those properties buy, checked against the true
// optimum on substrates small enough to enumerate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "core/exact_objective.h"
#include "core/objective.h"
#include "core/selector_registry.h"
#include "graph/generators.h"
#include "graph/node_set.h"
#include "util/rng.h"
#include "walk/problem.h"
#include "walk/sample_size.h"
#include "walk/transition_model.h"
#include "wgraph/substrate.h"
#include "wgraph/weighted_transition_model.h"

namespace rwdom {
namespace {

struct PropertyCase {
  int graph_kind;   // 0 = BA, 1 = ER, 2 = WS, 3 = two-cliques.
  uint64_t seed;
  int32_t length;
};

Graph MakeGraph(const PropertyCase& c) {
  switch (c.graph_kind) {
    case 0:
      return GenerateBarabasiAlbert(24, 2, c.seed).value();
    case 1:
      return GenerateErdosRenyiGnm(24, 60, c.seed).value();
    case 2:
      return GenerateWattsStrogatz(24, 2, 0.3, c.seed).value();
    default:
      return GenerateTwoCliquesBridge(8);
  }
}

// Draws a random nested pair S ⊂ T and a node j outside T.
struct NestedSets {
  NodeFlagSet s;
  NodeFlagSet t;
  NodeId j;
};

NestedSets DrawNestedSets(const Graph& g, Rng* rng) {
  const NodeId n = g.num_nodes();
  NodeFlagSet s(n), t(n);
  for (NodeId u = 0; u < n; ++u) {
    double roll = rng->NextDouble();
    if (roll < 0.15) {
      s.Insert(u);
      t.Insert(u);
    } else if (roll < 0.35) {
      t.Insert(u);
    }
  }
  NodeId j = kInvalidNode;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    NodeId candidate =
        static_cast<NodeId>(rng->NextBounded(static_cast<uint64_t>(n)));
    if (!t.Contains(candidate)) {
      j = candidate;
      break;
    }
  }
  return {std::move(s), std::move(t), j};
}

class SubmodularityTest
    : public testing::TestWithParam<std::tuple<int, uint64_t, int32_t>> {};

TEST_P(SubmodularityTest, ExactObjectivesAreMonotoneSubmodular) {
  const auto [graph_kind, seed, length] = GetParam();
  PropertyCase c{graph_kind, seed, length};
  Graph g = MakeGraph(c);
  Rng rng(seed * 977 + 13);

  for (Problem problem :
       {Problem::kHittingTime, Problem::kDominatedCount}) {
    ExactObjective objective(&g, problem, length);

    // F(empty) = 0.
    NodeFlagSet empty(g.num_nodes());
    EXPECT_NEAR(objective.Value(empty), 0.0, 1e-9);

    for (int trial = 0; trial < 8; ++trial) {
      NestedSets sets = DrawNestedSets(g, &rng);
      if (sets.j == kInvalidNode) continue;
      const double f_s = objective.Value(sets.s);
      const double f_t = objective.Value(sets.t);
      // Nondecreasing: S ⊆ T => F(S) <= F(T).
      EXPECT_LE(f_s, f_t + 1e-9)
          << ProblemName(problem) << " kind=" << graph_kind;
      // Submodular: gain at S >= gain at T for j outside T.
      const double gain_s = objective.ValueWithExtra(sets.s, sets.j) - f_s;
      const double gain_t = objective.ValueWithExtra(sets.t, sets.j) - f_t;
      EXPECT_GE(gain_s + 1e-9, gain_t)
          << ProblemName(problem) << " kind=" << graph_kind
          << " j=" << sets.j;
      // Gains are non-negative (monotonicity again).
      EXPECT_GE(gain_s, -1e-9);
      EXPECT_GE(gain_t, -1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphSweep, SubmodularityTest,
    testing::Combine(testing::Range(0, 4), testing::Values(1u, 2u, 3u),
                     testing::Values(1, 4, 7)));

TEST(SubmodularityTest, F1BoundedByNL) {
  // 0 <= F1(S) <= nL and 0 <= F2(S) <= n for any S.
  Graph g = GenerateBarabasiAlbert(25, 3, 7).value();
  const int32_t length = 5;
  ExactObjective f1(&g, Problem::kHittingTime, length);
  ExactObjective f2(&g, Problem::kDominatedCount, length);
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    NodeFlagSet s(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (rng.NextBernoulli(0.3)) s.Insert(u);
    }
    EXPECT_GE(f1.Value(s), -1e-9);
    EXPECT_LE(f1.Value(s), 25.0 * length + 1e-9);
    EXPECT_GE(f2.Value(s), -1e-9);
    EXPECT_LE(f2.Value(s), 25.0 + 1e-9);
  }
}

// The largest objective value over every k-subset of the nodes.
double Optimum(const Objective& objective, int32_t k) {
  const NodeId n = objective.universe_size();
  double best = 0.0;
  std::vector<NodeId> chosen;
  auto extend = [&](auto&& self, NodeId next) -> void {
    if (static_cast<int32_t>(chosen.size()) == k) {
      best = std::max(best, objective.Value(NodeFlagSet(n, chosen)));
      return;
    }
    for (NodeId u = next; u < n; ++u) {
      chosen.push_back(u);
      self(self, u + 1);
      chosen.pop_back();
    }
  };
  extend(extend, 0);
  return best;
}

enum class SubstrateKind { kUniform, kWeighted, kWeightedDirected };

// Names the parameter in test names and failure messages.
void PrintTo(SubstrateKind kind, std::ostream* os) {
  switch (kind) {
    case SubstrateKind::kUniform:
      *os << "Uniform";
      break;
    case SubstrateKind::kWeighted:
      *os << "Weighted";
      break;
    case SubstrateKind::kWeightedDirected:
      *os << "WeightedDirected";
      break;
  }
}

class GreedyVersusOptimumTest
    : public testing::TestWithParam<SubstrateKind> {};

// Runs check(model, seed, length) over the shared grid: n in {6, 9, 12}
// (G(n, 2n) topologies), seeds 1-6 and L in {2, 5}, on the substrate kind.
template <typename Check>
void ForEachGridCase(SubstrateKind kind, Check check) {
  const bool directed = kind == SubstrateKind::kWeightedDirected;
  for (NodeId n : {6, 9, 12}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Graph g = GenerateErdosRenyiGnm(n, 2 * n, seed).value();
      WeightedGraph wg = AttachRandomWeights(g, seed, directed);
      UniformTransitionModel uniform(&g);
      WeightedTransitionModel weighted(&wg, directed);
      const TransitionModel& model =
          kind == SubstrateKind::kUniform
              ? static_cast<const TransitionModel&>(uniform)
              : weighted;
      for (int32_t length : {2, 5}) check(model, seed, length);
    }
  }
}

// The exact objective of the k-set the named selector picks.
double ValueOfSelection(const ExactObjective& objective,
                        const std::string& name,
                        const TransitionModel& model,
                        const SelectorParams& params, int32_t k) {
  auto selector = MakeSelector(name, &model, params);
  EXPECT_TRUE(selector.ok()) << selector.status();
  if (!selector.ok()) return 0.0;
  return objective.Value(NodeFlagSet(model.num_nodes(),
                                     (*selector)->Select(k).selected));
}

// F1 and F2 are monotone submodular with F(empty) = 0 on any transition
// model, so the greedy k-set scores at least (1 - 1/e) * OPT (Nemhauser,
// Wolsey & Fisher, Math. Prog. 1978). OPT is found by enumeration.
TEST_P(GreedyVersusOptimumTest, DpGreedyReachesOneMinusOneOverEOfOptimum) {
  const double bound = 1.0 - std::exp(-1.0);
  ForEachGridCase(GetParam(), [&](const TransitionModel& model,
                                  uint64_t seed, int32_t length) {
    const NodeId n = model.num_nodes();
    for (Problem problem :
         {Problem::kHittingTime, Problem::kDominatedCount}) {
      ExactObjective objective(&model, problem, length);
      const std::string name = "DP" + std::string(ProblemName(problem));
      for (int32_t k : {1, 2, 3}) {
        const double value = ValueOfSelection(
            objective, name, model, SelectorParams{.length = length}, k);
        EXPECT_GE(value, bound * Optimum(objective, k) - 1e-9)
            << name << " n=" << n << " seed=" << seed << " L=" << length
            << " k=" << k;
      }
    }
  });
}

// Lemmas 3.3/3.4: at R = SampleSizeForF*(n, eps, delta) walks per node an
// estimate of F1 is within eps * (n - k) * L of the truth, and one of F2
// within eps * n, with probability at least 1 - delta. Index greedy
// (ApproxF1/ApproxF2) at that R should land within the same slack of DP
// greedy's exact objective.
TEST_P(GreedyVersusOptimumTest, IndexGreedyAtLemmaSampleSizeTracksDpGreedy) {
  const double eps = 0.05;
  const double delta = 0.05;
  ForEachGridCase(GetParam(), [&](const TransitionModel& model,
                                  uint64_t seed, int32_t length) {
    const NodeId n = model.num_nodes();
    for (Problem problem :
         {Problem::kHittingTime, Problem::kDominatedCount}) {
      const bool f1 = problem == Problem::kHittingTime;
      ExactObjective objective(&model, problem, length);
      const SelectorParams index_params{
          .length = length,
          .num_samples = static_cast<int32_t>(
              f1 ? SampleSizeForF1(n, eps, delta)
                 : SampleSizeForF2(n, eps, delta))};
      const std::string problem_name(ProblemName(problem));
      for (int32_t k : {1, 2, 3}) {
        const double dp_value =
            ValueOfSelection(objective, "DP" + problem_name, model,
                             SelectorParams{.length = length}, k);
        const double index_value = ValueOfSelection(
            objective, "Approx" + problem_name, model, index_params, k);
        const double slack = f1 ? eps * (n - k) * length : eps * n;
        EXPECT_GE(index_value, dp_value - slack)
            << problem_name << " n=" << n << " seed=" << seed
            << " L=" << length << " k=" << k
            << " R=" << index_params.num_samples;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, GreedyVersusOptimumTest,
    testing::Values(SubstrateKind::kUniform, SubstrateKind::kWeighted,
                    SubstrateKind::kWeightedDirected),
    testing::PrintToStringParamName());

}  // namespace
}  // namespace rwdom
