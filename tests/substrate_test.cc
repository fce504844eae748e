// The autodetecting substrate loader: one parser, one remapper, and the
// cheapest model that preserves walk semantics.
#include "wgraph/substrate.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/generators.h"
#include "harness/dataset_registry.h"
#include "walk/walk_source.h"

namespace rwdom {
namespace {

TEST(SubstrateParseTest, PlainEdgeListStaysUniform) {
  auto result = ParseSubstrate("0 1\n1 2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->substrate.weighted());
  EXPECT_FALSE(result->substrate.directed());
  EXPECT_EQ(result->substrate.kind(), "uniform");
  EXPECT_EQ(result->substrate.num_nodes(), 3);
  EXPECT_EQ(result->substrate.num_links(), 2);
  ASSERT_NE(result->substrate.graph(), nullptr);
  EXPECT_EQ(result->substrate.weighted_graph(), nullptr);
}

TEST(SubstrateParseTest, WeightColumnAutodetects) {
  auto result = ParseSubstrate("0 1 2.5\n1 2 0.5\n");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->substrate.weighted());
  EXPECT_FALSE(result->substrate.directed());
  EXPECT_EQ(result->substrate.kind(), "weighted");
  // Undirected: each line doubles into a symmetric arc pair.
  EXPECT_EQ(result->substrate.num_links(), 4);
  EXPECT_DOUBLE_EQ(
      result->substrate.weighted_graph()->total_out_weight(1), 3.0);
}

TEST(SubstrateParseTest, AllOneWeightsStayUniform) {
  // Explicit 1.0 weights carry no transition information: the loader must
  // pick the cheaper uniform substrate.
  auto result = ParseSubstrate("0 1 1.0\n1 2 1\n");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->substrate.weighted());
}

TEST(SubstrateParseTest, DirectedAlwaysBuildsDigraph) {
  SubstrateOptions options;
  options.directed = true;
  auto result = ParseSubstrate("0 1\n1 2\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->substrate.weighted());
  EXPECT_TRUE(result->substrate.directed());
  EXPECT_EQ(result->substrate.kind(), "weighted-directed");
  EXPECT_EQ(result->substrate.num_links(), 2);  // One arc per line.
  EXPECT_EQ(result->substrate.weighted_graph()->out_degree(2), 0);
}

TEST(SubstrateParseTest, AnnotationColumnIsIgnoredInAutoMode) {
  // A non-numeric third column (SNAP annotations) must not fail nor become
  // a weight.
  auto result = ParseSubstrate("0 1 trusted\n1 2 trusted\n");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->substrate.weighted());
}

TEST(SubstrateParseTest, AutoModeNeverSilentlyCorruptsWeights) {
  // A numeric but invalid weight was clearly meant as a weight: error, do
  // not swallow it as 1.0 next to valid weights.
  EXPECT_EQ(ParseSubstrate("0 1 3.0\n1 2 0.0\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseSubstrate("0 1 -2\n").status().code(),
            StatusCode::kCorruption);
  // Mixing weights and annotations in one file is ambiguous: error too.
  EXPECT_EQ(ParseSubstrate("0 1 3.0\n1 2 trusted\n").status().code(),
            StatusCode::kCorruption);
}

TEST(SubstrateParseTest, ForcedModesOverrideAutodetection) {
  SubstrateOptions ignore;
  ignore.weights = SubstrateWeights::kIgnore;
  auto as_uniform = ParseSubstrate("0 1 2.5\n", ignore);
  ASSERT_TRUE(as_uniform.ok());
  EXPECT_FALSE(as_uniform->substrate.weighted());

  SubstrateOptions force;
  force.weights = SubstrateWeights::kForce;
  auto as_weighted = ParseSubstrate("0 1 1.0\n", force);
  ASSERT_TRUE(as_weighted.ok());
  EXPECT_TRUE(as_weighted->substrate.weighted());
  // kForce builds weighted storage even without a weight column (all-1.0
  // arcs), and validates the column strictly when present.
  auto forced_plain = ParseSubstrate("0 1\n", force);
  ASSERT_TRUE(forced_plain.ok());
  EXPECT_TRUE(forced_plain->substrate.weighted());
  EXPECT_DOUBLE_EQ(
      forced_plain->substrate.weighted_graph()->total_out_weight(0), 1.0);
  EXPECT_FALSE(ParseSubstrate("0 1 -3\n", force).ok());
}

TEST(SubstrateParseTest, OriginalIdsComeFromTheSharedRemapper) {
  auto result = ParseSubstrate("100 7 2.0\n7 42 1.5\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->original_ids, (std::vector<int64_t>{100, 7, 42}));
}

TEST(SubstrateLoadTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/rwdom_substrate_test.txt";
  {
    std::ofstream file(path, std::ios::trunc);
    file << "# weighted directed test\n0 1 4.0\n1 2 2.0\n2 0 1.0\n";
  }
  SubstrateOptions options;
  options.directed = true;
  auto result = LoadSubstrate(path, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->substrate.directed());
  EXPECT_EQ(result->substrate.num_links(), 3);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadSubstrate("/nonexistent/sub.txt").ok());
}

TEST(SubstrateTest, MoveKeepsModelValid) {
  auto parsed = ParseSubstrate("0 1 2.0\n1 2 3.0\n");
  ASSERT_TRUE(parsed.ok());
  GraphSubstrate moved = std::move(parsed->substrate);
  EXPECT_EQ(moved.model().num_nodes(), 3);
  EXPECT_EQ(moved.num_links(), 4);
  TransitionWalkSource source(&moved.model(), 5);
  std::vector<NodeId> walk;
  source.SampleWalkStream(0, 0, 4, &walk);
  EXPECT_GE(walk.size(), 1u);
  EXPECT_EQ(walk.front(), 0);
}

TEST(AttachRandomWeightsTest, DeterministicAndOrderIndependent) {
  auto graph = GenerateBarabasiAlbert(60, 3, 71);
  ASSERT_TRUE(graph.ok());
  WeightedGraph a = AttachRandomWeights(*graph, 11, /*directed=*/false);
  WeightedGraph b = AttachRandomWeights(*graph, 11, /*directed=*/false);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    auto arcs_a = a.out_arcs(u);
    auto arcs_b = b.out_arcs(u);
    ASSERT_EQ(arcs_a.size(), arcs_b.size());
    for (size_t i = 0; i < arcs_a.size(); ++i) {
      EXPECT_EQ(arcs_a[i].weight, arcs_b[i].weight);
      // Undirected: the reverse arc carries the same weight.
      EXPECT_DOUBLE_EQ(arcs_a[i].weight,
                       [&] {
                         for (const Arc& rev : a.out_arcs(arcs_a[i].target)) {
                           if (rev.target == u) return rev.weight;
                         }
                         return -1.0;
                       }());
    }
  }
  // Different seed, different weights.
  WeightedGraph c = AttachRandomWeights(*graph, 12, /*directed=*/false);
  bool any_diff = false;
  for (NodeId u = 0; u < a.num_nodes() && !any_diff; ++u) {
    auto arcs_a = a.out_arcs(u);
    auto arcs_c = c.out_arcs(u);
    for (size_t i = 0; i < arcs_a.size(); ++i) {
      if (arcs_a[i].weight != arcs_c[i].weight) any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(AttachRandomWeightsTest, DirectedDrawsIndependentWeights) {
  auto graph = GenerateBarabasiAlbert(30, 2, 81);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = AttachRandomWeights(*graph, 19, /*directed=*/true);
  bool any_asymmetric = false;
  for (NodeId u = 0; u < wg.num_nodes() && !any_asymmetric; ++u) {
    for (const Arc& arc : wg.out_arcs(u)) {
      for (const Arc& rev : wg.out_arcs(arc.target)) {
        if (rev.target == u && rev.weight != arc.weight) {
          any_asymmetric = true;
        }
      }
    }
  }
  EXPECT_TRUE(any_asymmetric);
}

TEST(SubstrateDatasetTest, VariantSuffixesResolve) {
  // Synthesized stand-ins (no data dir): plain stays uniform, -w weighted,
  // -wd weighted directed; all share the base topology size.
  auto plain = LoadOrSynthesizeSubstrateDataset("CAGrQc", "/nonexistent");
  auto w = LoadOrSynthesizeSubstrateDataset("CAGrQc-w", "/nonexistent");
  auto wd = LoadOrSynthesizeSubstrateDataset("CAGrQc-wd", "/nonexistent");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(wd.ok());
  EXPECT_FALSE(plain->substrate.weighted());
  EXPECT_TRUE(w->substrate.weighted());
  EXPECT_FALSE(w->substrate.directed());
  EXPECT_TRUE(wd->substrate.directed());
  EXPECT_EQ(plain->substrate.num_nodes(), w->substrate.num_nodes());
  EXPECT_EQ(w->substrate.num_nodes(), wd->substrate.num_nodes());
  // -w doubles every undirected edge into an arc pair.
  EXPECT_EQ(w->substrate.num_links(), 2 * plain->substrate.num_links());
  // Unknown base names still fail.
  EXPECT_FALSE(LoadOrSynthesizeSubstrateDataset("NoSuch-w", "/nonexistent").ok());
}

TEST(SubstrateDatasetTest, WeightedVariantFileLoadsForcedWeighted) {
  // A real <name>-w.txt without a weight column must still deliver the
  // weighted substrate the variant name promises (all-1.0 arcs), never
  // silently fall back to uniform.
  const std::string dir = testing::TempDir();
  const std::string path = dir + "/CAGrQc-w.txt";
  {
    std::ofstream file(path, std::ios::trunc);
    file << "0 1\n1 2\n2 0\n";
  }
  auto result = LoadOrSynthesizeSubstrateDataset("CAGrQc-w", dir);
  std::remove(path.c_str());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->substrate.weighted());
  EXPECT_TRUE(result->from_file);
  EXPECT_DOUBLE_EQ(
      result->substrate.weighted_graph()->total_out_weight(0), 2.0);
}

TEST(SubstrateDatasetTest, WeightOverridesValidated) {
  // kIgnore contradicts a weighted variant.
  EXPECT_FALSE(LoadOrSynthesizeSubstrateDataset(
                   "CAGrQc-w", "/nonexistent", SubstrateWeights::kIgnore)
                   .ok());
  // kForce on a plain name needs a real file to force.
  EXPECT_FALSE(LoadOrSynthesizeSubstrateDataset(
                   "CAGrQc", "/nonexistent", SubstrateWeights::kForce)
                   .ok());
  // kIgnore on a plain name (timestamp defense) synthesizes as usual.
  auto plain = LoadOrSynthesizeSubstrateDataset("CAGrQc", "/nonexistent",
                                                SubstrateWeights::kIgnore);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->substrate.weighted());
}

TEST(SubstrateDatasetTest, DeterministicAcrossCalls) {
  auto a = LoadOrSynthesizeSubstrateDataset("CAGrQc-w", "/nonexistent");
  auto b = LoadOrSynthesizeSubstrateDataset("CAGrQc-w", "/nonexistent");
  ASSERT_TRUE(a.ok() && b.ok());
  const WeightedGraph& ga = *a->substrate.weighted_graph();
  const WeightedGraph& gb = *b->substrate.weighted_graph();
  ASSERT_EQ(ga.num_arcs(), gb.num_arcs());
  for (NodeId u = 0; u < ga.num_nodes(); ++u) {
    auto arcs_a = ga.out_arcs(u);
    auto arcs_b = gb.out_arcs(u);
    ASSERT_EQ(arcs_a.size(), arcs_b.size());
    for (size_t i = 0; i < arcs_a.size(); ++i) {
      EXPECT_EQ(arcs_a[i].target, arcs_b[i].target);
      EXPECT_EQ(arcs_a[i].weight, arcs_b[i].weight);
    }
  }
}

}  // namespace
}  // namespace rwdom
