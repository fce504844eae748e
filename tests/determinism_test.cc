// Thread-count invariance: every randomized pipeline must produce
// bit-identical output for --threads=1 and --threads=4 (and any other
// count), because walks come from counter-derived per-(node, stream) RNG
// streams and all floating-point reductions run in fixed node order.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/approx_greedy.h"
#include "core/edge_domination.h"
#include "core/sampling_greedy.h"
#include "core/selector_registry.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "graph/node_set.h"
#include "index/gain_state.h"
#include "index/inverted_walk_index.h"
#include "util/parallel.h"
#include "walk/sampled_evaluator.h"
#include "walk/walk_source.h"
#include "wgraph/substrate.h"
#include "wgraph/weighted_transition_model.h"

namespace rwdom {
namespace {

// Runs `body()` at the given thread count, restoring the default after.
template <typename Fn>
auto WithThreads(int threads, Fn body) {
  SetNumThreads(threads);
  auto result = body();
  SetNumThreads(0);
  return result;
}

const int kThreadCounts[] = {2, 3, 4};

std::vector<std::vector<std::pair<NodeId, int32_t>>> Flatten(
    const InvertedWalkIndex& index) {
  std::vector<std::vector<std::pair<NodeId, int32_t>>> lists;
  for (int32_t i = 0; i < index.num_replicates(); ++i) {
    for (NodeId v = 0; v < index.num_nodes(); ++v) {
      auto& list = lists.emplace_back();
      for (const InvertedWalkIndex::Entry& e : index.DecodeList(i, v)) {
        list.emplace_back(e.id, e.weight);
      }
    }
  }
  return lists;
}

TEST(DeterminismTest, IndexBuildIsThreadCountInvariant) {
  auto graph = GenerateBarabasiAlbert(150, 3, 11);
  ASSERT_TRUE(graph.ok());
  // R = 5 exercises the replicate-parallel path at <= 5 threads and the
  // node-chunked path beyond; both must match the 1-thread build.
  auto build = [&] {
    RandomWalkSource source(&*graph, 99);
    return Flatten(InvertedWalkIndex::Build(5, 5, &source));
  };
  const auto baseline = WithThreads(1, build);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(WithThreads(threads, build), baseline)
        << "threads=" << threads;
  }
}

// FNV-1a over the little-endian bytes of one 64-bit word, the hash
// bench_parallel_scaling prints as `index_hash` and `gains_hash`. Its
// offset basis is not util/fingerprint.h's standard one, and the pinned
// values below depend on it.
uint64_t FnvMix(uint64_t h, uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((x >> (8 * b)) & 0xff)) * 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvOffset = 1469598103934665603ull;

// bench_parallel_scaling's quick configuration (ER n=20000 m=100000
// seed 42, walk seed 43, L=6, R=20), pinned to exact 64-bit values.
// Any change to walk sampling, inversion order or the F2 gain scan
// moves one of them; a posting-layout change cannot, because the
// index hash covers decoded postings.
TEST(DeterminismTest, ParallelScalingOutputsArePinned) {
  const Graph graph = GenerateErdosRenyiGnm(20000, 100000, 42).value();
  struct Outputs {
    int64_t index_entries;
    int64_t index_hash;
    int64_t gains_hash;
  };
  auto run = [&] {
    RandomWalkSource source(&graph, 43);
    const InvertedWalkIndex index = InvertedWalkIndex::Build(6, 20, &source);
    uint64_t index_hash = kFnvOffset;
    for (int32_t i = 0; i < index.num_replicates(); ++i) {
      for (NodeId v = 0; v < index.num_nodes(); ++v) {
        for (const InvertedWalkIndex::Entry& e : index.DecodeList(i, v)) {
          index_hash = FnvMix(
              index_hash,
              (static_cast<uint64_t>(static_cast<uint32_t>(e.id)) << 32) |
                  static_cast<uint32_t>(e.weight));
        }
      }
    }
    GainState state(&index, Problem::kDominatedCount);
    std::vector<double> gains;
    state.ApproxGainAll(&gains);
    uint64_t gains_hash = kFnvOffset;
    for (double g : gains) {
      gains_hash = FnvMix(gains_hash, std::bit_cast<uint64_t>(g));
    }
    return Outputs{index.TotalEntries(), static_cast<int64_t>(index_hash),
                   static_cast<int64_t>(gains_hash)};
  };
  for (int threads : {1, 4}) {
    const Outputs outputs = WithThreads(threads, run);
    EXPECT_EQ(outputs.index_entries, 2188255) << "threads=" << threads;
    EXPECT_EQ(outputs.index_hash, -2406497079335921067)
        << "threads=" << threads;
    EXPECT_EQ(outputs.gains_hash, -3544888501928040989)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, SampledEvaluatorIsThreadCountInvariantAndStable) {
  auto graph = GenerateErdosRenyiGnm(120, 480, 21).value();
  NodeFlagSet s(120, {3, 40, 77});
  SampledEvaluator evaluator(6, 25);
  auto eval = [&] {
    RandomWalkSource source(&graph, 5);
    SampledObjectives result = evaluator.Evaluate(s, &source);
    return std::make_pair(result.f1, result.f2);
  };
  const auto baseline = WithThreads(1, eval);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(WithThreads(threads, eval), baseline)
        << "threads=" << threads;
  }
  // Common random numbers: repeated evaluation of the same set through the
  // same seed is a pure function, not a fresh draw.
  RandomWalkSource source(&graph, 5);
  SampledObjectives once = evaluator.Evaluate(s, &source);
  SampledObjectives twice = evaluator.Evaluate(s, &source);
  EXPECT_EQ(once.f1, twice.f1);
  EXPECT_EQ(once.f2, twice.f2);
}

TEST(DeterminismTest, ApproxGreedyIsThreadCountInvariant) {
  auto graph = GenerateBarabasiAlbert(200, 3, 31);
  ASSERT_TRUE(graph.ok());
  for (Problem problem :
       {Problem::kHittingTime, Problem::kDominatedCount}) {
    for (bool lazy : {false, true}) {
      auto select = [&] {
        ApproxGreedyOptions options{.length = 4,
                                    .num_replicates = 30,
                                    .seed = 7,
                                    .lazy = lazy};
        ApproxGreedy greedy(&*graph, problem, options);
        SelectionResult result = greedy.Select(8);
        return std::make_pair(result.selected, result.objective_estimate);
      };
      const auto baseline = WithThreads(1, select);
      for (int threads : kThreadCounts) {
        EXPECT_EQ(WithThreads(threads, select), baseline)
            << ProblemName(problem) << " lazy=" << lazy
            << " threads=" << threads;
      }
    }
  }
}

TEST(DeterminismTest, SamplingGreedyIsThreadCountInvariant) {
  // The sampled-objective greedy: the oracle itself is parallel
  // (per-node walk blocks) and the candidate scan is parallel on top.
  auto graph = GenerateErdosRenyiGnm(60, 240, 41).value();
  for (bool lazy : {false, true}) {
    auto select = [&] {
      SamplingGreedy greedy(&graph, Problem::kDominatedCount, /*length=*/4,
                            /*num_samples=*/20, /*seed=*/13,
                            GreedyOptions{.lazy = lazy});
      SelectionResult result = greedy.Select(5);
      return std::make_pair(result.selected, result.objective_estimate);
    };
    const auto baseline = WithThreads(1, select);
    for (int threads : kThreadCounts) {
      EXPECT_EQ(WithThreads(threads, select), baseline)
          << "lazy=" << lazy << " threads=" << threads;
    }
  }
}

TEST(DeterminismTest, WeightedApproxGreedyIsThreadCountInvariant) {
  auto graph = GenerateBarabasiAlbert(120, 3, 51);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = WeightedGraph::FromUnweighted(*graph);
  WeightedTransitionModel model(&wg);
  for (const char* name : {"ApproxF1", "ApproxF2"}) {
    auto select = [&] {
      auto greedy = MakeSelector(
          name, &model,
          SelectorParams{
              .length = 4, .num_samples = 25, .seed = 9, .lazy = true});
      SelectionResult result = (*greedy)->Select(6);
      return std::make_pair(result.selected, result.objective_estimate);
    };
    const auto baseline = WithThreads(1, select);
    for (int threads : kThreadCounts) {
      EXPECT_EQ(WithThreads(threads, select), baseline)
          << name << " threads=" << threads;
    }
  }
}

TEST(DeterminismTest, WeightedWalkStreamsAreCallOrderIndependent) {
  auto graph = GenerateBarabasiAlbert(40, 2, 61);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = WeightedGraph::FromUnweighted(*graph);
  WeightedTransitionModel model(&wg);
  TransitionWalkSource a(&model, 17);
  TransitionWalkSource b(&model, 17);
  // Draw unrelated walks from `b` first: stream walks must not depend on
  // call history.
  std::vector<NodeId> scratch;
  for (uint64_t i = 0; i < 10; ++i) {
    b.SampleWalkStream(0, 100 + i, 5, &scratch);
  }
  std::vector<NodeId> walk_a;
  std::vector<NodeId> walk_b;
  for (NodeId start : {NodeId{0}, NodeId{7}, NodeId{39}}) {
    for (uint64_t stream : {0u, 1u, 9u}) {
      a.SampleWalkStream(start, stream, 6, &walk_a);
      b.SampleWalkStream(start, stream, 6, &walk_b);
      EXPECT_EQ(walk_a, walk_b) << "start=" << start
                                << " stream=" << stream;
    }
  }
}

TEST(DeterminismTest, WeightedSampledEvaluatorIsThreadCountInvariant) {
  // The weighted leg of the RWDOM_THREADS pin: Algorithm 2 over
  // alias-table walks must be bit-identical for every thread count.
  auto graph = GenerateBarabasiAlbert(100, 3, 91);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = AttachRandomWeights(*graph, 5, /*directed=*/false);
  WeightedTransitionModel model(&wg, /*directed=*/false);
  NodeFlagSet s(100, {2, 31, 64});
  SampledEvaluator evaluator(5, 20);
  auto eval = [&] {
    TransitionWalkSource source(&model, 3);
    SampledObjectives result = evaluator.Evaluate(s, &source);
    return std::make_pair(result.f1, result.f2);
  };
  const auto baseline = WithThreads(1, eval);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(WithThreads(threads, eval), baseline)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, WeightedDirectedIndexBuildIsThreadCountInvariant) {
  auto graph = GenerateBarabasiAlbert(120, 3, 101);
  ASSERT_TRUE(graph.ok());
  WeightedGraph wg = AttachRandomWeights(*graph, 7, /*directed=*/true);
  WeightedTransitionModel model(&wg, /*directed=*/true);
  auto build = [&] {
    TransitionWalkSource source(&model, 55);
    return Flatten(InvertedWalkIndex::Build(4, 5, &source));
  };
  const auto baseline = WithThreads(1, build);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(WithThreads(threads, build), baseline)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, WeightedMetricsAreThreadCountInvariant) {
  Graph graph = GenerateErdosRenyiGnm(90, 360, 111).value();
  WeightedGraph wg = AttachRandomWeights(graph, 9, /*directed=*/false);
  WeightedTransitionModel model(&wg, /*directed=*/false);
  std::vector<NodeId> seeds{0, 17, 44};
  auto eval = [&] {
    MetricsResult m = SampledMetrics(model, seeds, 5, 40, 21);
    return std::make_pair(m.aht, m.ehn);
  };
  const auto baseline = WithThreads(1, eval);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(WithThreads(threads, eval), baseline)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, WeightedSamplingGreedyIsThreadCountInvariant) {
  Graph graph = GenerateErdosRenyiGnm(50, 200, 121).value();
  WeightedGraph wg = AttachRandomWeights(graph, 13, /*directed=*/false);
  WeightedTransitionModel model(&wg, /*directed=*/false);
  for (bool lazy : {false, true}) {
    auto select = [&] {
      SamplingGreedy greedy(&model, Problem::kHittingTime, /*length=*/4,
                            /*num_samples=*/15, /*seed=*/29,
                            GreedyOptions{.lazy = lazy});
      SelectionResult result = greedy.Select(4);
      return std::make_pair(result.selected, result.objective_estimate);
    };
    const auto baseline = WithThreads(1, select);
    for (int threads : kThreadCounts) {
      EXPECT_EQ(WithThreads(threads, select), baseline)
          << "lazy=" << lazy << " threads=" << threads;
    }
  }
}

TEST(DeterminismTest, EdgeGreedyIsThreadCountInvariant) {
  auto graph = GenerateBarabasiAlbert(50, 2, 71);
  ASSERT_TRUE(graph.ok());
  auto select = [&] {
    EdgeDominationGreedy greedy(&*graph, /*length=*/4, /*num_samples=*/15,
                                /*seed=*/23);
    SelectionResult result = greedy.Select(4);
    return std::make_pair(result.selected, result.objective_estimate);
  };
  const auto baseline = WithThreads(1, select);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(WithThreads(threads, select), baseline)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rwdom
