// Google-benchmark micro kernels for the hot paths behind every figure:
// walk sampling, the hitting-time / hit-probability DPs, inverted index
// construction, gain evaluation, and graph generation.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "graph/generators.h"
#include "graph/node_set.h"
#include "graph/properties.h"
#include "index/gain_state.h"
#include "index/inverted_walk_index.h"
#include "util/parallel.h"
#include "walk/sampled_evaluator.h"
#include "walk/transition_dp.h"
#include "walk/walk_source.h"

namespace rwdom {
namespace {

const Graph& BenchGraph() {
  static const Graph* const kGraph =
      new Graph(GeneratePowerLawWithSize(10000, 50000, 1).value());
  return *kGraph;
}

// Times one stream walk per iteration, as the index build and the sampled
// evaluator draw them: the per-(node, stream) RNG seeding plus L steps.
void BM_RandomWalkSampling(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const int32_t length = static_cast<int32_t>(state.range(0));
  RandomWalkSource source(&graph, 7);
  std::vector<NodeId> walk;
  NodeId start = 0;
  uint64_t stream = 0;
  for (auto _ : state) {
    source.SampleWalkStream(start, stream, length, &walk);
    benchmark::DoNotOptimize(walk.data());
    if (++start == graph.num_nodes()) {
      start = 0;
      ++stream;
    }
  }
  state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_RandomWalkSampling)->Arg(4)->Arg(8)->Arg(16);

void BM_HittingTimeDp(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const int32_t length = static_cast<int32_t>(state.range(0));
  TransitionDp dp(&graph, length);
  NodeFlagSet targets(graph.num_nodes(), {1, 5, 9, 42, 137});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.F1(targets));
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges() * length);
}
BENCHMARK(BM_HittingTimeDp)->Arg(5)->Arg(10);

void BM_HitProbabilityDp(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const int32_t length = static_cast<int32_t>(state.range(0));
  TransitionDp dp(&graph, length);
  NodeFlagSet targets(graph.num_nodes(), {1, 5, 9, 42, 137});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.F2(targets));
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges() * length);
}
BENCHMARK(BM_HitProbabilityDp)->Arg(5)->Arg(10);

void BM_InvertedIndexBuild(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const int32_t replicates = static_cast<int32_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    RandomWalkSource source(&graph, seed++);
    InvertedWalkIndex index = InvertedWalkIndex::Build(6, replicates, &source);
    benchmark::DoNotOptimize(index.TotalEntries());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_nodes() *
                          replicates);
}
BENCHMARK(BM_InvertedIndexBuild)->Arg(10)->Arg(50);

void BM_ApproxGainFullScan(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  static const InvertedWalkIndex* const kIndex = [] {
    RandomWalkSource source(&BenchGraph(), 3);
    return new InvertedWalkIndex(InvertedWalkIndex::Build(6, 50, &source));
  }();
  GainState gain_state(kIndex, Problem::kHittingTime);
  for (auto _ : state) {
    double best = 0.0;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      best = std::max(best, gain_state.ApproxGain(u));
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * kIndex->TotalEntries());
}
BENCHMARK(BM_ApproxGainFullScan);

// Thread-scaling variants of the parallel hot paths; run with
// --benchmark_format=json for machine-readable output. Outputs are
// bit-identical across thread counts (counter-derived RNG streams), so
// these measure pure scheduling/throughput effects.
void BM_InvertedIndexBuildThreads(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    RandomWalkSource source(&graph, 5);
    InvertedWalkIndex index = InvertedWalkIndex::Build(6, 20, &source);
    benchmark::DoNotOptimize(index.TotalEntries());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_nodes() * 20);
  SetNumThreads(0);
}
BENCHMARK(BM_InvertedIndexBuildThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_ApproxGainBatchScanThreads(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  static const InvertedWalkIndex* const kIndex = [] {
    RandomWalkSource source(&BenchGraph(), 3);
    return new InvertedWalkIndex(InvertedWalkIndex::Build(6, 50, &source));
  }();
  SetNumThreads(static_cast<int>(state.range(0)));
  GainState gain_state(kIndex, Problem::kHittingTime);
  std::vector<double> gains;
  for (auto _ : state) {
    gain_state.ApproxGainAll(&gains);
    benchmark::DoNotOptimize(gains.data());
  }
  state.SetItemsProcessed(state.iterations() * kIndex->TotalEntries());
  SetNumThreads(0);
  (void)graph;
}
BENCHMARK(BM_ApproxGainBatchScanThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_SampledEvaluator(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  const int32_t samples = static_cast<int32_t>(state.range(0));
  SampledEvaluator evaluator(6, samples);
  NodeFlagSet targets(graph.num_nodes(), {1, 5, 9, 42, 137});
  uint64_t seed = 11;
  for (auto _ : state) {
    RandomWalkSource source(&graph, seed++);
    SampledObjectives result = evaluator.Evaluate(targets, &source);
    benchmark::DoNotOptimize(result.f1);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_nodes() * samples);
}
BENCHMARK(BM_SampledEvaluator)->Arg(10)->Arg(50);

// --- Posting decode + tally kernels (the compressed-index hot loop) ---

const InvertedWalkIndex& BenchIndex() {
  static const InvertedWalkIndex* const kIndex = [] {
    RandomWalkSource source(&BenchGraph(), 3);
    return new InvertedWalkIndex(InvertedWalkIndex::Build(6, 50, &source));
  }();
  return *kIndex;
}

// The Problem 1 savings tally of GainState::ApproxGain over one run of
// postings; both scan benchmarks below share it, so they differ only in
// where the postings come from.
int64_t SumSavings(const int32_t* d_row, const int32_t* ids,
                   const int32_t* weights, size_t count) {
  int64_t total = 0;
  for (size_t k = 0; k < count; ++k) {
    const int32_t saved = d_row[ids[k]] - weights[k];
    if (saved > 0) total += saved;
  }
  return total;
}

// Block-decode every list and run the savings tally on each block.
void BM_CompressedScanTally(benchmark::State& state) {
  const InvertedWalkIndex& index = BenchIndex();
  std::vector<int32_t> d(static_cast<size_t>(index.num_nodes()),
                         index.length());
  for (auto _ : state) {
    int64_t total = 0;
    for (int32_t i = 0; i < index.num_replicates(); ++i) {
      for (NodeId v = 0; v < index.num_nodes(); ++v) {
        for (auto cursor = index.List(i, v); cursor.Next();) {
          total += SumSavings(d.data(), cursor.ids(), cursor.weights(),
                              static_cast<size_t>(cursor.count()));
        }
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * index.TotalEntries());
}
BENCHMARK(BM_CompressedScanTally);

// The same tally over pre-decoded (raw CSR) arrays — isolates the decode
// cost the compressed layout adds and the bandwidth it saves.
void BM_RawScanTally(benchmark::State& state) {
  const InvertedWalkIndex& index = BenchIndex();
  // Flatten to one ids/weights pair per replicate (list bounds dropped:
  // the savings tally is list-oblivious).
  std::vector<std::vector<int32_t>> ids(
      static_cast<size_t>(index.num_replicates()));
  std::vector<std::vector<int32_t>> weights(ids.size());
  for (int32_t i = 0; i < index.num_replicates(); ++i) {
    for (NodeId v = 0; v < index.num_nodes(); ++v) {
      for (const auto& e : index.DecodeList(i, v)) {
        ids[static_cast<size_t>(i)].push_back(e.id);
        weights[static_cast<size_t>(i)].push_back(e.weight);
      }
    }
  }
  std::vector<int32_t> d(static_cast<size_t>(index.num_nodes()),
                         index.length());
  for (auto _ : state) {
    int64_t total = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      total += SumSavings(d.data(), ids[i].data(), weights[i].data(),
                          ids[i].size());
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * index.TotalEntries());
}
BENCHMARK(BM_RawScanTally);

void BM_GeneratePowerLaw(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    Graph graph = GeneratePowerLawWithSize(n, 5 * n, seed++).value();
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GeneratePowerLaw)->Arg(10000)->Arg(100000);

void BM_BfsSweep(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  NodeId start = 0;
  for (auto _ : state) {
    auto dist = BfsDistances(graph, start);
    benchmark::DoNotOptimize(dist.data());
    start = (start + 1) % graph.num_nodes();
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
}
BENCHMARK(BM_BfsSweep);

}  // namespace
}  // namespace rwdom
