// Compression receipt for the inverted walk index: bytes/entry of the
// delta+varint posting layout vs. the former raw CSR, plus the cost of
// one decode + savings-tally sweep through GainState::ApproxGain.
//
// The binary exits non-zero if
//   - any decoded posting list diverges from a brute-force inversion of
//     the identical walk streams (the codec must be lossless), or
//   - the compression ratio falls under 2x on the CAGrQc stand-in (the
//     layout's reason to exist).
// The tier-1 tests PostingsCodecTest.CompressedIndexMatchesRawInversion
// and InvertedWalkIndexTest.EntryBoundAndMemoryAccounting hold the same
// two properties.
#include <cstdio>
#include <vector>

#include "harness/dataset_registry.h"
#include "harness/experiment.h"
#include "index/gain_state.h"
#include "index/inverted_walk_index.h"
#include "util/logging.h"
#include "util/timer.h"
#include "walk/walk_source.h"

namespace rwdom {
namespace {

// Replays the exact (node, replicate) walk streams Build() consumed and
// inverts them by hand; any divergence from DecodeList is a codec bug.
bool VerifyLossless(const InvertedWalkIndex& index, const Graph& graph,
                    uint64_t seed) {
  RandomWalkSource replay(&graph, seed);
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> walk;
  for (int32_t i = 0; i < index.num_replicates(); ++i) {
    std::vector<std::vector<InvertedWalkIndex::Entry>> expected(
        static_cast<size_t>(n));
    std::vector<bool> visited(static_cast<size_t>(n));
    for (NodeId w = 0; w < n; ++w) {
      replay.SampleWalkStream(w, static_cast<uint64_t>(i), index.length(),
                              &walk);
      visited.assign(static_cast<size_t>(n), false);
      visited[static_cast<size_t>(walk[0])] = true;
      for (size_t j = 1; j < walk.size(); ++j) {
        if (visited[static_cast<size_t>(walk[j])]) continue;
        visited[static_cast<size_t>(walk[j])] = true;
        expected[static_cast<size_t>(walk[j])].push_back(
            {w, static_cast<int32_t>(j)});
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (index.DecodeList(i, v) != expected[static_cast<size_t>(v)]) {
        std::fprintf(stderr, "DECODE MISMATCH replicate=%d node=%d\n", i,
                     v);
        return false;
      }
    }
  }
  return true;
}

// Full decode + savings-tally sweep over every list — the greedy's first
// round, one ApproxGain per node on the Problem 1 hot loop.
double TimeScanTally(const InvertedWalkIndex& index, int rounds) {
  const GainState gain_state(&index, Problem::kHittingTime);
  WallTimer timer;
  double total = 0.0;
  for (int round = 0; round < rounds; ++round) {
    for (NodeId u = 0; u < index.num_nodes(); ++u) {
      total += gain_state.ApproxGain(u);
    }
  }
  const double seconds = timer.Seconds();
  RWDOM_CHECK_GE(total, 0.0);  // Keep the sweep observable.
  return seconds / rounds;
}

int Run(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBanner("index_compression",
              "compressed posting layout: bytes/entry, ratio, scan cost",
              args);

  const double scale = args.full ? 1.0 : 0.05;
  auto dataset =
      LoadOrSynthesizeScaledDataset("CAGrQc", args.data_dir, scale);
  RWDOM_CHECK(dataset.ok()) << dataset.status();
  const Graph& graph = dataset->graph;
  const int32_t length = 6;
  const int32_t replicates = args.full ? 100 : 50;
  std::printf("dataset=%s n=%d m=%lld L=%d R=%d (scale=%.2f)\n\n",
              dataset->name.c_str(), graph.num_nodes(),
              static_cast<long long>(graph.num_edges()), length, replicates,
              scale);

  WallTimer build_timer;
  RandomWalkSource source(&graph, args.seed);
  InvertedWalkIndex index =
      InvertedWalkIndex::Build(length, replicates, &source);
  const double build_seconds = build_timer.Seconds();

  const bool lossless = VerifyLossless(index, graph, args.seed);

  const int64_t entries = index.TotalEntries();
  const int64_t compressed = index.MemoryUsageBytes();
  const int64_t raw = index.UncompressedBytes();
  const double bpe_compressed =
      static_cast<double>(compressed) / static_cast<double>(entries);
  const double bpe_raw =
      static_cast<double>(raw) / static_cast<double>(entries);
  const double ratio =
      static_cast<double>(raw) / static_cast<double>(compressed);

  const int rounds = args.full ? 20 : 5;
  const double scan_seconds = TimeScanTally(index, rounds);

  std::printf("entries=%lld compressed=%lld bytes raw=%lld bytes\n",
              static_cast<long long>(entries),
              static_cast<long long>(compressed),
              static_cast<long long>(raw));
  std::printf("bytes/entry: compressed=%.3f raw=%.3f ratio=%.2fx\n",
              bpe_compressed, bpe_raw, ratio);
  std::printf("scan+tally: %.3f ms per sweep\n", scan_seconds * 1e3);
  std::printf("build=%.3f ms; postings %s; ratio %s 2x target\n",
              build_seconds * 1e3,
              lossless ? "lossless" : "MISMATCH",
              ratio >= 2.0 ? "meets" : "MISSES");

  return (lossless && ratio >= 2.0) ? 0 : 1;
}

}  // namespace
}  // namespace rwdom

int main(int argc, char** argv) { return rwdom::Run(argc, argv); }
