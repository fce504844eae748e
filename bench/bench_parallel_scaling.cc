// Serial-vs-N-thread scaling of the three parallel hot paths: inverted
// index construction (Algorithm 3), the batch gain scan (Algorithm 4), and
// Monte-Carlo evaluation (Algorithm 2), plus the end-to-end ApproxF2
// greedy. Prints each thread count's index_entries, index_hash and
// gains_hash, and cross-checks that every thread count produces
// bit-identical output — the determinism guarantee the counter-derived
// RNG streams exist for. DeterminismTest.ParallelScalingOutputsArePinned
// pins the quick-mode values.
//
// Quick mode uses an ER graph with n=20k, m=100k; --full uses n=100k,
// m=500k (the acceptance configuration: >= 3x index-build speedup at 4
// threads on 4+ cores).
#include <algorithm>
#include <bit>
#include <cstdio>
#include <vector>

#include "core/approx_greedy.h"
#include "graph/generators.h"
#include "graph/node_set.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "index/gain_state.h"
#include "index/inverted_walk_index.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/timer.h"
#include "walk/sampled_evaluator.h"

int main(int argc, char** argv) {
  using namespace rwdom;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBanner("Parallel scaling",
              "Index build / gain scan / sampled eval, serial vs N threads",
              args);

  const NodeId n = args.full ? 100000 : 20000;
  const int64_t m = args.full ? 500000 : 100000;
  const int32_t length = 6;
  const int32_t replicates = args.full ? 50 : 20;
  const int32_t eval_samples = args.full ? 50 : 20;
  const int32_t k = 20;

  WallTimer gen_timer;
  Graph graph = GenerateErdosRenyiGnm(n, m, args.seed).value();
  std::printf("generated ER n=%d m=%lld in %.1f s\n\n", n,
              static_cast<long long>(m), gen_timer.Seconds());

  // Default sweep {1, 2, 4} (+hardware when wider) always includes 4 so
  // the determinism cross-check exercises real multithreading even on
  // small machines; an explicit --threads=N is a hard cap and bounds the
  // sweep to N.
  std::vector<int> thread_counts = {1, 2, 4};
  if (args.threads > 0) {
    thread_counts.erase(
        std::remove_if(thread_counts.begin(), thread_counts.end(),
                       [&](int t) { return t > args.threads; }),
        thread_counts.end());
    if (thread_counts.empty() || thread_counts.back() != args.threads) {
      thread_counts.push_back(args.threads);
    }
  } else if (HardwareThreads() > 4) {
    thread_counts.push_back(HardwareThreads());
  }

  struct Row {
    int threads;
    double build_seconds;
    double scan_seconds;
    double eval_seconds;
    double greedy_seconds;
    int64_t index_entries;
    uint64_t index_hash;
    uint64_t gains_hash;
    double eval_f1;
    double eval_f2;
    double greedy_objective;
    std::vector<NodeId> greedy_seeds;
  };
  std::vector<Row> rows;

  // FNV-1a over the full content of each measured output, so the
  // determinism gate catches any divergence — permuted index entries,
  // perturbed gains or estimates — not just count changes.
  constexpr uint64_t kFnvOffset = 1469598103934665603ull;
  constexpr uint64_t kFnvPrime = 1099511628211ull;
  auto mix = [](uint64_t h, uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((x >> (8 * b)) & 0xff)) * kFnvPrime;
    }
    return h;
  };

  NodeFlagSet eval_set(n, {0, 1, 2, 3, 4});
  for (int threads : thread_counts) {
    SetNumThreads(threads);
    Row row;
    row.threads = threads;

    {
      WallTimer timer;
      RandomWalkSource source(&graph, args.seed + 1);
      InvertedWalkIndex index =
          InvertedWalkIndex::Build(length, replicates, &source);
      row.build_seconds = timer.Seconds();
      row.index_entries = index.TotalEntries();
      uint64_t index_hash = kFnvOffset;
      for (int32_t i = 0; i < index.num_replicates(); ++i) {
        for (NodeId v = 0; v < index.num_nodes(); ++v) {
          for (const InvertedWalkIndex::Entry& e : index.DecodeList(i, v)) {
            index_hash = mix(index_hash,
                             (static_cast<uint64_t>(static_cast<uint32_t>(
                                  e.id))
                              << 32) |
                                 static_cast<uint32_t>(e.weight));
          }
        }
      }
      row.index_hash = index_hash;

      GainState state(&index, Problem::kDominatedCount);
      std::vector<double> gains;
      WallTimer scan_timer;
      state.ApproxGainAll(&gains);
      row.scan_seconds = scan_timer.Seconds();
      uint64_t gains_hash = kFnvOffset;
      for (double g : gains) gains_hash = mix(gains_hash, std::bit_cast<uint64_t>(g));
      row.gains_hash = gains_hash;
    }
    {
      WallTimer timer;
      RandomWalkSource source(&graph, args.seed + 2);
      SampledEvaluator evaluator(length, eval_samples);
      SampledObjectives estimates = evaluator.Evaluate(eval_set, &source);
      row.eval_seconds = timer.Seconds();
      row.eval_f1 = estimates.f1;
      row.eval_f2 = estimates.f2;
    }
    {
      ApproxGreedyOptions options{.length = length,
                                  .num_replicates = replicates,
                                  .seed = args.seed + 3,
                                  .lazy = true};
      ApproxGreedy greedy(&graph, Problem::kDominatedCount, options);
      SelectionResult result = greedy.Select(k);
      row.greedy_seconds = result.seconds;
      row.greedy_objective = result.objective_estimate;
      row.greedy_seeds = result.selected;
    }
    rows.push_back(std::move(row));
  }
  SetNumThreads(0);

  // Thread-count invariance: every row must reproduce the 1-thread output
  // bit for bit (index content, gain scan, estimates, and selection).
  bool deterministic = true;
  for (const Row& row : rows) {
    deterministic = deterministic &&
                    row.index_entries == rows.front().index_entries &&
                    row.index_hash == rows.front().index_hash &&
                    row.gains_hash == rows.front().gains_hash &&
                    row.eval_f1 == rows.front().eval_f1 &&
                    row.eval_f2 == rows.front().eval_f2 &&
                    row.greedy_seeds == rows.front().greedy_seeds &&
                    row.greedy_objective == rows.front().greedy_objective;
  }

  TablePrinter table({"threads", "index build s", "speedup", "gain scan s",
                      "sampled eval s", "ApproxF2 s", "speedup"});
  for (const Row& row : rows) {
    table.AddRow({std::to_string(row.threads),
                  StrFormat("%.3f", row.build_seconds),
                  StrFormat("%.2fx", rows.front().build_seconds /
                                         std::max(row.build_seconds, 1e-9)),
                  StrFormat("%.3f", row.scan_seconds),
                  StrFormat("%.3f", row.eval_seconds),
                  StrFormat("%.3f", row.greedy_seconds),
                  StrFormat("%.2fx", rows.front().greedy_seconds /
                                         std::max(row.greedy_seconds,
                                                  1e-9))});
  }
  table.Print();
  std::printf("\n");
  for (const Row& row : rows) {
    std::printf("threads=%d index_entries=%lld index_hash=%lld "
                "gains_hash=%lld\n",
                row.threads, static_cast<long long>(row.index_entries),
                static_cast<long long>(row.index_hash),
                static_cast<long long>(row.gains_hash));
  }
  std::printf("outputs thread-count invariant: %s\n",
              deterministic ? "yes" : "NO — BUG");
  return deterministic ? 0 : 1;
}
