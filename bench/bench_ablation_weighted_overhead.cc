// Ablation (beyond the paper's figures): what does weighted-walk support
// cost? Runs the approximate greedy on the same topology through (a) the
// uniform-neighbor transition model and (b) the weighted alias-table model
// with all weights 1 — identical distributions, different samplers, one
// shared engine (ApproxGreedy over TransitionModel).
//
// Expected shape: the alias walker costs a small constant factor (it draws
// two random numbers per step instead of one), preserving the O(kRLn)
// complexity — the claim behind the paper's "easily extended to weighted
// graphs" remark.
#include <cstdio>
#include <vector>

#include "core/approx_greedy.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "util/strings.h"
#include "wgraph/weighted_graph.h"
#include "wgraph/weighted_transition_model.h"

int main(int argc, char** argv) {
  using namespace rwdom;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBanner("Ablation: weighted-walk overhead",
              "ApproxF2 via uniform model vs alias model (weights = 1)",
              args);

  const std::vector<NodeId> sizes =
      args.full ? std::vector<NodeId>{20000, 40000, 80000}
                : std::vector<NodeId>{5000, 10000, 20000};
  const int32_t replicates = args.full ? 50 : 25;
  const int32_t k = args.full ? 50 : 25;

  TablePrinter table({"nodes", "edges", "unweighted s", "weighted s",
                      "overhead"});
  for (NodeId n : sizes) {
    const int64_t m = static_cast<int64_t>(n) * 10;
    Graph graph = GeneratePowerLawWithSize(n, m, args.seed).value();
    WeightedGraph weighted = WeightedGraph::FromUnweighted(graph);
    UniformTransitionModel uniform_model(&graph);
    WeightedTransitionModel weighted_model(&weighted, /*directed=*/false);

    ApproxGreedyOptions options{
        .length = 6, .num_replicates = replicates, .seed = args.seed,
        .lazy = true};
    ApproxGreedy unweighted(&uniform_model, Problem::kDominatedCount,
                            options);
    const double unweighted_s = unweighted.Select(k).seconds;

    ApproxGreedy weighted_greedy(&weighted_model, Problem::kDominatedCount,
                                 options);
    const double weighted_s = weighted_greedy.Select(k).seconds;

    const double overhead = weighted_s / unweighted_s;
    table.AddRow({FormatWithCommas(n), FormatWithCommas(m),
                  StrFormat("%.3f", unweighted_s),
                  StrFormat("%.3f", weighted_s),
                  StrFormat("%.2fx", overhead)});
  }
  table.Print();
  return 0;
}
