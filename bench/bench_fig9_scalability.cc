// Figure 9 of the paper: scalability of ApproxF1 / ApproxF2 on a series of
// power-law graphs G_1..G_10 where G_i has i*0.1M nodes and i*1M edges
// (L = 6, k = 100).
//
// Expected shape: running time linear in the number of nodes and in the
// number of edges.
//
// Quick mode runs a 10x-reduced series (G_i: i*10k nodes, i*100k edges)
// with R = 50; --full runs the paper's exact sizes with R = 100 (needs
// several GB of RAM for the inverted index at 1M nodes).
#include <cstdio>
#include <vector>

#include "core/approx_greedy.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace rwdom;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBanner("Figure 9",
              "Scalability on the power-law series G_1..G_10 (L=6, k=100)",
              args);

  const int64_t node_step = args.full ? 100000 : 10000;
  const int64_t edge_step = args.full ? 1000000 : 100000;
  const int32_t replicates = args.full ? 100 : 50;
  const int32_t length = 6;
  const int32_t k = 100;

  TablePrinter table({"graph", "nodes", "edges", "gen seconds",
                      "ApproxF1 seconds", "ApproxF2 seconds",
                      "index MB"});
  CsvWriter csv({"i", "nodes", "edges", "approxf1_seconds",
                 "approxf2_seconds", "index_mb"});
  for (int i = 1; i <= 10; ++i) {
    const NodeId n = static_cast<NodeId>(i * node_step);
    const int64_t m = i * edge_step;
    WallTimer gen_timer;
    Graph graph = GeneratePowerLawWithSize(n, m, args.seed + i).value();
    const double gen_seconds = gen_timer.Seconds();

    double seconds[2];
    double index_mb = 0.0;
    int index = 0;
    for (Problem problem :
         {Problem::kHittingTime, Problem::kDominatedCount}) {
      ApproxGreedyOptions options{.length = length,
                                  .num_replicates = replicates,
                                  .seed = args.seed,
                                  .lazy = true};
      ApproxGreedy approx(&graph, problem, options);
      seconds[index++] = approx.Select(k).seconds;
      index_mb = static_cast<double>(approx.index()->MemoryUsageBytes()) /
                 (1024.0 * 1024.0);
    }
    table.AddRow({StrFormat("G_%d", i), FormatWithCommas(n),
                  FormatWithCommas(m), StrFormat("%.1f", gen_seconds),
                  StrFormat("%.2f", seconds[0]),
                  StrFormat("%.2f", seconds[1]),
                  StrFormat("%.0f", index_mb)});
    csv.AddRow({std::to_string(i), std::to_string(n), std::to_string(m),
                StrFormat("%.4f", seconds[0]),
                StrFormat("%.4f", seconds[1]), StrFormat("%.1f", index_mb)});
  }
  table.Print();
  std::printf(
      "\nLinearity check: seconds(G_10)/seconds(G_1) should be ~10 for both "
      "algorithms.\n");
  MaybeDumpCsv(args, "fig9_scalability", csv.ToString());
  return 0;
}
