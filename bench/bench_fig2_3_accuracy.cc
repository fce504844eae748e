// Figures 2 and 3 of the paper: accuracy of the approximate greedy
// algorithms against the DP-based greedy on the small synthetic power-law
// graph (1,000 nodes / 9,956 edges), k = 30.
//
// Fig. 2: DPF1 vs ApproxF1 — AHT and EHN as a function of the sample count
//         R in {50, 100, 150, 200, 250}, for L = 5 and L = 10.
// Fig. 3: DPF2 vs ApproxF2 — same axes.
//
// Expected shape (paper §4.2): the Approx curves flatten onto the DP
// dashed line for R >= 50-100; max AHT gap ~0.01, max EHN gap ~1.5.
// This binary checks that claim: it exits 1 if any Approx row lands
// more than 0.01 AHT or 1.5 EHN away from its DP row.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/approx_greedy.h"
#include "core/dp_greedy.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "util/table_printer.h"
#include "util/csv.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace rwdom;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintBanner("Figures 2-3",
              "DP greedy vs approximate greedy accuracy (AHT & EHN vs R)",
              args);

  // The paper's synthetic graph: 1,000 nodes, 9,956 edges, power law.
  Graph graph = GeneratePowerLawWithSize(1000, 9956, args.seed).value();
  const int32_t k = 30;
  const std::vector<int32_t> r_values = {50, 100, 150, 200, 250};
  // Metrics use the paper's protocol: Algorithm 2 with R = 500.
  const int32_t metric_samples = 500;
  // The paper's stated accuracy (§4.2).
  const double kAhtTolerance = 0.01;
  const double kEhnTolerance = 1.5;
  double max_aht_gap = 0.0;
  double max_ehn_gap = 0.0;

  CsvWriter csv({"figure", "problem", "L", "algorithm", "R", "AHT", "EHN"});
  for (int32_t length : {5, 10}) {
    for (Problem problem :
         {Problem::kHittingTime, Problem::kDominatedCount}) {
      const char* figure =
          problem == Problem::kHittingTime ? "Fig2" : "Fig3";
      // DP reference line.
      DpGreedy dp(&graph, problem, length);
      SelectionResult dp_result = dp.Select(k);
      MetricsResult dp_metrics = SampledMetrics(
          graph, dp_result.selected, length, metric_samples, args.seed + 1);

      std::printf("%s (%s), L=%d, k=%d\n", figure,
                  std::string(ProblemName(problem)).c_str(), length, k);
      TablePrinter table({"algorithm", "R", "AHT", "EHN"});
      table.AddRow({std::string("DP") + std::string(ProblemName(problem)),
                    "-", StrFormat("%.4f", dp_metrics.aht),
                    StrFormat("%.2f", dp_metrics.ehn)});
      csv.AddRow({figure, std::string(ProblemName(problem)),
                  std::to_string(length),
                  std::string("DP") + std::string(ProblemName(problem)), "0",
                  StrFormat("%.6f", dp_metrics.aht),
                  StrFormat("%.6f", dp_metrics.ehn)});

      for (int32_t r : r_values) {
        ApproxGreedyOptions options{.length = length,
                                    .num_replicates = r,
                                    .seed = args.seed + 7,
                                    .lazy = true};
        ApproxGreedy approx(&graph, problem, options);
        SelectionResult result = approx.Select(k);
        MetricsResult metrics = SampledMetrics(
            graph, result.selected, length, metric_samples, args.seed + 1);
        max_aht_gap =
            std::max(max_aht_gap, std::abs(metrics.aht - dp_metrics.aht));
        max_ehn_gap =
            std::max(max_ehn_gap, std::abs(metrics.ehn - dp_metrics.ehn));
        table.AddRow(
            {approx.name(), std::to_string(r),
             StrFormat("%.4f", metrics.aht), StrFormat("%.2f", metrics.ehn)});
        csv.AddRow({figure, std::string(ProblemName(problem)),
                    std::to_string(length), approx.name(), std::to_string(r),
                    StrFormat("%.6f", metrics.aht),
                    StrFormat("%.6f", metrics.ehn)});
      }
      table.Print();
      std::printf("\n");
    }
  }
  MaybeDumpCsv(args, "fig2_3_accuracy", csv.ToString());
  const bool within = max_aht_gap <= kAhtTolerance &&
                      max_ehn_gap <= kEhnTolerance;
  std::printf("max gap to DP: AHT %.4f (tolerance %.2f), EHN %.2f "
              "(tolerance %.1f): %s\n",
              max_aht_gap, kAhtTolerance, max_ehn_gap, kEhnTolerance,
              within ? "within" : "OUTSIDE");
  return within ? 0 : 1;
}
