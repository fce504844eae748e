// Ads placement in an advertisement network (paper §1.1, second motivation)
// plus the paper's §5 minimum-seed extension.
//
// Scenario: an advertiser pays users to host an ad; browsing users find it
// via L-length random walks. Two business questions:
//
//   (a) "I can pay for k placements — should they make users find the ad
//        fast, or reach as many users as possible?" -> DP greedy for F1
//        (discovery time, Problem 1) against DP greedy for F2 (reach,
//        Problem 2).
//   (b) "I need the ad to reach at least a fraction α of the network —
//        what is the minimum number of paid placements?" -> minimum-seed
//        α-coverage (extension 3).
//
// Run: ./build/examples/ads_placement
#include <cstdio>
#include <memory>

#include "core/min_seed_cover.h"
#include "core/selector_registry.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "util/table_printer.h"
#include "util/strings.h"

int main() {
  using namespace rwdom;

  // Community-structured ad network (real networks are clustered, which is
  // what makes the two objectives pull in different directions).
  Graph graph =
      GeneratePowerLawCommunity(1500, 9000, /*num_communities=*/12,
                                /*mixing=*/0.08, /*seed=*/3)
          .value();
  const int32_t kBrowseLength = 5;
  std::printf("ad network: %s\n\n",
              ComputeGraphStats(graph).ToString().c_str());

  // --- (a) speed vs reach: DP greedy on each objective for k = 15. ---
  std::printf("(a) discovery time (DPF1) vs reach (DPF2), k=15\n");
  TablePrinter objective_table(
      {"objective", "avg discovery hops (AHT)", "users reached (EHN)"});
  for (const char* name : {"DPF1", "DPF2"}) {
    auto greedy = MakeSelector(name, &graph, {.length = kBrowseLength}).value();
    SelectionResult result = greedy->Select(15);
    MetricsResult metrics =
        ExactMetrics(graph, result.selected, kBrowseLength);
    objective_table.AddRow({name, StrFormat("%.3f", metrics.aht),
                            StrFormat("%.0f", metrics.ehn)});
  }
  objective_table.Print();
  std::printf(
      "DPF1 targets discovery time, DPF2 targets reach. On social graphs\n"
      "the two objectives agree closely — exactly the near-overlap of the\n"
      "ApproxF1/ApproxF2 curves in the paper's Figs. 6-7.\n\n");

  // --- (b) minimum placements for target coverage. ---
  std::printf("(b) minimum paid placements for target coverage alpha\n");
  TablePrinter cover_table(
      {"alpha", "placements needed", "achieved coverage", "seconds"});
  ApproxGreedyOptions options{.length = kBrowseLength,
                              .num_replicates = 100,
                              .seed = 9,
                              .lazy = true};
  for (double alpha : {0.5, 0.7, 0.9}) {
    MinSeedCoverResult cover = MinSeedCover(graph, alpha, options);
    double achieved = cover.coverage_after_pick.empty()
                          ? 0.0
                          : cover.coverage_after_pick.back() /
                                static_cast<double>(graph.num_nodes());
    cover_table.AddRow({StrFormat("%.1f", alpha),
                        std::to_string(cover.selected.size()),
                        StrFormat("%.1f%%", 100.0 * achieved),
                        StrFormat("%.2f", cover.seconds)});
  }
  cover_table.Print();
  std::printf(
      "\nDiminishing returns in action: each extra 20%% of coverage costs\n"
      "disproportionately more placements (submodularity).\n");
  return 0;
}
