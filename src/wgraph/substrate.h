// GraphSubstrate: one owning handle for "a graph plus its transition
// model", whatever the storage. This is what the CLI, dataset registry and
// harness pass around so that every command runs unchanged over unweighted
// undirected, weighted undirected, and weighted directed inputs.
//
// The substrate loader autodetects the input format: a third numeric
// column in the edge list becomes arc weights (and the substrate weighted)
// unless every weight is exactly 1.0, in which case the cheaper uniform
// model is used — the two are transition-equivalent. `--directed` inputs
// always use the weighted digraph storage (arcs are one-way even when all
// weights are 1).
#ifndef RWDOM_WGRAPH_SUBSTRATE_H_
#define RWDOM_WGRAPH_SUBSTRATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"
#include "walk/transition_model.h"
#include "wgraph/weighted_graph.h"
#include "wgraph/weighted_transition_model.h"

namespace rwdom {

/// Owns either an unweighted Graph or a WeightedGraph, plus the
/// TransitionModel over it. Movable; the model stays valid across moves
/// because the graph lives behind a stable heap allocation.
class GraphSubstrate {
 public:
  /// Empty unweighted substrate (0 nodes).
  GraphSubstrate() : GraphSubstrate(Graph()) {}

  explicit GraphSubstrate(Graph graph);
  GraphSubstrate(WeightedGraph graph, bool directed);

  GraphSubstrate(GraphSubstrate&&) noexcept = default;
  GraphSubstrate& operator=(GraphSubstrate&&) noexcept = default;

  bool weighted() const { return weighted_graph_ != nullptr; }
  bool directed() const { return directed_; }

  NodeId num_nodes() const { return model().num_nodes(); }

  /// Undirected edges for the unweighted substrate, stored arcs for the
  /// weighted one (an undirected weighted edge counts twice).
  int64_t num_links() const;

  const TransitionModel& model() const { return *model_; }

  /// The unweighted graph; null when weighted().
  const Graph* graph() const { return graph_.get(); }

  /// The weighted digraph; null unless weighted().
  const WeightedGraph* weighted_graph() const {
    return weighted_graph_.get();
  }

  /// Heap footprint of the graph storage + sampling tables, in bytes.
  int64_t MemoryUsageBytes() const { return model().MemoryUsageBytes(); }

  /// "uniform", "weighted" or "weighted-directed".
  std::string kind() const { return model().name(); }

 private:
  // unique_ptrs so the addresses the model captured survive moves.
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<WeightedGraph> weighted_graph_;
  std::unique_ptr<TransitionModel> model_;
  bool directed_ = false;
};

/// How the substrate loader treats edge weights in the input.
enum class SubstrateWeights {
  kAuto,    ///< Numeric third column => weighted (all-1.0 stays uniform).
  kForce,   ///< Always builds the weighted substrate; a third column, when
            ///< present, must be a valid weight (missing columns mean 1.0).
  kIgnore,  ///< Never read the third column; unweighted unless --directed.
};

/// Options for ParseSubstrate / LoadSubstrate.
struct SubstrateOptions {
  bool directed = false;
  SubstrateWeights weights = SubstrateWeights::kAuto;
};

/// A loaded substrate plus its original-id mapping.
struct LoadedSubstrate {
  GraphSubstrate substrate;
  /// original_ids[dense] = id as it appeared in the file.
  std::vector<int64_t> original_ids;
};

/// Parses edge-list text into the cheapest substrate that preserves walk
/// semantics (see the file comment for the autodetection rules).
Result<LoadedSubstrate> ParseSubstrate(const std::string& text,
                                       const SubstrateOptions& options = {});

/// Loads an edge list from `path` via ParseSubstrate.
Result<LoadedSubstrate> LoadSubstrate(const std::string& path,
                                      const SubstrateOptions& options = {});

/// Content fingerprint of a substrate: a 64-bit digest of everything a
/// walk-index build reads — storage kind, directedness, node count, and
/// the full adjacency (targets, and weight bits on the weighted path) in
/// dense-id order. Two substrates with equal fingerprints drive
/// bit-identical index builds for any (L, R, seed), which is what lets
/// the persist layer adopt a snapshot instead of rebuilding; original
/// (pre-remap) ids are deliberately excluded because the index never
/// reads them. Stable across releases (see util/fingerprint.h).
uint64_t SubstrateFingerprint(const GraphSubstrate& substrate);

/// Attaches deterministic pseudo-random weights in [min_weight, max_weight)
/// to an unweighted topology, producing a weighted substrate stand-in for
/// experiments. The weight of each edge is a pure function of
/// (seed, endpoints), so the result is independent of edge order. With
/// `directed` false the two arcs of an edge share one weight; with it true
/// they draw independent weights (an asymmetric digraph).
WeightedGraph AttachRandomWeights(const Graph& graph, uint64_t seed,
                                  bool directed, double min_weight = 0.25,
                                  double max_weight = 4.0);

}  // namespace rwdom

#endif  // RWDOM_WGRAPH_SUBSTRATE_H_
