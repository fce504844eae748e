// WalkSource: where L-length random-walk trajectories come from.
//
// Algorithms 2 (sampling evaluator) and 3 (inverted index construction)
// only ever ask for "walk i from node w", so a source is one pure const
// function of (start, stream): the walk is the same on any thread, in any
// call order, and on every replay. That lets unit tests replay fixed
// walks — e.g. the exact walks of the paper's Example 3.1 — through the
// same parallel code paths production runs. The one real sampler is
// TransitionWalkSource, which walks any TransitionModel (uniform-neighbor
// or weighted alias-table); RandomWalkSource is a thin unweighted adapter
// over it. DrawWalk is the step loop both share, for callers that own
// their RNG.
#ifndef RWDOM_WALK_WALK_SOURCE_H_
#define RWDOM_WALK_WALK_SOURCE_H_

#include <map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "walk/transition_model.h"

namespace rwdom {

/// Fills `*trajectory` (cleared first) with one walk Z^0..Z^{L'} from
/// `start` of at most `length` hops over `model`, consuming `rng`. The
/// walk stops early only on a node with no outgoing moves.
void DrawWalk(const TransitionModel& model, Rng* rng, NodeId start,
              int32_t length, std::vector<NodeId>* trajectory);

/// Produces trajectories Z^0..Z^{L'} (Z^0 = start; L' == length unless the
/// walk reaches a node with no outgoing moves). Deliberately independent of
/// any concrete graph type so the same consumers (Algorithm 2 evaluation,
/// Algorithm 3 index construction) also work over weighted/directed graphs.
class WalkSource {
 public:
  virtual ~WalkSource() = default;

  /// Fills `*trajectory` (cleared first) with walk number `stream` from
  /// `start`, of at most `length` hops. A pure function of the source and
  /// its arguments: callers use the replicate (or sample) index as
  /// `stream`, so replicate i of node w is the same walk no matter which
  /// thread draws it, or when. Safe to call concurrently.
  virtual void SampleWalkStream(NodeId start, uint64_t stream,
                                int32_t length,
                                std::vector<NodeId>* trajectory) const = 0;

  /// Size of the node universe walks live in.
  virtual NodeId num_nodes() const = 0;
};

/// The unified walk engine: samples steps from any TransitionModel;
/// xoshiro-backed. Walk `stream` from `start` is drawn from an RNG seeded
/// by (seed, start, stream) alone, enabling thread-count-invariant
/// parallel sampling on every substrate.
class TransitionWalkSource final : public WalkSource {
 public:
  /// `model` must outlive this object.
  TransitionWalkSource(const TransitionModel* model, uint64_t seed)
      : model_(*model), seed_(seed) {}

  void SampleWalkStream(NodeId start, uint64_t stream, int32_t length,
                        std::vector<NodeId>* trajectory) const override;

  NodeId num_nodes() const override { return model_.num_nodes(); }
  const TransitionModel& model() const { return model_; }

 private:
  const TransitionModel& model_;
  uint64_t seed_;
};

/// Uniform random neighbor at every step: TransitionWalkSource bound to an
/// owned UniformTransitionModel, kept as the unweighted convenience API.
class RandomWalkSource final : public WalkSource {
 public:
  /// `graph` must outlive the source.
  RandomWalkSource(const Graph* graph, uint64_t seed)
      : model_(graph), engine_(&model_, seed) {}

  // engine_ captures &model_, so relocation would dangle.
  RandomWalkSource(const RandomWalkSource&) = delete;
  RandomWalkSource& operator=(const RandomWalkSource&) = delete;

  void SampleWalkStream(NodeId start, uint64_t stream, int32_t length,
                        std::vector<NodeId>* trajectory) const override {
    engine_.SampleWalkStream(start, stream, length, trajectory);
  }

  NodeId num_nodes() const override { return model_.num_nodes(); }
  const Graph& graph() const { return model_.graph(); }

 private:
  UniformTransitionModel model_;
  TransitionWalkSource engine_;
};

/// Replays pre-recorded trajectories; for tests (paper Example 3.1).
/// Stream i of a start node is the i-th walk registered for it.
class FixedWalkSource final : public WalkSource {
 public:
  explicit FixedWalkSource(const Graph* graph) : graph_(*graph) {}

  /// Registers the next stream of `trajectory[0]`. It is a fatal error to
  /// register a trajectory that is not a valid walk, or to sample a
  /// stream that was never registered.
  void AddWalk(std::vector<NodeId> trajectory, int32_t length_budget);

  void SampleWalkStream(NodeId start, uint64_t stream, int32_t length,
                        std::vector<NodeId>* trajectory) const override;

  NodeId num_nodes() const override { return graph_.num_nodes(); }
  const Graph& graph() const { return graph_; }

 private:
  const Graph& graph_;
  std::map<NodeId, std::vector<std::vector<NodeId>>> walks_;
};

}  // namespace rwdom

#endif  // RWDOM_WALK_WALK_SOURCE_H_
