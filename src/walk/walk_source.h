// WalkSource: where L-length random-walk trajectories come from.
//
// Algorithms 2 (sampling evaluator) and 3 (inverted index construction)
// consume trajectories through this interface, which lets unit tests replay
// fixed walks — e.g. the exact walks of the paper's Example 3.1 — instead of
// drawing random ones. The one real sampler is TransitionWalkSource, which
// walks any TransitionModel (uniform-neighbor or weighted alias-table);
// RandomWalkSource is a thin unweighted adapter over it.
#ifndef RWDOM_WALK_WALK_SOURCE_H_
#define RWDOM_WALK_WALK_SOURCE_H_

#include <map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "walk/transition_model.h"

namespace rwdom {

/// Produces trajectories Z^0..Z^{L'} (Z^0 = start; L' == length unless the
/// walk reaches a node with no outgoing moves). Deliberately independent of
/// any concrete graph type so the same consumers (Algorithm 2 evaluation,
/// Algorithm 3 index construction) also work over weighted/directed graphs.
class WalkSource {
 public:
  virtual ~WalkSource() = default;

  /// Fills `*trajectory` (cleared first) with one walk from `start` of at
  /// most `length` hops.
  virtual void SampleWalk(NodeId start, int32_t length,
                          std::vector<NodeId>* trajectory) = 0;

  /// True when SampleWalkStream is implemented: the walk for a given
  /// (start, stream) pair is then a pure function of the source's seed —
  /// independent of call order, interleaving, and thread count. Parallel
  /// consumers (index construction, the sampled evaluator) require this;
  /// they fall back to sequential SampleWalk calls when it is false.
  virtual bool has_deterministic_streams() const { return false; }

  /// Like SampleWalk, but draws the walk from the independent RNG stream
  /// identified by (start, stream) instead of advancing shared state.
  /// Callers use the replicate index as `stream`, so replicate i of node w
  /// is the same walk no matter which thread samples it, or in which
  /// order. Fatal unless has_deterministic_streams().
  virtual void SampleWalkStream(NodeId start, uint64_t stream,
                                int32_t length,
                                std::vector<NodeId>* trajectory);

  /// Size of the node universe walks live in.
  virtual NodeId num_nodes() const = 0;
};

/// The unified walk engine: samples steps from any TransitionModel;
/// xoshiro-backed. SampleWalk is deterministic in (seed, call sequence);
/// SampleWalkStream in (seed, start, stream) only, enabling
/// thread-count-invariant parallel sampling on every substrate.
class TransitionWalkSource final : public WalkSource {
 public:
  /// `model` must outlive this object.
  TransitionWalkSource(const TransitionModel* model, uint64_t seed)
      : model_(*model), seed_(seed), rng_(seed) {}

  void SampleWalk(NodeId start, int32_t length,
                  std::vector<NodeId>* trajectory) override;

  bool has_deterministic_streams() const override { return true; }
  void SampleWalkStream(NodeId start, uint64_t stream, int32_t length,
                        std::vector<NodeId>* trajectory) override;

  NodeId num_nodes() const override { return model_.num_nodes(); }
  const TransitionModel& model() const { return model_; }

 private:
  void WalkFrom(Rng* rng, NodeId start, int32_t length,
                std::vector<NodeId>* trajectory) const;

  const TransitionModel& model_;
  uint64_t seed_;
  Rng rng_;
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

  void SampleWalk(NodeId start, int32_t length,
                  std::vector<NodeId>* trajectory) override {
    engine_.SampleWalk(start, length, trajectory);
  }

  bool has_deterministic_streams() const override { return true; }
  void SampleWalkStream(NodeId start, uint64_t stream, int32_t length,
                        std::vector<NodeId>* trajectory) override {
    engine_.SampleWalkStream(start, stream, length, trajectory);
  }

  NodeId num_nodes() const override { return model_.num_nodes(); }
  const Graph& graph() const { return model_.graph(); }

 private:
  UniformTransitionModel model_;
  TransitionWalkSource engine_;
};

/// Replays pre-recorded trajectories per start node, in registration order;
/// for tests (paper Example 3.1) and for walk materialization.
class FixedWalkSource final : public WalkSource {
 public:
  explicit FixedWalkSource(const Graph* graph) : graph_(*graph) {}

  /// Registers the next trajectory to be returned for `trajectory[0]`.
  /// Trajectories for a given start are consumed FIFO; it is a fatal error
  /// to sample more walks from a start than were registered, or to register
  /// a trajectory that is not a valid walk.
  void AddWalk(std::vector<NodeId> trajectory, int32_t length_budget);

  void SampleWalk(NodeId start, int32_t length,
                  std::vector<NodeId>* trajectory) override;

  NodeId num_nodes() const override { return graph_.num_nodes(); }
  const Graph& graph() const { return graph_; }

 private:
  const Graph& graph_;
  std::map<NodeId, std::vector<std::vector<NodeId>>> walks_;
  std::map<NodeId, size_t> cursor_;
};

}  // namespace rwdom

#endif  // RWDOM_WALK_WALK_SOURCE_H_
