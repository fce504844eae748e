// Extension (paper §5, second future direction): edge-traversal domination.
//
// Instead of counting hops before a walk hits S (Problem 1), count the
// *distinct edges* it traverses before absorption; placing seeds to
// minimize that total measures wasted link bandwidth (the P2P motivation).
//
// Per walk, the saving c_∅ - c(S) equals max over v in S of the edges saved
// by v — a max-of-constants coverage structure — so the sampled objective
//
//   F_edge(S) = n·L - sum_{u in V\S} E[#distinct edges before hitting S]
//
// is nondecreasing and submodular in expectation, and Algorithm 1 applies
// with the usual guarantee. Runs over any TransitionModel; on directed
// substrates each arc direction counts as its own link.
#ifndef RWDOM_CORE_EDGE_DOMINATION_H_
#define RWDOM_CORE_EDGE_DOMINATION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/greedy_selector.h"
#include "core/objective.h"
#include "core/selector.h"
#include "walk/transition_model.h"
#include "walk/walk_source.h"

namespace rwdom {

/// Monte-Carlo estimator of F_edge(S); O(nRL) per Value() call, so the
/// greedy over it suits small and medium graphs (like the DP greedy).
class EdgeDominationObjective final : public Objective {
 public:
  /// `model` must outlive this object.
  EdgeDominationObjective(const TransitionModel* model, int32_t length,
                          int32_t num_samples, uint64_t seed);
  /// Unweighted convenience: owns a uniform model over `graph`.
  EdgeDominationObjective(const Graph* graph, int32_t length,
                          int32_t num_samples, uint64_t seed);

  NodeId universe_size() const override { return model_->num_nodes(); }
  double Value(const NodeFlagSet& s) const override;
  std::string name() const override { return "EdgeDomination-sampled"; }

  int32_t length() const { return length_; }

 private:
  TransitionModelRef model_;
  int32_t length_;
  int32_t num_samples_;
  TransitionWalkSource source_;
};

/// Greedy seed selection under F_edge.
class EdgeDominationGreedy final : public Selector {
 public:
  /// `model` must outlive this object.
  EdgeDominationGreedy(const TransitionModel* model, int32_t length,
                       int32_t num_samples, uint64_t seed,
                       GreedyOptions options = {});
  /// `graph` must outlive this object.
  EdgeDominationGreedy(const Graph* graph, int32_t length,
                       int32_t num_samples, uint64_t seed,
                       GreedyOptions options = {});

  SelectionResult Select(int32_t k) override { return greedy_.Select(k); }
  std::string name() const override { return "EdgeGreedy"; }

 private:
  EdgeDominationObjective objective_;
  GreedySelector greedy_;
};

}  // namespace rwdom

#endif  // RWDOM_CORE_EDGE_DOMINATION_H_
