// The one exact hitting-time / hit-probability dynamic program, over any
// TransitionModel (Theorems 2.2 / 2.3 generalized to arbitrary transition
// probabilities p_uw):
//
//   h^l_uS = 0                               if u in S
//          = 1 + sum_w p_uw h^{l-1}_wS        otherwise (h^0 == 0)
//   p^l_uS = 1                               if u in S
//          = sum_w p_uw p^{l-1}_wS            otherwise (p^0 = [u in S])
//
// Sink semantics (isolated nodes in the undirected substrate, out-degree-0
// nodes in digraphs): a non-member sink never hits S, so h^l = l and
// p^l = 0. One evaluation costs O((n + arcs) * L) time and O(n) space.
// There is deliberately no second DP implementation in the tree.
#ifndef RWDOM_WALK_TRANSITION_DP_H_
#define RWDOM_WALK_TRANSITION_DP_H_

#include <vector>

#include "graph/node_set.h"
#include "walk/transition_model.h"

namespace rwdom {

/// Exact h^L_uS / p^L_uS solver over a TransitionModel. Stateless: every
/// evaluation allocates its own two level buffers, so concurrent calls
/// (the DP greedy's parallel candidate scan) are safe.
class TransitionDp {
 public:
  /// `model` must outlive this object. `length` is the walk budget L >= 0.
  TransitionDp(const TransitionModel* model, int32_t length);

  /// Graph convenience: runs over an owned UniformTransitionModel.
  TransitionDp(const Graph* graph, int32_t length);

  /// h^L_uS for every node u (0 for members of S).
  std::vector<double> HittingTimesToSet(const NodeFlagSet& targets) const;

  /// h^L_u(S ∪ {extra}) without materializing the union; `extra` may be
  /// kInvalidNode.
  std::vector<double> HittingTimesToSetPlus(const NodeFlagSet& targets,
                                            NodeId extra) const;

  /// h^L_uv for every source u against the single target v (Eq. 2).
  std::vector<double> HittingTimesToNode(NodeId target) const;

  /// p^L_uS for every node u (1 for members of S).
  std::vector<double> HitProbabilities(const NodeFlagSet& targets) const;

  /// p^L_u(S ∪ {extra}); `extra` may be kInvalidNode.
  std::vector<double> HitProbabilitiesPlus(const NodeFlagSet& targets,
                                           NodeId extra) const;

  /// p^L_uv for every source u against a single target node.
  std::vector<double> HitProbabilitiesToNode(NodeId target) const;

  /// F1(S) = nL - sum_{u in V\S} h^L_uS (Problem 1 objective, Eq. 6).
  double F1(const NodeFlagSet& targets) const;
  double F1Plus(const NodeFlagSet& targets, NodeId extra) const;

  /// F2(S) = sum_u p^L_uS (Problem 2 objective, Eq. 7).
  double F2(const NodeFlagSet& targets) const;
  double F2Plus(const NodeFlagSet& targets, NodeId extra) const;

  /// Full n x n matrix of h^L_uv (row u, column v); O(n m L) — tests only.
  std::vector<std::vector<double>> HittingTimeMatrix() const;

  int32_t length() const { return length_; }
  const TransitionModel& model() const { return *model_; }

 private:
  // Runs the DP with target membership = (set_target contains u) OR
  // (u == extra_target); returns the final level.
  std::vector<double> Run(bool hitting_time, const NodeFlagSet* set_target,
                          NodeId extra_target) const;

  TransitionModelRef model_;
  int32_t length_;
};

}  // namespace rwdom

#endif  // RWDOM_WALK_TRANSITION_DP_H_
