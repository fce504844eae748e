#include "walk/transition_dp.h"

#include <algorithm>

#include "util/logging.h"

namespace rwdom {

TransitionDp::TransitionDp(const TransitionModel* model, int32_t length)
    : model_(model), length_(length) {
  RWDOM_CHECK_GE(length, 0);
}

TransitionDp::TransitionDp(const Graph* graph, int32_t length)
    : model_(graph), length_(length) {
  RWDOM_CHECK_GE(length, 0);
}

std::vector<double> TransitionDp::Run(bool hitting_time,
                                      const NodeFlagSet* set_target,
                                      NodeId extra_target) const {
  const NodeId n = model_->num_nodes();
  RWDOM_CHECK(set_target == nullptr || set_target->universe_size() == n);
  RWDOM_CHECK(extra_target == kInvalidNode ||
              (extra_target >= 0 && extra_target < n));
  auto in_target = [&](NodeId u) {
    return (set_target != nullptr && set_target->Contains(u)) ||
           u == extra_target;
  };
  std::vector<double> prev(static_cast<size_t>(n));
  std::vector<double> cur(static_cast<size_t>(n));
  // Level 0: h^0 == 0 everywhere; p^0_uS = [u in S].
  for (NodeId u = 0; u < n; ++u) {
    prev[static_cast<size_t>(u)] =
        hitting_time ? 0.0 : (in_target(u) ? 1.0 : 0.0);
  }
  for (int32_t level = 1; level <= length_; ++level) {
    for (NodeId u = 0; u < n; ++u) {
      if (in_target(u)) {
        cur[static_cast<size_t>(u)] = hitting_time ? 0.0 : 1.0;
        continue;
      }
      if (model_->out_degree(u) == 0) {
        // Sink outside S: never hits, truncated at this level.
        cur[static_cast<size_t>(u)] =
            hitting_time ? static_cast<double>(level) : 0.0;
        continue;
      }
      cur[static_cast<size_t>(u)] =
          (hitting_time ? 1.0 : 0.0) + model_->ExpectedValue(u, prev);
    }
    std::swap(prev, cur);
  }
  return prev;  // After the final swap, prev holds level == length_.
}

std::vector<double> TransitionDp::HittingTimesToSet(
    const NodeFlagSet& targets) const {
  return HittingTimesToSetPlus(targets, kInvalidNode);
}

std::vector<double> TransitionDp::HittingTimesToSetPlus(
    const NodeFlagSet& targets, NodeId extra) const {
  return Run(/*hitting_time=*/true, &targets, extra);
}

std::vector<double> TransitionDp::HittingTimesToNode(NodeId target) const {
  RWDOM_CHECK(target >= 0 && target < model_->num_nodes());
  return Run(/*hitting_time=*/true, nullptr, target);
}

std::vector<double> TransitionDp::HitProbabilities(
    const NodeFlagSet& targets) const {
  return HitProbabilitiesPlus(targets, kInvalidNode);
}

std::vector<double> TransitionDp::HitProbabilitiesPlus(
    const NodeFlagSet& targets, NodeId extra) const {
  return Run(/*hitting_time=*/false, &targets, extra);
}

std::vector<double> TransitionDp::HitProbabilitiesToNode(
    NodeId target) const {
  RWDOM_CHECK(target >= 0 && target < model_->num_nodes());
  return Run(/*hitting_time=*/false, nullptr, target);
}

double TransitionDp::F1(const NodeFlagSet& targets) const {
  return F1Plus(targets, kInvalidNode);
}

double TransitionDp::F1Plus(const NodeFlagSet& targets, NodeId extra) const {
  std::vector<double> h = HittingTimesToSetPlus(targets, extra);
  double total = 0.0;
  for (double value : h) total += value;  // Members contribute 0.
  return static_cast<double>(model_->num_nodes()) *
             static_cast<double>(length_) -
         total;
}

double TransitionDp::F2(const NodeFlagSet& targets) const {
  return F2Plus(targets, kInvalidNode);
}

double TransitionDp::F2Plus(const NodeFlagSet& targets, NodeId extra) const {
  std::vector<double> p = HitProbabilitiesPlus(targets, extra);
  double total = 0.0;
  for (double value : p) total += value;
  return total;
}

std::vector<std::vector<double>> TransitionDp::HittingTimeMatrix() const {
  const NodeId n = model_->num_nodes();
  std::vector<std::vector<double>> matrix(static_cast<size_t>(n));
  for (auto& row : matrix) row.resize(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    std::vector<double> column = HittingTimesToNode(v);
    // column[u] = h^L_uv; store row-major as matrix[u][v].
    for (NodeId u = 0; u < n; ++u) {
      matrix[static_cast<size_t>(u)][static_cast<size_t>(v)] =
          column[static_cast<size_t>(u)];
    }
  }
  return matrix;
}

}  // namespace rwdom
