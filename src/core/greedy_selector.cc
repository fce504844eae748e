#include "core/greedy_selector.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace rwdom {
namespace {

// CELF heap entry; `round` is the |S| at which `gain` was evaluated.
struct HeapEntry {
  double gain;
  NodeId node;
  int32_t round;
};

struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;  // Prefer the lower node id on ties.
  }
};

constexpr double kNotEvaluated = -std::numeric_limits<double>::infinity();

}  // namespace

GreedySelector::GreedySelector(const Objective* objective, std::string name,
                               GreedyOptions options)
    : objective_(*objective), name_(std::move(name)), options_(options) {}

SelectionResult GreedySelector::Select(int32_t k) {
  RWDOM_CHECK_GE(k, 0);
  num_evaluations_ = 0;
  return options_.lazy ? SelectLazy(k) : SelectPlain(k);
}

SelectionResult GreedySelector::SelectPlain(int32_t k) {
  WallTimer timer;
  const NodeId n = objective_.universe_size();
  NodeFlagSet selected(n);
  SelectionResult result;
  double current_value = objective_.Value(selected);
  ++num_evaluations_;

  std::vector<double> value_with(static_cast<size_t>(n));
  const int32_t budget = std::min<int64_t>(k, n);
  for (int32_t round = 0; round < budget; ++round) {
    // Evaluate every candidate concurrently, then reduce serially in node
    // order: lowest-id tie-breaking, and therefore the same selection, for
    // any thread count.
    ParallelFor(0, n, [&](int64_t u) {
      value_with[static_cast<size_t>(u)] =
          selected.Contains(static_cast<NodeId>(u))
              ? kNotEvaluated
              : objective_.ValueWithExtra(selected, static_cast<NodeId>(u));
    });
    num_evaluations_ += n - static_cast<int64_t>(selected.size());
    NodeId best_node = kInvalidNode;
    double best_value = 0.0;
    double best_gain = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (selected.Contains(u)) continue;
      const double value_with_u = value_with[static_cast<size_t>(u)];
      double gain = value_with_u - current_value;
      if (best_node == kInvalidNode || gain > best_gain) {
        best_node = u;
        best_gain = gain;
        best_value = value_with_u;
      }
    }
    RWDOM_CHECK(best_node != kInvalidNode);
    selected.Insert(best_node);
    current_value = best_value;
    result.selected.push_back(best_node);
    result.gains.push_back(best_gain);
  }
  result.objective_estimate = current_value;
  result.seconds = timer.Seconds();
  return result;
}

SelectionResult GreedySelector::SelectLazy(int32_t k) {
  WallTimer timer;
  const NodeId n = objective_.universe_size();
  NodeFlagSet selected(n);
  SelectionResult result;
  double current_value = objective_.Value(selected);
  ++num_evaluations_;

  // First-round gains for every node; the only full scan CELF performs, so
  // it is the one worth parallelizing.
  std::vector<double> initial_gain(static_cast<size_t>(n));
  ParallelFor(0, n, [&](int64_t u) {
    initial_gain[static_cast<size_t>(u)] =
        objective_.ValueWithExtra(selected, static_cast<NodeId>(u)) -
        current_value;
  });
  num_evaluations_ += n;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap;
  for (NodeId u = 0; u < n; ++u) {
    heap.push({initial_gain[static_cast<size_t>(u)], u, 0});
  }

  const int32_t budget = std::min<int64_t>(k, n);
  int32_t round = 0;
  while (round < budget && !heap.empty()) {
    HeapEntry top = heap.top();
    heap.pop();
    if (top.round == round) {
      // Fresh gain: submodularity makes every cached gain below it an upper
      // bound that cannot overtake, so commit.
      selected.Insert(top.node);
      current_value += top.gain;
      result.selected.push_back(top.node);
      result.gains.push_back(top.gain);
      ++round;
      continue;
    }
    // Stale: re-evaluate against the current set and reinsert.
    double value_with_u = objective_.ValueWithExtra(selected, top.node);
    ++num_evaluations_;
    heap.push({value_with_u - current_value, top.node, round});
  }
  result.objective_estimate = current_value;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace rwdom
