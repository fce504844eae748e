#include "core/approx_greedy.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "util/logging.h"
#include "util/timer.h"

namespace rwdom {
namespace {

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

}  // namespace

SelectionResult RunGainStateGreedy(GainState* state, int32_t k, bool lazy,
                                   int64_t* num_evaluations) {
  RWDOM_CHECK_GE(k, 0);
  int64_t evaluations = 0;
  SelectionResult result;
  const NodeId n = state->selected().universe_size();
  const int32_t budget = std::min<int64_t>(k, n);
  // Batch scans run the gain oracle in parallel; the serial node-order
  // reductions below keep lowest-id tie-breaking (and so the selection)
  // identical for any thread count.
  std::vector<double> gains;

  if (lazy) {
    state->ApproxGainAll(&gains);
    evaluations += n;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap;
    for (NodeId u = 0; u < n; ++u) {
      heap.push({gains[static_cast<size_t>(u)], u, 0});
    }
    int32_t round = 0;
    while (round < budget && !heap.empty()) {
      HeapEntry top = heap.top();
      heap.pop();
      if (state->selected().Contains(top.node)) continue;
      if (top.round == round) {
        state->Commit(top.node);
        result.selected.push_back(top.node);
        result.gains.push_back(top.gain);
        ++round;
        continue;
      }
      heap.push({state->ApproxGain(top.node), top.node, round});
      ++evaluations;
    }
  } else {
    for (int32_t round = 0; round < budget; ++round) {
      state->ApproxGainAll(&gains);
      evaluations += n - static_cast<int64_t>(state->selected().size());
      NodeId best_node = kInvalidNode;
      double best_gain = 0.0;
      for (NodeId u = 0; u < n; ++u) {
        if (state->selected().Contains(u)) continue;
        double gain = gains[static_cast<size_t>(u)];
        if (best_node == kInvalidNode || gain > best_gain) {
          best_node = u;
          best_gain = gain;
        }
      }
      RWDOM_CHECK(best_node != kInvalidNode);
      state->Commit(best_node);
      result.selected.push_back(best_node);
      result.gains.push_back(best_gain);
    }
  }

  result.objective_estimate = state->EstimatedObjective();
  if (num_evaluations != nullptr) *num_evaluations = evaluations;
  return result;
}

ApproxGreedy::ApproxGreedy(const TransitionModel* model, Problem problem,
                           ApproxGreedyOptions options)
    : model_(model),
      problem_(problem),
      options_(options),
      external_source_(nullptr) {
  RWDOM_CHECK_GE(options.length, 0);
  RWDOM_CHECK_GE(options.num_replicates, 1);
}

ApproxGreedy::ApproxGreedy(const Graph* graph, Problem problem,
                           ApproxGreedyOptions options)
    : model_(graph),
      problem_(problem),
      options_(options),
      external_source_(nullptr) {
  RWDOM_CHECK_GE(options.length, 0);
  RWDOM_CHECK_GE(options.num_replicates, 1);
}

ApproxGreedy::ApproxGreedy(const Graph* graph, Problem problem,
                           ApproxGreedyOptions options,
                           const WalkSource* source)
    : ApproxGreedy(graph, problem, options) {
  external_source_ = source;
}

std::string ApproxGreedy::name() const {
  return std::string("Approx") + std::string(ProblemName(problem_));
}

SelectionResult ApproxGreedy::Select(int32_t k) {
  WallTimer timer;

  // Phase 1 (Algorithm 3): materialize R walks per node into the index —
  // or reuse a prebuilt one (service-layer cache), which is bit-identical
  // because the build is a pure function of (model, seed, L, R).
  if (prebuilt_index_ != nullptr) {
    index_ = prebuilt_index_;
  } else if (external_source_ != nullptr) {
    index_ = std::make_shared<const InvertedWalkIndex>(
        InvertedWalkIndex::Build(options_.length, options_.num_replicates,
                                 external_source_));
  } else {
    TransitionWalkSource source(model_.get(), options_.seed);
    index_ = std::make_shared<const InvertedWalkIndex>(
        InvertedWalkIndex::Build(options_.length, options_.num_replicates,
                                 &source));
  }

  // Phase 2 (Algorithms 4-6): greedy rounds over the gain state.
  GainState state(index_.get(), problem_);
  SelectionResult result =
      RunGainStateGreedy(&state, k, options_.lazy, &num_evaluations_);
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace rwdom
