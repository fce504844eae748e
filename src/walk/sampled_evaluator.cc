#include "walk/sampled_evaluator.h"

#include "util/logging.h"
#include "util/parallel.h"
#include "walk/walk.h"

namespace rwdom {
namespace {

// Draws the R walks of one node and reduces them to the (hits, time-sum)
// pair Equations 9/10 need.
struct NodeTally {
  int64_t hits = 0;
  int64_t hit_time_sum = 0;
};

NodeTally TallyNode(const WalkSource& source, NodeId u, int32_t length,
                    int32_t num_samples, const NodeFlagSet& targets,
                    std::vector<NodeId>* trajectory) {
  NodeTally tally;
  for (int32_t i = 0; i < num_samples; ++i) {
    source.SampleWalkStream(u, static_cast<uint64_t>(i), length, trajectory);
    FirstHit first = FindFirstHit(*trajectory, targets, length);
    if (first.hit) {
      ++tally.hits;
      tally.hit_time_sum += first.time;
    }
  }
  return tally;
}

}  // namespace

SampledEvaluator::SampledEvaluator(int32_t length, int32_t num_samples)
    : length_(length), num_samples_(num_samples) {
  RWDOM_CHECK_GE(length, 0);
  RWDOM_CHECK_GE(num_samples, 1);
}

SampledObjectives SampledEvaluator::Evaluate(const NodeFlagSet& targets,
                                             const WalkSource* source) const {
  return EvaluateWithPerNode(targets, source, nullptr);
}

SampledObjectives SampledEvaluator::EvaluateWithPerNode(
    const NodeFlagSet& targets, const WalkSource* source,
    PerNodeEstimates* per_node) const {
  const NodeId n = source->num_nodes();
  RWDOM_CHECK_EQ(targets.universe_size(), n);
  const double r_inv = 1.0 / static_cast<double>(num_samples_);

  if (per_node != nullptr) {
    per_node->hitting_time.assign(static_cast<size_t>(n), 0.0);
    per_node->hit_prob.assign(static_cast<size_t>(n), 1.0);
  }

  // Per-node tallies first, in parallel, then a serial node-order
  // reduction so the floating-point sums are identical for every thread
  // count.
  std::vector<NodeTally> tallies(static_cast<size_t>(n));
  ParallelForChunks(0, n, [&](int, int64_t begin, int64_t end) {
    std::vector<NodeId> trajectory;
    for (int64_t u = begin; u < end; ++u) {
      if (targets.Contains(static_cast<NodeId>(u))) continue;
      tallies[static_cast<size_t>(u)] =
          TallyNode(*source, static_cast<NodeId>(u), length_, num_samples_,
                    targets, &trajectory);
    }
  });

  double total_hitting = 0.0;  // sum over u not in S of ĥ_uS
  double total_hits = 0.0;     // sum over u not in S of r_u / R
  for (NodeId u = 0; u < n; ++u) {
    if (targets.Contains(u)) continue;
    const NodeTally& tally = tallies[static_cast<size_t>(u)];
    const double h_hat =
        (static_cast<double>(tally.hit_time_sum) +
         static_cast<double>(num_samples_ - tally.hits) *
             static_cast<double>(length_)) *
        r_inv;
    const double p_hat = static_cast<double>(tally.hits) * r_inv;
    total_hitting += h_hat;
    total_hits += p_hat;
    if (per_node != nullptr) {
      per_node->hitting_time[static_cast<size_t>(u)] = h_hat;
      per_node->hit_prob[static_cast<size_t>(u)] = p_hat;
    }
  }

  SampledObjectives result;
  // F1 = nL - sum_{u in V\S} h^L_uS (Eq. 6; members contribute h = 0).
  result.f1 = static_cast<double>(n) * static_cast<double>(length_) -
              total_hitting;
  result.f2 = static_cast<double>(targets.size()) + total_hits;
  return result;
}

}  // namespace rwdom
