// Algorithm 2 of the paper: sampling-based unbiased estimation of F1(S) and
// F2(S), and of the per-node quantities they aggregate.
//
// For every node u not in S the evaluator draws R independent L-length walks
// and records (r, t): the number of walks that hit S and the summed first-hit
// times. The estimators
//
//   ĥ_uS   = (t + (R - r) * L) / R        (Eq. 9)
//   Ê[X_uS] = r / R                        (Eq. 10)
//
// are unbiased (Lemmas 3.1/3.2); F̂1(S) = (n-|S|)L - sum ĥ and
// F̂2(S) = |S| + sum r/R follow.
#ifndef RWDOM_WALK_SAMPLED_EVALUATOR_H_
#define RWDOM_WALK_SAMPLED_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/node_set.h"
#include "walk/walk_source.h"

namespace rwdom {

/// Point estimates of both objectives for one target set.
struct SampledObjectives {
  double f1 = 0.0;  ///< Estimate of nL - sum_{u not in S} h^L_uS.
  double f2 = 0.0;  ///< Estimate of E[sum_u X^L_uS].
};

/// Per-node estimates (indexable by NodeId).
struct PerNodeEstimates {
  std::vector<double> hitting_time;  ///< ĥ_uS; 0 for u in S.
  std::vector<double> hit_prob;      ///< Ê[X_uS]; 1 for u in S.
};

/// Stateless estimator configuration; walks come from the caller's
/// WalkSource so randomness and replay are under caller control.
///
/// Sample i of node u is the source's stream walk (u, i). Per-node walk
/// blocks are drawn in parallel and reduced in node order, so the
/// estimate is bit-identical for any thread count and independent of call
/// order (common random numbers across repeated evaluations).
class SampledEvaluator {
 public:
  /// `length` = L (walk budget), `num_samples` = R walks per node.
  SampledEvaluator(int32_t length, int32_t num_samples);

  /// Runs Algorithm 2: estimates both objectives for `targets`.
  SampledObjectives Evaluate(const NodeFlagSet& targets,
                             const WalkSource* source) const;

  /// Like Evaluate but also returns per-node estimates (used by metrics).
  SampledObjectives EvaluateWithPerNode(const NodeFlagSet& targets,
                                        const WalkSource* source,
                                        PerNodeEstimates* per_node) const;

  int32_t length() const { return length_; }
  int32_t num_samples() const { return num_samples_; }

 private:
  int32_t length_;
  int32_t num_samples_;
};

}  // namespace rwdom

#endif  // RWDOM_WALK_SAMPLED_EVALUATOR_H_
