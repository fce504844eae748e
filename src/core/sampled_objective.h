// Sampled objectives F̂1 / F̂2 via Algorithm 2; the oracle behind the
// paper's "sampling-based greedy" (§3.1, Approximate marginal gain
// computation). Walks come from counter-derived per-(node, sample) RNG
// streams — common random numbers across evaluations — so each Value()
// call is an unbiased estimate that is a pure function of (seed, S):
// thread-safe, call-order independent, and bit-identical for any thread
// count. Fixing the sample also makes F̂ genuinely submodular across a
// greedy run (it is an average over fixed walks), which keeps CELF's
// lazy-evaluation invariant exact rather than approximate.
#ifndef RWDOM_CORE_SAMPLED_OBJECTIVE_H_
#define RWDOM_CORE_SAMPLED_OBJECTIVE_H_

#include <cstdint>
#include <string>

#include "core/objective.h"
#include "walk/problem.h"
#include "walk/sampled_evaluator.h"
#include "walk/transition_model.h"
#include "walk/walk_source.h"

namespace rwdom {

/// Monte-Carlo F̂(S) over any TransitionModel. Value() samples through the
/// unified walk engine's deterministic streams.
class SampledObjective final : public Objective {
 public:
  /// `model` must outlive this object.
  SampledObjective(const TransitionModel* model, Problem problem,
                   int32_t length, int32_t num_samples, uint64_t seed);
  /// Unweighted convenience: owns a uniform model over `graph`.
  SampledObjective(const Graph* graph, Problem problem, int32_t length,
                   int32_t num_samples, uint64_t seed);

  NodeId universe_size() const override { return model_->num_nodes(); }
  double Value(const NodeFlagSet& s) const override;
  std::string name() const override;

  int32_t length() const { return evaluator_.length(); }
  int32_t num_samples() const { return evaluator_.num_samples(); }

 private:
  TransitionModelRef model_;
  Problem problem_;
  SampledEvaluator evaluator_;
  TransitionWalkSource source_;
};

}  // namespace rwdom

#endif  // RWDOM_CORE_SAMPLED_OBJECTIVE_H_
