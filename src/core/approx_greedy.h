// Algorithm 6 of the paper: the approximate greedy algorithm.
//
// Builds the inverted walk index once (Algorithm 3: R walks per node,
// O(nRL) time and space), then runs k greedy rounds whose marginal gains
// come from the index (Algorithm 4) with incremental D-array maintenance
// (Algorithm 5). Total time O(kRLn) — linear in graph size — with a
// (1 - 1/e - eps) guarantee. This is the paper's ApproxF1 / ApproxF2,
// over any TransitionModel: the index and gain state never look at the
// graph, only at walks, so weighted/directed substrates reuse every line.
#ifndef RWDOM_CORE_APPROX_GREEDY_H_
#define RWDOM_CORE_APPROX_GREEDY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/selector.h"
#include "index/gain_state.h"
#include "index/inverted_walk_index.h"
#include "walk/problem.h"
#include "walk/transition_model.h"
#include "walk/walk_source.h"

namespace rwdom {

/// Runs the k greedy rounds of Algorithm 6 over a prepared GainState
/// (plain or CELF-lazy). Shared by every approximate greedy selector.
/// Fills selected/gains/objective_estimate; the caller owns timing.
/// `num_evaluations` (optional) receives the gain-oracle call count.
SelectionResult RunGainStateGreedy(GainState* state, int32_t k, bool lazy,
                                   int64_t* num_evaluations);

/// Tuning knobs for ApproxGreedy.
struct ApproxGreedyOptions {
  int32_t length = 6;          ///< L, the walk budget.
  int32_t num_replicates = 100;  ///< R, walks per node (paper default 100).
  uint64_t seed = 42;          ///< Master seed for walk generation.
  bool lazy = true;            ///< CELF lazy gain evaluation.
};

/// ApproxF1 / ApproxF2 selector. Each Select() call rebuilds the index
/// (deterministically from the seed), so reported seconds include index
/// construction, matching the paper's timing protocol.
class ApproxGreedy final : public Selector {
 public:
  /// `model` must outlive this object.
  ApproxGreedy(const TransitionModel* model, Problem problem,
               ApproxGreedyOptions options);

  /// `graph` must outlive this object (unweighted convenience).
  ApproxGreedy(const Graph* graph, Problem problem,
               ApproxGreedyOptions options);

  /// Test/advanced constructor: walks for the index come from `source`
  /// (e.g. a FixedWalkSource replaying scripted walks) instead of
  /// TransitionWalkSource(model, options.seed). `source` must outlive this
  /// object; every Select() rebuilds the same index from it.
  ApproxGreedy(const Graph* graph, Problem problem,
               ApproxGreedyOptions options, const WalkSource* source);

  SelectionResult Select(int32_t k) override;
  std::string name() const override;

  /// Supplies a prebuilt index for the next Select() calls, skipping
  /// phase 1. The caller must have built it with the same walk protocol
  /// this selector would use — TransitionWalkSource(model, options.seed)
  /// at (options.length, options.num_replicates) — so results stay
  /// bit-identical to the self-built path. The service layer's
  /// QueryContext cache uses this to amortize index construction across
  /// queries. Pass nullptr to return to self-building.
  void UsePrebuiltIndex(std::shared_ptr<const InvertedWalkIndex> index) {
    prebuilt_index_ = std::move(index);
  }

  /// The index used by the last Select(); null before the first call.
  const InvertedWalkIndex* index() const { return index_.get(); }

  /// Gain evaluations performed in the last Select() (CELF ablation).
  int64_t last_num_evaluations() const { return num_evaluations_; }

 private:
  TransitionModelRef model_;
  Problem problem_;
  ApproxGreedyOptions options_;
  const WalkSource* external_source_;  // Not owned; may be null.
  std::shared_ptr<const InvertedWalkIndex> prebuilt_index_;
  std::shared_ptr<const InvertedWalkIndex> index_;
  int64_t num_evaluations_ = 0;
};

}  // namespace rwdom

#endif  // RWDOM_CORE_APPROX_GREEDY_H_
