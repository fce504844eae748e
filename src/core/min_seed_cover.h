// Extension (paper §5, third future direction): minimum-seed α-coverage.
//
// Given α in [0, 1], find the smallest S whose expected dominated count
// reaches α·n: min |S| s.t. F2(S) >= α n. Greedy partial cover: run the
// Problem-2 approximate greedy (index + gain state) and stop as soon as the
// estimated F̂2 crosses the threshold. By the classic partial-cover
// analysis this uses at most O(log(1/ε)) factor more seeds than optimal
// for reaching (α - ε) coverage.
#ifndef RWDOM_CORE_MIN_SEED_COVER_H_
#define RWDOM_CORE_MIN_SEED_COVER_H_

#include <cstdint>
#include <vector>

#include "core/approx_greedy.h"
#include "graph/graph.h"
#include "walk/transition_model.h"

namespace rwdom {

/// Result of a minimum-seed coverage run.
struct MinSeedCoverResult {
  /// Seeds in selection order.
  std::vector<NodeId> selected;
  /// F̂2 estimate after each pick (same length as `selected`).
  std::vector<double> coverage_after_pick;
  /// True if F̂2 reached α·n. Coverage is summed exactly and every node
  /// selected covers n >= α·n, so a finished run always reaches it.
  bool reached_target = false;
  double seconds = 0.0;
};

/// Greedy minimum-seed α-coverage over any TransitionModel. `alpha` in
/// [0, 1]. When `prebuilt_index` is non-null it is used instead of
/// building one; it must have been built with the same walk protocol the
/// options describe (TransitionWalkSource at options.seed, L, R) for the
/// result to be bit-identical to the self-built path — the service
/// layer's QueryContext cache guarantees this via its cache key.
MinSeedCoverResult MinSeedCover(const TransitionModel& model, double alpha,
                                const ApproxGreedyOptions& options,
                                const InvertedWalkIndex* prebuilt_index =
                                    nullptr);

/// Unweighted convenience.
MinSeedCoverResult MinSeedCover(const Graph& graph, double alpha,
                                const ApproxGreedyOptions& options);

}  // namespace rwdom

#endif  // RWDOM_CORE_MIN_SEED_COVER_H_
