#include "core/min_seed_cover.h"

#include <optional>
#include <queue>
#include <vector>

#include "index/gain_state.h"
#include "index/inverted_walk_index.h"
#include "util/logging.h"
#include "util/timer.h"
#include "walk/walk_source.h"

namespace rwdom {

MinSeedCoverResult MinSeedCover(const TransitionModel& model, double alpha,
                                const ApproxGreedyOptions& options,
                                const InvertedWalkIndex* prebuilt_index) {
  RWDOM_CHECK(alpha >= 0.0 && alpha <= 1.0);
  WallTimer timer;
  MinSeedCoverResult result;
  const NodeId n = model.num_nodes();
  const double target = alpha * static_cast<double>(n);

  if (n == 0 || target <= 0.0) {
    result.reached_target = true;
    result.seconds = timer.Seconds();
    return result;
  }

  std::optional<InvertedWalkIndex> built;
  if (prebuilt_index == nullptr) {
    TransitionWalkSource source(&model, options.seed);
    built.emplace(InvertedWalkIndex::Build(options.length,
                                           options.num_replicates, &source));
    prebuilt_index = &*built;
  }
  GainState state(prebuilt_index, Problem::kDominatedCount);

  // CELF loop, terminating on coverage instead of cardinality. Gains and
  // coverage are exact int64 totals, R times their estimates: a running
  // double sum drifts and can stop just short of a target it reached.
  const double replicates =
      static_cast<double>(prebuilt_index->num_replicates());
  const double target_total = target * replicates;
  struct Entry {
    int64_t gain;
    NodeId node;
    int32_t round;
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.gain != b.gain) return a.gain < b.gain;
      return a.node > b.node;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Less> heap;
  for (NodeId u = 0; u < n; ++u) {
    heap.push({state.ApproxGainTotal(u), u, 0});
  }

  int64_t coverage = 0;  // F̂2 of the empty set.
  int32_t round = 0;
  while (static_cast<double>(coverage) < target_total && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (state.selected().Contains(top.node)) continue;
    if (top.round != round) {
      heap.push({state.ApproxGainTotal(top.node), top.node, round});
      continue;
    }
    state.Commit(top.node);
    coverage += top.gain;
    result.selected.push_back(top.node);
    result.coverage_after_pick.push_back(static_cast<double>(coverage) /
                                         replicates);
    ++round;
  }

  result.reached_target = static_cast<double>(coverage) >= target_total;
  result.seconds = timer.Seconds();
  return result;
}

MinSeedCoverResult MinSeedCover(const Graph& graph, double alpha,
                                const ApproxGreedyOptions& options) {
  UniformTransitionModel model(&graph);
  return MinSeedCover(model, alpha, options);
}

}  // namespace rwdom
