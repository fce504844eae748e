#include "walk/walk_source.h"

#include "util/logging.h"
#include "walk/walk.h"

namespace rwdom {

void DrawWalk(const TransitionModel& model, Rng* rng, NodeId start,
              int32_t length, std::vector<NodeId>* trajectory) {
  RWDOM_DCHECK(start >= 0 && start < model.num_nodes());
  RWDOM_DCHECK_GE(length, 0);
  trajectory->clear();
  trajectory->reserve(static_cast<size_t>(length) + 1);
  trajectory->push_back(start);
  NodeId current = start;
  for (int32_t step = 0; step < length; ++step) {
    const NodeId next = model.Step(current, rng);
    if (next == kInvalidNode) break;  // Stuck on a sink.
    current = next;
    trajectory->push_back(current);
  }
}

void TransitionWalkSource::SampleWalkStream(
    NodeId start, uint64_t stream, int32_t length,
    std::vector<NodeId>* trajectory) const {
  // Counter-derived stream: seeded purely by (seed, start, stream), so the
  // walk is identical no matter which thread draws it, or when.
  Rng rng(MixSeeds(seed_, MixSeeds(static_cast<uint64_t>(start), stream)));
  DrawWalk(model_, &rng, start, length, trajectory);
}

void FixedWalkSource::AddWalk(std::vector<NodeId> trajectory,
                              int32_t length_budget) {
  RWDOM_CHECK(!trajectory.empty());
  RWDOM_CHECK(IsValidTrajectory(graph_, trajectory, length_budget))
      << "registered trajectory is not a valid walk";
  walks_[trajectory.front()].push_back(std::move(trajectory));
}

void FixedWalkSource::SampleWalkStream(
    NodeId start, uint64_t stream, int32_t length,
    std::vector<NodeId>* trajectory) const {
  auto it = walks_.find(start);
  RWDOM_CHECK(it != walks_.end())
      << "no fixed walk registered for node " << start;
  RWDOM_CHECK_LT(stream, it->second.size())
      << "fixed walks for node " << start << " exhausted";
  const std::vector<NodeId>& recorded = it->second[stream];
  RWDOM_CHECK_LE(static_cast<int32_t>(recorded.size()) - 1, length)
      << "recorded walk longer than requested budget";
  *trajectory = recorded;
}

}  // namespace rwdom
