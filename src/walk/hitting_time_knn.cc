#include "walk/hitting_time_knn.h"

#include <algorithm>

#include "graph/node_set.h"
#include "util/logging.h"
#include "walk/transition_dp.h"
#include "walk/walk.h"
#include "walk/walk_source.h"

namespace rwdom {
namespace {

std::vector<HittingTimeNeighbor> SelectSmallest(
    const std::vector<double>& hitting_times, NodeId query, int32_t k) {
  std::vector<HittingTimeNeighbor> rows;
  rows.reserve(hitting_times.size());
  for (NodeId u = 0; u < static_cast<NodeId>(hitting_times.size()); ++u) {
    if (u == query) continue;
    rows.push_back({u, hitting_times[static_cast<size_t>(u)]});
  }
  auto by_time_then_id = [](const HittingTimeNeighbor& a,
                            const HittingTimeNeighbor& b) {
    if (a.hitting_time != b.hitting_time) {
      return a.hitting_time < b.hitting_time;
    }
    return a.node < b.node;
  };
  const size_t take = std::min<size_t>(static_cast<size_t>(k), rows.size());
  std::partial_sort(rows.begin(), rows.begin() + static_cast<int64_t>(take),
                    rows.end(), by_time_then_id);
  rows.resize(take);
  return rows;
}

}  // namespace

std::vector<HittingTimeNeighbor> ExactHittingTimeKnn(
    const TransitionModel& model, NodeId query, int32_t k, int32_t length) {
  RWDOM_CHECK(query >= 0 && query < model.num_nodes());
  RWDOM_CHECK_GE(k, 0);
  TransitionDp dp(&model, length);
  return SelectSmallest(dp.HittingTimesToNode(query), query, k);
}

std::vector<HittingTimeNeighbor> ExactHittingTimeKnn(const Graph& graph,
                                                     NodeId query, int32_t k,
                                                     int32_t length) {
  UniformTransitionModel model(&graph);
  return ExactHittingTimeKnn(model, query, k, length);
}

std::vector<HittingTimeNeighbor> SampledHittingTimeKnn(
    const TransitionModel& model, uint64_t seed, NodeId query, int32_t k,
    int32_t length, int32_t num_samples) {
  RWDOM_CHECK_GE(k, 0);
  RWDOM_CHECK_GE(num_samples, 1);
  const NodeId n = model.num_nodes();
  RWDOM_CHECK(query >= 0 && query < n);
  Rng rng(seed);
  std::vector<double> estimates(static_cast<size_t>(n), 0.0);
  std::vector<NodeId> trajectory;
  const double r_inv = 1.0 / static_cast<double>(num_samples);
  for (NodeId u = 0; u < n; ++u) {
    if (u == query) continue;
    int64_t total = 0;
    for (int32_t i = 0; i < num_samples; ++i) {
      DrawWalk(model, &rng, u, length, &trajectory);
      total += FindFirstHitOfNode(trajectory, query, length).time;
    }
    estimates[static_cast<size_t>(u)] = static_cast<double>(total) * r_inv;
  }
  return SelectSmallest(estimates, query, k);
}

}  // namespace rwdom
