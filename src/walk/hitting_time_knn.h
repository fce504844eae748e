// Truncated-hitting-time nearest neighbors — the primitive of Sarkar &
// Moore [29] that the paper's hitting-time machinery builds on: given a
// query node q, find the k nodes most likely to reach q quickly, i.e. with
// the smallest h^L_{u,q}.
//
// Two implementations:
//  * Exact:   one O(mL) dynamic program over Eq. (2), then a partial sort.
//  * Sampled: R L-length walks per node (Algorithm-2 style estimation with
//             S = {q}); linear in nRL, matching [30]'s sampling approach.
//             Its walks come from one sequential RNG, so it runs on one
//             thread.
#ifndef RWDOM_WALK_HITTING_TIME_KNN_H_
#define RWDOM_WALK_HITTING_TIME_KNN_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "walk/transition_model.h"

namespace rwdom {

/// One kNN result row.
struct HittingTimeNeighbor {
  NodeId node;
  double hitting_time;  ///< h^L_{node, query} (estimate for the sampled API).
};

/// Exact k nearest neighbors of `query` by truncated hitting time
/// h^L_{u, query}, ascending; ties break toward the lower node id. The
/// query node itself (h = 0) is excluded. Returns fewer than k rows only
/// when the graph has fewer than k + 1 nodes. Runs over any
/// TransitionModel; the Graph overload is the unweighted convenience.
std::vector<HittingTimeNeighbor> ExactHittingTimeKnn(
    const TransitionModel& model, NodeId query, int32_t k, int32_t length);
std::vector<HittingTimeNeighbor> ExactHittingTimeKnn(const Graph& graph,
                                                     NodeId query, int32_t k,
                                                     int32_t length);

/// Sampled variant: estimates h^L_{u, query} with `num_samples` walks per
/// node (Eq. 9 estimator), then selects the k smallest. The walks are
/// drawn with DrawWalk from one Rng(seed), node by node in id order.
std::vector<HittingTimeNeighbor> SampledHittingTimeKnn(
    const TransitionModel& model, uint64_t seed, NodeId query, int32_t k,
    int32_t length, int32_t num_samples);

}  // namespace rwdom

#endif  // RWDOM_WALK_HITTING_TIME_KNN_H_
