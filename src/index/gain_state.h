// Algorithms 4 and 5 of the paper: approximate marginal gains over the
// inverted walk index, and the incremental D-array update when the greedy
// answer set grows.
//
// D[i][v] is the per-replicate estimator of v's standing relative to the
// current set S:
//   Problem 1: the truncated first-hit time of v's i-th walk to S
//              (initialized to L for S = {}),
//   Problem 2: the 0/1 indicator that v's i-th walk hits S
//              (initialized to 0).
//
// ApproxGain(u) returns the paper's σ_u (Problem 1; the constant -L is
// dropped, as in the paper, since it does not affect the argmax) or ρ_u
// (Problem 2), averaged over replicates. Commit(u) applies Algorithm 5.
#ifndef RWDOM_INDEX_GAIN_STATE_H_
#define RWDOM_INDEX_GAIN_STATE_H_

#include <cstdint>
#include <vector>

#include "graph/node_set.h"
#include "index/inverted_walk_index.h"
#include "walk/problem.h"

namespace rwdom {

/// Mutable companion of an InvertedWalkIndex for one greedy run.
class GainState {
 public:
  /// `index` must outlive this object.
  GainState(const InvertedWalkIndex* index, Problem problem);

  /// Algorithm 4: estimated marginal gain of adding `u` to the current set.
  /// Larger is better for both problems. For Problem 1 the value is
  /// σ̂_u + L relative to the true marginal gain of F1 (constant shift).
  double ApproxGain(NodeId u) const;

  /// ApproxGain(u) times the replicate count: the exact int64 sum that
  /// ApproxGain divides by R once.
  int64_t ApproxGainTotal(NodeId u) const;

  /// Algorithm 4 for every node at once: fills gains[u] = ApproxGain(u)
  /// for all u (including already-selected nodes — callers mask those).
  /// Evaluated in parallel; ApproxGain only reads D, so the result is
  /// identical for any thread count.
  void ApproxGainAll(std::vector<double>* gains) const;

  /// Algorithm 5: commits `u` into the set and updates every D[i][v] that
  /// improves through u. Must not be called twice for the same node.
  void Commit(NodeId u);

  /// Estimate of the current objective from the D array (diagnostics/tests):
  /// Problem 1 -> F̂1(S), Problem 2 -> F̂2(S). Matches Algorithm 2 run on
  /// the same materialized walks.
  double EstimatedObjective() const;

  /// D[i][v] (tests).
  int32_t DValue(int32_t replicate, NodeId v) const {
    return d_[DIndex(replicate, v)];
  }

  const NodeFlagSet& selected() const { return selected_; }
  Problem problem() const { return problem_; }

 private:
  size_t DIndex(int32_t replicate, NodeId v) const {
    return static_cast<size_t>(replicate) *
               static_cast<size_t>(index_.num_nodes()) +
           static_cast<size_t>(v);
  }

  const InvertedWalkIndex& index_;
  Problem problem_;
  NodeFlagSet selected_;
  // Flat [replicate][node]; hop counts (Problem 1) or indicators (Problem 2).
  std::vector<int32_t> d_;
};

}  // namespace rwdom

#endif  // RWDOM_INDEX_GAIN_STATE_H_
