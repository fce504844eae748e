#include "index/gain_state.h"

#include "util/logging.h"
#include "util/parallel.h"

namespace rwdom {

GainState::GainState(const InvertedWalkIndex* index, Problem problem)
    : index_(*index), problem_(problem), selected_(index->num_nodes()) {
  const size_t total = static_cast<size_t>(index_.num_replicates()) *
                       static_cast<size_t>(index_.num_nodes());
  // Problem 1: h-estimate starts at L (S empty => no walk hits S).
  // Problem 2: hit indicator starts at 0.
  const int32_t init =
      problem_ == Problem::kHittingTime ? index_.length() : 0;
  d_.assign(total, init);
}

double GainState::ApproxGain(NodeId u) const {
  return static_cast<double>(ApproxGainTotal(u)) /
         static_cast<double>(index_.num_replicates());
}

int64_t GainState::ApproxGainTotal(NodeId u) const {
  RWDOM_DCHECK(u >= 0 && u < index_.num_nodes());
  const int32_t replicates = index_.num_replicates();
  const size_t n = static_cast<size_t>(index_.num_nodes());
  // Every summand is an integer bounded by L, so the whole gain
  // accumulates exactly in int64 and converts to double once — which is
  // why any thread count agrees bit for bit.
  int64_t total = 0;
  if (problem_ == Problem::kHittingTime) {
    for (int32_t i = 0; i < replicates; ++i) {
      const int32_t* d_row = d_.data() + static_cast<size_t>(i) * n;
      // u's own contribution: adding u zeroes h_uS, saving D[i][u].
      int64_t sigma = d_row[static_cast<size_t>(u)];
      // Every walk that reaches u at hop j earlier than its current hit of
      // S improves by D[i][w] - j.
      for (auto cursor = index_.List(i, u); cursor.Next();) {
        const int32_t* ids = cursor.ids();
        const int32_t* weights = cursor.weights();
        for (int32_t k = 0; k < cursor.count(); ++k) {
          const int32_t saved =
              d_row[static_cast<size_t>(ids[k])] - weights[k];
          if (saved > 0) sigma += saved;
        }
      }
      total += sigma;
    }
  } else {
    for (int32_t i = 0; i < replicates; ++i) {
      const int32_t* d_row = d_.data() + static_cast<size_t>(i) * n;
      // u's own contribution: it becomes dominated with probability 1.
      int64_t rho = 1 - d_row[static_cast<size_t>(u)];
      // Every walk that reaches u but does not yet hit S becomes a hit.
      for (auto cursor = index_.List(i, u); cursor.Next();) {
        const int32_t* ids = cursor.ids();
        for (int32_t k = 0; k < cursor.count(); ++k) {
          if (d_row[static_cast<size_t>(ids[k])] == 0) ++rho;
        }
      }
      total += rho;
    }
  }
  return total;
}

void GainState::ApproxGainAll(std::vector<double>* gains) const {
  const NodeId n = index_.num_nodes();
  gains->resize(static_cast<size_t>(n));
  ParallelFor(0, n, [this, gains](int64_t u) {
    (*gains)[static_cast<size_t>(u)] = ApproxGain(static_cast<NodeId>(u));
  });
}

void GainState::Commit(NodeId u) {
  RWDOM_CHECK(u >= 0 && u < index_.num_nodes());
  RWDOM_CHECK(selected_.Insert(u)) << "node " << u << " committed twice";
  const int32_t replicates = index_.num_replicates();
  const size_t n = static_cast<size_t>(index_.num_nodes());
  if (problem_ == Problem::kHittingTime) {
    for (int32_t i = 0; i < replicates; ++i) {
      int32_t* d_row = d_.data() + static_cast<size_t>(i) * n;
      d_row[static_cast<size_t>(u)] = 0;  // h_{u,S∪{u}} = 0.
      for (auto cursor = index_.List(i, u); cursor.Next();) {
        const int32_t* ids = cursor.ids();
        const int32_t* weights = cursor.weights();
        for (int32_t k = 0; k < cursor.count(); ++k) {
          int32_t& current = d_row[static_cast<size_t>(ids[k])];
          if (weights[k] < current) current = weights[k];
        }
      }
    }
  } else {
    for (int32_t i = 0; i < replicates; ++i) {
      int32_t* d_row = d_.data() + static_cast<size_t>(i) * n;
      d_row[static_cast<size_t>(u)] = 1;
      for (auto cursor = index_.List(i, u); cursor.Next();) {
        const int32_t* ids = cursor.ids();
        for (int32_t k = 0; k < cursor.count(); ++k) {
          d_row[static_cast<size_t>(ids[k])] = 1;
        }
      }
    }
  }
}

double GainState::EstimatedObjective() const {
  const NodeId n = index_.num_nodes();
  const int32_t replicates = index_.num_replicates();
  const double r_inv = 1.0 / static_cast<double>(replicates);
  double total = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    if (selected_.Contains(v)) continue;
    // Exact int64 per-node sum, one double conversion per node — the same
    // value (bit for bit) the former all-double accumulation produced,
    // since every partial sum stayed below 2^53.
    int64_t mean_sum = 0;
    for (int32_t i = 0; i < replicates; ++i) {
      mean_sum += d_[DIndex(i, v)];
    }
    total += static_cast<double>(mean_sum) * r_inv;
  }
  if (problem_ == Problem::kHittingTime) {
    // F̂1 = nL - sum_{v not in S} ĥ_vS.
    return static_cast<double>(n) * static_cast<double>(index_.length()) -
           total;
  }
  // F̂2 = |S| + sum_{v not in S} indicator-mean.
  return static_cast<double>(selected_.size()) + total;
}

}  // namespace rwdom
