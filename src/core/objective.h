// Objective: a monotone submodular set function F over node subsets, the
// abstraction the generic greedy (Algorithm 1) maximizes.
#ifndef RWDOM_CORE_OBJECTIVE_H_
#define RWDOM_CORE_OBJECTIVE_H_

#include <string>

#include "graph/graph.h"
#include "graph/node_set.h"

namespace rwdom {

/// Value oracle for a set function. Implementations: ExactObjective (DP),
/// SampledObjective (Algorithm 2), and the edge-domination extension.
/// Every implementation is a pure const function of its arguments: the
/// greedy selectors call Value / ValueWithExtra concurrently from many
/// threads and rely on results that do not depend on call order.
class Objective {
 public:
  virtual ~Objective() = default;

  /// Size of the node universe.
  virtual NodeId universe_size() const = 0;

  /// F(S).
  virtual double Value(const NodeFlagSet& s) const = 0;

  /// F(S ∪ {u}) without materializing the union. Default delegates to a
  /// copy; DP-backed objectives override with a zero-copy variant.
  virtual double ValueWithExtra(const NodeFlagSet& s, NodeId u) const;

  /// Marginal gain F(S ∪ {u}) - F(S), given the precomputed F(S).
  double MarginalGain(const NodeFlagSet& s, double value_of_s,
                      NodeId u) const {
    return ValueWithExtra(s, u) - value_of_s;
  }

  /// Display name, e.g. "F1-exact".
  virtual std::string name() const = 0;
};

}  // namespace rwdom

#endif  // RWDOM_CORE_OBJECTIVE_H_
