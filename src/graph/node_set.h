// NodeFlagSet: an O(1)-membership node subset with iteration over members.
// All selection algorithms carry their working set S in this form.
#ifndef RWDOM_GRAPH_NODE_SET_H_
#define RWDOM_GRAPH_NODE_SET_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/logging.h"

namespace rwdom {

/// Dense-flag node set over the universe [0, n). Insert-only by design: the
/// greedy algorithms only ever grow S.
class NodeFlagSet {
 public:
  /// Empty set over a universe of `universe_size` nodes.
  explicit NodeFlagSet(NodeId universe_size)
      : universe_(universe_size),
        flags_(static_cast<size_t>(universe_size), 0) {
    RWDOM_CHECK_GE(universe_size, 0);
  }

  /// Builds from an explicit member list.
  NodeFlagSet(NodeId universe_size, const std::vector<NodeId>& members)
      : NodeFlagSet(universe_size) {
    for (NodeId u : members) Insert(u);
  }

  /// Adds `u`; returns false if already present.
  bool Insert(NodeId u) {
    RWDOM_DCHECK(u >= 0 && u < universe_);
    if (flags_[static_cast<size_t>(u)]) return false;
    flags_[static_cast<size_t>(u)] = 1;
    members_.push_back(u);
    return true;
  }

  bool Contains(NodeId u) const {
    RWDOM_DCHECK(u >= 0 && u < universe_);
    return flags_[static_cast<size_t>(u)] != 0;
  }

  NodeId universe_size() const { return universe_; }
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  /// Members in insertion order.
  const std::vector<NodeId>& members() const { return members_; }

 private:
  NodeId universe_ = 0;
  std::vector<uint8_t> flags_;
  std::vector<NodeId> members_;
};

}  // namespace rwdom

#endif  // RWDOM_GRAPH_NODE_SET_H_
