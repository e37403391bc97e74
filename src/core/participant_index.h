// node id -> participant index over a small node set, sized by the set.
//
// The set-up subroutines run hundreds of thousands of short-lived instances
// per build, each over a few nodes of one or two BFS layers; a node-indexed
// map would cost an n-sized allocation and fill per instance. This index is
// an open-addressing hash table of at least twice the set's size: O(m) to
// build, O(1) expected per lookup.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace rn::core {

class participant_index {
 public:
  /// Indexes `nodes[i] -> i`; a node listed twice is a contract error.
  void assign(const std::vector<node_id>& nodes) {
    shift_ = 30;  // 4 slots
    while ((std::size_t{1} << (32 - shift_)) < 2 * nodes.size()) --shift_;
    const std::size_t cap = std::size_t{1} << (32 - shift_);
    mask_ = cap - 1;
    slots_.assign(cap, {no_node, -1});
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::size_t s = home(nodes[i]);
      for (; slots_[s].node != no_node; s = (s + 1) & mask_)
        RN_REQUIRE(slots_[s].node != nodes[i],
                   "node listed twice in one participant set");
      slots_[s] = {nodes[i], static_cast<std::int32_t>(i)};
    }
  }

  /// Index of `v`, or -1 when it is not a participant.
  [[nodiscard]] std::int32_t find(node_id v) const {
    for (std::size_t s = home(v);; s = (s + 1) & mask_) {
      if (slots_[s].node == v) return slots_[s].index;
      if (slots_[s].node == no_node) return -1;
    }
  }

 private:
  struct slot {
    node_id node;
    std::int32_t index;
  };
  /// Fibonacci hashing: the top bits of v * 2^32/phi.
  [[nodiscard]] std::size_t home(node_id v) const {
    return (static_cast<std::uint32_t>(v) * 2654435769u) >> shift_;
  }
  int shift_ = 30;
  std::size_t mask_ = 3;
  std::vector<slot> slots_;
};

}  // namespace rn::core
