// Worker-rank side of the distributed backend.
//
// A worker owns a contiguous range of the 32-block listener partition and
// holds only the in-edge partitioned CSR for that range
// (graph::partitioned_view). Per round it receives the global transmitter
// list, tallies hit words for its own listeners, and returns each owned
// block's first-touched listeners (in the canonical walk order) with their
// packed words. The coordinator applies blocks in ascending order, so the
// reception dispatch it then runs is byte-identical to the serial walk's.
//
// `partition_walker` is the reusable walk over a view — the worker loop
// uses it over a socketpair, and the dist tests drive it in-process to pin
// the determinism argument without any forking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/partitioned.h"

namespace rn::dist {

/// One rank's round walk over a partitioned view. Not thread-safe; one
/// walker per rank.
class partition_walker {
 public:
  /// Binds to a view (which must outlive the walker) and allocates round
  /// state. `threads >= 2` splits the owned blocks into that many contiguous
  /// sub-ranges walked concurrently — per-block results are written by
  /// exactly one thread and read back in block order, so results are
  /// byte-identical at every thread count (rn_dist --intra-trial-threads;
  /// composes with ranks).
  void bind(const graph::partitioned_view* view, unsigned threads);
  void unbind();

  /// Walks one round: `tx_ids[i]` transmits with transmitter index i.
  /// Leaves per-owned-block touch lists and hit words readable until
  /// `clear_round`.
  void walk(std::span<const node_id> tx_ids);

  /// First-touched owned listeners of block `b` (absolute index), in the
  /// serial walk's touch order.
  [[nodiscard]] std::span<const node_id> touched(unsigned b) const {
    return touched_[b - view_->first_block()];
  }
  /// Packed hit word of listener v (valid for touched listeners).
  [[nodiscard]] std::uint64_t hit_word(node_id v) const { return hits_[v]; }

  /// Zeroes the touched hit words and empties the touch lists — O(touched),
  /// mirroring the engine's per-round cleanup.
  void clear_round();

 private:
  void walk_span(std::span<const node_id> tx_ids, unsigned first_block,
                 unsigned last_block);

  const graph::partitioned_view* view_ = nullptr;
  unsigned threads_ = 1;
  std::vector<std::uint64_t> hits_;          ///< indexed by absolute node id
  std::vector<std::uint8_t> owner_;          ///< owned range, block - first
  std::vector<std::vector<node_id>> touched_;  ///< per owned block
};

/// Runs the worker protocol loop on `fd` until shutdown (returns 0) or the
/// coordinator disappears (returns 1). Invoked by tools/rn_dist when spawned
/// with --rn-worker-fd, and directly by fork-only test sessions.
int worker_main(int fd);

}  // namespace rn::dist
