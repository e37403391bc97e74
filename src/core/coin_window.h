// Per-node coin look-ahead for the Decay-style sub-phases of the Thm 1.1
// set-up (fast-forward support).
//
// A *coin window* is a run of `len` consumed rounds in which every node of a
// fixed set flips one coin per round from its own rng stream: heads with
// probability 2^-e(pos), via `rng::with_probability_pow2` (so e = 0 is heads
// without a draw), and a node transmits exactly in its heads rounds. Naive
// stepping draws the coin of round pos in round pos. The window instead
// draws each node's coins ahead, up to and including its next heads, and
// records that round; the earliest one over the set is the window's next
// busy round, and every round before it is provably quiet.
//
// Stream positions stay naive at every read because (1) a node's coins are
// drawn in round order, one per round, exactly as naive stepping draws them;
// (2) the set cannot change inside a window, so no node ever drops out with
// coins drawn past its last naive draw; and (3) a node with no heads left
// draws through the end of the window, which is where naive stepping leaves
// its stream when the window closes. Callers open a window only over a node
// set that is fixed for its whole length and read no stream of the set
// elsewhere while it is open.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"

namespace rn::core {

/// The first heads of `r`'s coins for rounds [from, end), drawing exactly the
/// coins of rounds from..heads in order; `end` (all coins drawn) if none.
template <class Exponent>
[[nodiscard]] round_t next_heads(rng& r, round_t from, round_t end,
                                 const Exponent& e) {
  for (; from < end; ++from)
    if (r.with_probability_pow2(e(from))) break;
  return from;
}

template <class Exponent>
class coin_window {
 public:
  explicit coin_window(Exponent e = {}) : e_(e) {}

  /// Closes any open window and opens an empty one of `len` rounds.
  void open(round_t len) {
    len_ = len;
    busy_ = len;
    entries_.clear();
  }
  /// Adds participant `who` (callers' index) with stream `r`, positioned at
  /// window round 0. Add participants in naive plan order.
  void add(std::uint32_t who, rng& r) {
    const round_t next = next_heads(r, 0, len_, e_);
    entries_.push_back({who, next});
    busy_ = std::min(busy_, next);
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Earliest window round with a heads, or the window length if none.
  [[nodiscard]] round_t busy() const { return busy_; }

  /// Plans window round `pos` (never past busy()): calls `tx(who)`, in add
  /// order, for every participant whose heads is `pos`, then draws its coins
  /// ahead to its next heads. `stream(who)` returns the participant's rng.
  template <class Stream, class Tx>
  void fire(round_t pos, Stream&& stream, Tx&& tx) {
    RN_REQUIRE(pos <= busy_, "coin window round planned past its heads");
    if (pos != busy_) return;
    busy_ = len_;
    for (auto& en : entries_) {
      if (en.next == pos) {
        tx(en.who);
        en.next = next_heads(stream(en.who), pos + 1, len_, e_);
      }
      busy_ = std::min(busy_, en.next);
    }
  }

 private:
  struct entry {
    std::uint32_t who;
    round_t next;  ///< next heads round, or len_ if none
  };
  Exponent e_;
  round_t len_ = 0;
  round_t busy_ = 0;
  std::vector<entry> entries_;
};

/// Decay ladder exponent: round pos of a phase sequence flips 2^-(pos mod
/// ladder), so every phase opens with a coin-free all-heads round.
struct decay_exponent {
  int ladder = 1;
  [[nodiscard]] int operator()(round_t pos) const {
    return static_cast<int>(pos % ladder);
  }
};

}  // namespace rn::core
