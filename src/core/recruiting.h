// The Recruiting protocol (paper Lemma 2.3).
//
// A bipartite primitive: red nodes adopt ("recruit") blue neighbors such that
// w.h.p. (a) every blue with a participating red neighbor is recruited,
// (b) every red knows whether it recruited 0, 1 or >= 2 blues, and (c) every
// recruited blue knows whether its parent recruited exactly one (it alone) or
// at least two blues.
//
// Iteration layout (L = ceil(log2 n_hat); L+5 rounds per iteration):
//   round 0        red beacon: each red transmits its id w.p. 2^-ceil(j/step)
//   rounds 1..L+1  blue Decay: unrecruited blues that heard red v answer
//                  (u.id, v.id) with probability 2^-(round-1)
//   round L+2      response: exactly the round-0 transmitters transmit again —
//                  echo(u) / sigma / grow_intent / empty (see below)
//   round L+3      ack [DEV-2]: the lone child of a grow_intent sender acks
//   round L+4      commit: round-0 transmitters again — sigma iff clean ack
//
// Because rounds L+2 and L+4 repeat the round-0 transmitter set exactly, any
// blue that received red v in round 0 also receives v's response and commit
// (identical interference pattern). This makes parent-class knowledge (c)
// consistent in every interleaving:
//   * class none -> solo: red heard exactly one blue; echoes its id.
//   * class none -> many: red heard >= 2 blues; sigma recruits every blue
//     that heard it in round 0 (>= 2 of them), all learning "many".
//   * class many growth:  sigma again; new recruits and old children all
//     learn/know "many".
//   * class solo -> many: guarded by the intent/ack/commit handshake so the
//     existing lone child never holds a stale "solo" belief [DEV-2].
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/coin_window.h"
#include "core/participant_index.h"
#include "graph/graph.h"
#include "radio/network.h"

namespace rn::core {

class recruiting_instance {
 public:
  enum class klass : std::uint8_t { none, solo, many };

  struct config {
    const graph::graph* g = nullptr;
    std::vector<node_id> reds;
    std::vector<node_id> blues;  ///< initially unrecruited participants
    int L = 1;                   ///< decay ladder length
    int iterations = 1;
    int exp_step = 1;            ///< iterations per round-0 exponent increment
    std::uint64_t seed = 1;
  };

  explicit recruiting_instance(config c);

  [[nodiscard]] static round_t rounds_required(int L, int iterations) {
    return static_cast<round_t>(iterations) * (L + 5);
  }
  [[nodiscard]] round_t rounds_required() const {
    return rounds_required(cfg_.L, cfg_.iterations);
  }
  [[nodiscard]] bool finished() const { return round_ >= rounds_required(); }

  /// Appends this instance's transmissions for its next consumed round.
  void plan(radio::round_buffer& out);
  /// Delivers a reception to a participant (others are ignored).
  void on_reception(const radio::reception& rx);
  /// Advances the program counter; call exactly once per consumed round.
  void end_round();

  /// Fast-forward support: number of upcoming consumed rounds that are
  /// guaranteed *quiet* — this instance will plan no transmission in them,
  /// provided it receives nothing (which holds whenever every participant of
  /// those rounds is quiet). Coins are drawn ahead (core/coin_window.h), so
  /// the window runs to the next round with a planned transmission: the next
  /// red round-0 heads, the next blue-Decay heads of a live hearer (an
  /// unrecruited blue that heard a red in round 0), the response and commit
  /// rounds of an iteration with a round-0 transmitter, and the ack round
  /// when some blue has an ack due. 0 = the next round must be planned.
  [[nodiscard]] round_t quiet_rounds() const;
  /// Skips `k` quiet rounds (k <= quiet_rounds()) without planning them;
  /// equivalent to k plan/end_round cycles that produce nothing.
  void skip_rounds(round_t k);

  struct red_result {
    klass k = klass::none;
    node_id solo_child = no_node;  ///< valid iff k == solo
    friend bool operator==(const red_result&, const red_result&) = default;
  };
  struct blue_result {
    bool recruited = false;
    node_id parent = no_node;
    klass parent_class = klass::none;  ///< solo or many once recruited
    friend bool operator==(const blue_result&, const blue_result&) = default;
  };

  [[nodiscard]] red_result red(node_id v) const;
  [[nodiscard]] blue_result blue(node_id u) const;
  /// Outcomes by position in the config's red / blue lists.
  [[nodiscard]] red_result red_at(std::size_t i) const {
    return {red_[i].k, red_[i].solo_child};
  }
  [[nodiscard]] blue_result blue_at(std::size_t i) const {
    return {blue_[i].recruited, blue_[i].parent, blue_[i].parent_class};
  }
  /// Number of blues not yet recruited.
  [[nodiscard]] std::size_t unrecruited_count() const;

 private:
  struct red_state {
    bool sent_r1 = false;
    std::vector<node_id> heard;  ///< distinct blues heard this iteration
    klass k = klass::none;
    node_id solo_child = no_node;
    bool intent = false;
    bool ack_ok = false;
  };
  struct blue_state {
    node_id heard_red = no_node;  ///< red received in round 0 this iteration
    bool recruited = false;
    node_id parent = no_node;
    klass parent_class = klass::none;
    bool ack_due = false;
  };

  /// Round-0 exponent: sweeps the Decay ladder, one step every `step`
  /// iterations, and cycles [DEV-11]. The paper's monotone ramp gives every
  /// degree class one Theta(log n)-iteration window; cycling gives the same
  /// windows but recurring, which late recruitment (e.g. growth after an
  /// early lone echo) needs at small n.
  struct beacon_exponent {
    int L = 1;
    int step = 1;
    [[nodiscard]] int operator()(round_t iter) const {
      return 1 + static_cast<int>(iter / step) % L;
    }
  };

  config cfg_;
  round_t round_ = 0;
  std::size_t sent_r1_count_ = 0;  ///< reds that transmitted this iteration's round 0
  std::size_t acks_due_ = 0;       ///< blues with an ack due this iteration
  std::vector<red_state> red_;
  std::vector<blue_state> blue_;
  participant_index red_idx_;
  participant_index blue_idx_;
  std::vector<rng> red_rng_;
  std::vector<rng> blue_rng_;
  /// Red round-0 coins over the instance's iterations (the red set is fixed).
  coin_window<beacon_exponent> beacons_;
  /// Blue-Decay coins of this iteration's live hearers over rounds 1..L+1
  /// (the set is fixed from the end of round 0 to round L+2).
  coin_window<decay_exponent> decay_;

  [[nodiscard]] int iteration() const { return static_cast<int>(round_ / (cfg_.L + 5)); }
  [[nodiscard]] int pos_in_iteration() const { return static_cast<int>(round_ % (cfg_.L + 5)); }
  void start_iteration();
};

/// Standalone driver for tests and experiment E6: runs one full instance on
/// its own network and reports the outcome. With `fast_forward`, quiet
/// stretches are skipped via network::advance — identical results, less
/// wall-clock.
struct recruiting_run_result {
  round_t rounds = 0;
  std::size_t recruited = 0;
  std::size_t blues = 0;
  bool properties_ok = true;  ///< (b)/(c) consistency checks
  std::int64_t transmissions = 0;
  std::vector<std::uint32_t> energy;  ///< per-node transmission counts
  std::vector<recruiting_instance::red_result> red_outcomes;    ///< per red
  std::vector<recruiting_instance::blue_result> blue_outcomes;  ///< per blue
};
[[nodiscard]] recruiting_run_result run_recruiting(
    const graph::graph& g, const std::vector<node_id>& reds,
    const std::vector<node_id>& blues, int L, int iterations, int exp_step,
    std::uint64_t seed, bool fast_forward = false);

}  // namespace rn::core
