// The bipartite assignment algorithm (paper section 2.2.3): one instance
// solves the rank-i assignment problem between adjacent BFS layers ("reds" at
// level l-1, "blues" of rank i at level l).
//
// Per epoch:
//   Stage I   — loner detection (one probe round where all active reds
//               transmit: a blue that *receives a message* has exactly one
//               active red neighbor), then a Decay phase in which loners
//               announce themselves, making their neighbors loner-parents.
//   Stage II  — part 1: loner-parents run a Recruiting instance; recruits are
//               permanent. Parts 2/3: the remaining active reds split into
//               brisk/lazy halves, each running a Recruiting instance;
//               "many"-children are permanent, lone children only temporary.
//   Stage III — marked reds (loner-parents; part-2/3 reds with 0 or >= 2
//               recruits) are ranked (i with one child, i+1 with more) and
//               retire; they announce (id, rank) in a Decay phase so that
//               lower-rank blues can adopt them as parents. Temporary pairs
//               dissolve; lone-child reds stay active for the next epoch.
//
// The shared `build_state` is the blackboard all problems of one distributed
// construction write into; every write a problem performs corresponds to
// knowledge the participating node has locally learned.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/coin_window.h"
#include "core/participant_index.h"
#include "core/recruiting.h"
#include "graph/graph.h"
#include "radio/network.h"

namespace rn::core {

/// Blackboard for a distributed GST construction (indexed by node id).
struct build_state {
  std::vector<std::int32_t> ring_of;     ///< ring index; -1 = not a member
  std::vector<level_t> rel_level;        ///< level within the ring
  std::vector<rank_t> rank;              ///< no_rank until determined
  std::vector<node_id> parent;
  std::vector<rank_t> parent_rank;
  std::vector<node_id> stretch_child;    ///< same-rank (solo) child
  std::vector<char> assigned;            ///< has a permanent parent (or root)
  std::vector<level_t> vdist;            ///< filled by the labeling protocol
  int fallback_finalizations = 0;        ///< [DEV-9] diagnostics
  int fallback_adoptions = 0;

  explicit build_state(std::size_t n)
      : ring_of(n, -1),
        rel_level(n, no_level),
        rank(n, no_rank),
        parent(n, no_node),
        parent_rank(n, no_rank),
        stretch_child(n, no_node),
        assigned(n, 0),
        vdist(n, no_level) {}
};

class assignment_problem {
 public:
  struct config {
    const graph::graph* g = nullptr;
    build_state* st = nullptr;
    std::int32_t ring = 0;
    level_t blue_level = 1;    ///< relative level of the blue layer (>= 1)
    rank_t target_rank = 1;    ///< i
    /// All ring members at the blue / red layers (roles filtered internally).
    std::vector<node_id> blue_layer_nodes;
    std::vector<node_id> red_layer_nodes;
    int L = 1;
    int decay_phases = 1;
    int epochs = 1;
    int recruit_iterations = 1;
    int recruit_exp_step = 1;
    std::uint64_t seed = 1;
  };

  explicit assignment_problem(config c);

  /// Total protocol rounds one problem consumes (identical for all problems,
  /// which is what makes slot-based pipelining possible).
  [[nodiscard]] static round_t rounds_required(int L, int decay_phases,
                                               int epochs,
                                               int recruit_iterations);
  [[nodiscard]] bool finished() const { return sub_ == sub_phase::done; }

  void plan(radio::round_buffer& out);
  void on_reception(const radio::reception& rx);
  void end_round();

  /// Fast-forward support: number of upcoming consumed rounds guaranteed
  /// *quiet* — plan() would produce no transmission, provided nothing is
  /// received (sound whenever every problem sharing those rounds is quiet
  /// too, since then nobody transmits at all). The Decay sub-phases draw
  /// their coins ahead (core/coin_window.h), so a window runs to the next
  /// heads. Never crosses a sub-phase boundary, so sub-phase transition side
  /// effects (brisk/lazy coins, recruiting part construction) happen exactly
  /// where naive stepping performs them; a problem with no active red left
  /// runs its remaining epochs as one idle sub-phase.
  [[nodiscard]] round_t quiet_rounds() const;
  /// Skips `k` quiet rounds (k <= quiet_rounds()); performs the same
  /// bookkeeping and sub-phase transitions as k empty plan/end_round cycles.
  void skip_rounds(round_t k);

  /// Active (not yet retired) reds at the start of each epoch — the quantity
  /// whose geometric decay Lemma 2.4 proves (experiment E7).
  [[nodiscard]] const std::vector<std::size_t>& epoch_active_reds() const {
    return epoch_active_reds_;
  }

 private:
  enum class sub_phase : std::uint8_t {
    p0_ident,
    s1_probe,
    s1_decay,
    part1,
    part2,
    part3,
    s3_adopt,
    /// No red is active at an epoch start (or there is no blue at all): no
    /// red can become active again after P0, so nothing transmits or draws
    /// until the problem ends, and every later epoch counts 0 active reds.
    /// Receptions are ignored, which holds naive behaviour only because a
    /// problem's listeners hear no other problem's transmitters (3-class
    /// pipelining and ring width >= 3 on a BFS layering).
    idle,
    done,
  };

  config cfg_;
  sub_phase sub_ = sub_phase::p0_ident;
  round_t rounds_left_ = 0;
  round_t phase_pos_ = 0;  ///< rounds consumed within the current sub-phase
  int epoch_ = 0;

  // Participants: the blue layer's nodes take local ids 0..nb-1 and the red
  // layer's nb..nb+nr-1, in config order. Every per-node vector below is
  // indexed by local id, so a problem's state is sized by its two layers,
  // never by n.
  std::vector<node_id> node_;  // local id -> node id
  participant_index local_;    // node id -> local id
  std::vector<rng> rng_;       // per local id

  std::vector<std::uint32_t> blues_;  // unassigned rank-i blues
  std::vector<char> is_blue_;
  std::vector<char> blue_temp_this_epoch_;
  std::vector<char> blue_is_loner_;

  std::vector<std::uint32_t> red_candidates_;  // unranked reds
  std::vector<char> is_red_;
  std::vector<char> red_active_;       // heard a blue in P0, not yet retired
  std::vector<char> red_loner_parent_;
  std::vector<char> red_brisk_;
  struct temp_pair {
    node_id red;
    node_id blue;
  };
  std::vector<temp_pair> temp_pairs_;  // current epoch's lone-child pairs

  std::vector<std::pair<std::uint32_t, rank_t>> announcers_;  // stage III
  std::vector<char> adopt_eligible_;

  std::unique_ptr<recruiting_instance> recruit_;
  std::vector<std::uint32_t> part_reds_;   // recruit_'s reds, as local ids
  std::vector<std::uint32_t> part_blues_;  // recruit_'s blues, as local ids
  /// Coins of the open Decay sub-phase (p0_ident, s1_decay or s3_adopt).
  coin_window<decay_exponent> coins_;
  std::vector<std::size_t> epoch_active_reds_;

  rng coin_;  // brisk/lazy coins (per-red derived streams)

  void enter(sub_phase s);
  void advance_subphase();
  /// Epoch start: counts the active reds, dissolves the previous epoch's
  /// temporary pairs, and enters the probe round, or idles to the end when
  /// no red is active.
  void begin_epoch();
  void build_part(int part);
  void apply_part_results(int part);
  void stage3_computations();
  void finish_problem();
  [[nodiscard]] round_t decay_rounds() const {
    return static_cast<round_t>(cfg_.decay_phases) * (cfg_.L + 1);
  }
  [[nodiscard]] round_t epoch_rounds() const {
    return 1 + 2 * decay_rounds() +
           3 * recruiting_instance::rounds_required(cfg_.L,
                                                    cfg_.recruit_iterations);
  }
  void go_idle(round_t remaining);
};

/// Standalone driver for tests and experiment E7: solves one rank phase on a
/// bipartite layered graph and reports per-epoch active-red counts.
struct assignment_run_result {
  round_t rounds = 0;
  std::int64_t transmissions = 0;
  std::vector<std::uint32_t> energy;  ///< per-node transmission counts
  bool all_assigned = true;
  int fallback_finalizations = 0;
  int fallback_adoptions = 0;
  std::vector<std::size_t> epoch_active_reds;
  build_state st{0};
};
[[nodiscard]] assignment_run_result run_assignment(
    const graph::graph& g, const std::vector<node_id>& reds,
    const std::vector<node_id>& blues, rank_t target_rank, int L,
    int decay_phases, int epochs, int recruit_iterations, int recruit_exp_step,
    std::uint64_t seed, bool fast_forward = false);

}  // namespace rn::core
