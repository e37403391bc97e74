// Fast-forward equivalence: every protocol runner must produce bit-identical
// results whether idle rounds are stepped on the channel or skipped via
// network::advance. The naive mode is the oracle; these tests run each
// pipeline both ways and compare network statistics, per-node energy vectors,
// protocol outputs and round counts.
#include <gtest/gtest.h>

#include "baseline/decay.h"
#include "coding/rlnc.h"
#include "core/assignment.h"
#include "core/gst_distributed.h"
#include "core/multi_broadcast.h"
#include "core/recruiting.h"
#include "core/single_broadcast.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "radio/network.h"

namespace rn {
namespace {

graph::graph layered(std::size_t depth, std::size_t width, std::uint64_t seed) {
  graph::layered_options lo;
  lo.depth = depth;
  lo.width = width;
  lo.edge_prob = 0.4;
  lo.seed = seed;
  return graph::random_layered(lo);
}

void expect_same_result(const radio::broadcast_result& naive,
                        const radio::broadcast_result& ff) {
  EXPECT_EQ(naive.completed, ff.completed);
  EXPECT_EQ(naive.rounds_to_complete, ff.rounds_to_complete);
  EXPECT_EQ(naive.rounds_executed, ff.rounds_executed);
  EXPECT_EQ(naive.transmissions, ff.transmissions);
  EXPECT_EQ(naive.deliveries, ff.deliveries);
  EXPECT_EQ(naive.collisions_observed, ff.collisions_observed);
  EXPECT_EQ(naive.energy, ff.energy);  // per-node transmission counts
  ASSERT_EQ(naive.phase_rounds.size(), ff.phase_rounds.size());
  for (std::size_t i = 0; i < naive.phase_rounds.size(); ++i) {
    EXPECT_STREQ(naive.phase_rounds[i].first, ff.phase_rounds[i].first);
    EXPECT_EQ(naive.phase_rounds[i].second, ff.phase_rounds[i].second);
  }
}

void expect_same_recruiting(const core::recruiting_run_result& naive,
                            const core::recruiting_run_result& ff) {
  EXPECT_EQ(naive.rounds, ff.rounds);
  EXPECT_EQ(naive.recruited, ff.recruited);
  EXPECT_EQ(naive.properties_ok, ff.properties_ok);
  EXPECT_EQ(naive.transmissions, ff.transmissions);
  EXPECT_EQ(naive.energy, ff.energy);
  EXPECT_EQ(naive.red_outcomes, ff.red_outcomes);    // class, lone child
  EXPECT_EQ(naive.blue_outcomes, ff.blue_outcomes);  // parent, parent class
}

void expect_same_assignment(const core::assignment_run_result& naive,
                            const core::assignment_run_result& ff) {
  EXPECT_EQ(naive.rounds, ff.rounds);
  EXPECT_EQ(naive.transmissions, ff.transmissions);
  EXPECT_EQ(naive.energy, ff.energy);
  EXPECT_EQ(naive.all_assigned, ff.all_assigned);
  EXPECT_EQ(naive.fallback_finalizations, ff.fallback_finalizations);
  EXPECT_EQ(naive.fallback_adoptions, ff.fallback_adoptions);
  EXPECT_EQ(naive.epoch_active_reds, ff.epoch_active_reds);
  EXPECT_EQ(naive.st.assigned, ff.st.assigned);
  EXPECT_EQ(naive.st.parent, ff.st.parent);
  EXPECT_EQ(naive.st.parent_rank, ff.st.parent_rank);
  EXPECT_EQ(naive.st.rank, ff.st.rank);
  EXPECT_EQ(naive.st.stretch_child, ff.st.stretch_child);
}

TEST(FastForward, Theorem11PipelineBitIdentical) {
  // E1-style single-message broadcast at small n: the full unknown-topology
  // pipeline (wave, construction, labeling, ring relay + handoffs).
  const auto g = layered(8, 5, 11);
  core::single_broadcast_options opt;
  opt.seed = 21;
  opt.prm = core::params::fast();
  opt.fast_forward = false;
  const auto naive = core::run_unknown_cd_single_broadcast(g, 0, opt);
  opt.fast_forward = true;
  const auto ff = core::run_unknown_cd_single_broadcast(g, 0, opt);
  expect_same_result(naive, ff);
  EXPECT_FALSE(naive.energy.empty());
}

TEST(FastForward, Theorem11MultiRingBitIdentical) {
  const auto g = layered(12, 4, 5);
  core::single_broadcast_options opt;
  opt.seed = 3;
  opt.prm = core::params::fast();
  opt.prm.ring_divisor = 3.0;  // several rings => handoff blocks exercised
  opt.fast_forward = false;
  const auto naive = core::run_unknown_cd_single_broadcast(g, 0, opt);
  opt.fast_forward = true;
  const auto ff = core::run_unknown_cd_single_broadcast(g, 0, opt);
  expect_same_result(naive, ff);
}

TEST(FastForward, KnownGstBroadcastBitIdentical) {
  const auto g = layered(10, 5, 7);
  core::single_broadcast_options opt;
  opt.seed = 9;
  opt.prm = core::params::fast();
  opt.fast_forward = false;
  const auto naive = core::run_known_single_broadcast(g, 0, opt);
  opt.fast_forward = true;
  const auto ff = core::run_known_single_broadcast(g, 0, opt);
  expect_same_result(naive, ff);
}

TEST(FastForward, DistributedGstConstructionBitIdentical) {
  for (const bool pipelined : {true, false}) {
    const auto g = layered(6, 4, 13);
    core::distributed_gst_options opt;
    opt.seed = 17;
    opt.prm = core::params::fast();
    opt.pipelined = pipelined;
    opt.fast_forward = false;
    const auto naive = core::build_gst_distributed_single(g, 0, opt);
    opt.fast_forward = true;
    const auto ff = core::build_gst_distributed_single(g, 0, opt);
    EXPECT_EQ(naive.rounds, ff.rounds);
    EXPECT_EQ(naive.transmissions, ff.transmissions);
    EXPECT_EQ(naive.fallback_finalizations, ff.fallback_finalizations);
    EXPECT_EQ(naive.fallback_adoptions, ff.fallback_adoptions);
    EXPECT_EQ(naive.parent_rank, ff.parent_rank);
    EXPECT_EQ(naive.stretch_child, ff.stretch_child);
    ASSERT_EQ(naive.forests.size(), ff.forests.size());
    for (std::size_t j = 0; j < naive.forests.size(); ++j) {
      EXPECT_EQ(naive.forests[j].parent, ff.forests[j].parent);
      EXPECT_EQ(naive.forests[j].rank, ff.forests[j].rank);
      EXPECT_EQ(naive.forests[j].level, ff.forests[j].level);
      EXPECT_EQ(naive.forests[j].member, ff.forests[j].member);
    }
  }
}

TEST(FastForward, MultiMessageBroadcastBitIdentical) {
  const auto g = layered(5, 4, 23);
  const auto msgs = coding::make_test_messages(4, 8, 31);
  core::multi_broadcast_options opt;
  opt.seed = 41;
  opt.prm = core::params::fast();
  opt.payload_size = 8;
  opt.fast_forward = false;
  const auto naive = core::run_unknown_cd_multi_broadcast(g, 0, msgs, opt);
  opt.fast_forward = true;
  const auto ff = core::run_unknown_cd_multi_broadcast(g, 0, msgs, opt);
  expect_same_result(naive.base, ff.base);
  EXPECT_EQ(naive.payloads_verified, ff.payloads_verified);
}

// On a one-node path the run is complete before its first relay round: both
// unknown-CD runners must still record completion at the first relay round in
// fast-forward mode, as naive stepping does, rather than at the first round
// with a transmitter. n = 2 is the smallest path that needs a delivery.
class TinyPathFastForward : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TinyPathFastForward, Theorem11BitIdentical) {
  const auto g = graph::path(GetParam());
  core::single_broadcast_options opt;
  opt.seed = 5;
  opt.prm = core::params::fast();
  opt.fast_forward = false;
  const auto naive = core::run_unknown_cd_single_broadcast(g, 0, opt);
  opt.fast_forward = true;
  const auto ff = core::run_unknown_cd_single_broadcast(g, 0, opt);
  expect_same_result(naive, ff);
  EXPECT_TRUE(naive.completed);
}

TEST_P(TinyPathFastForward, Theorem13BitIdentical) {
  const auto g = graph::path(GetParam());
  const auto msgs = coding::make_test_messages(3, 8, 7);
  core::multi_broadcast_options opt;
  opt.seed = 5;
  opt.prm = core::params::fast();
  opt.payload_size = 8;
  opt.fast_forward = false;
  const auto naive = core::run_unknown_cd_multi_broadcast(g, 0, msgs, opt);
  opt.fast_forward = true;
  const auto ff = core::run_unknown_cd_multi_broadcast(g, 0, msgs, opt);
  expect_same_result(naive.base, ff.base);
  EXPECT_EQ(naive.payloads_verified, ff.payloads_verified);
  EXPECT_TRUE(naive.payloads_verified);
}

INSTANTIATE_TEST_SUITE_P(PathN, TinyPathFastForward, ::testing::Values(1, 2));

TEST(FastForward, AssignmentProblemBitIdentical) {
  // Bipartite layered instance, as in experiment E7.
  const std::size_t half = 12;
  graph::graph::builder gb(2 * half);
  rng r(77);
  for (node_id red = 0; red < half; ++red)
    for (node_id blue = 0; blue < half; ++blue)
      if (r.bernoulli(0.3))
        gb.add_edge(red, static_cast<node_id>(half + blue));
  const auto g = std::move(gb).build();
  std::vector<node_id> reds, blues;
  for (node_id red = 0; red < half; ++red) reds.push_back(red);
  for (node_id blue = 0; blue < half; ++blue)
    if (g.degree(static_cast<node_id>(half + blue)) > 0)
      blues.push_back(static_cast<node_id>(half + blue));
  const int L = 4;
  const auto naive = core::run_assignment(g, reds, blues, 1, L, 2 * L, 3 * L,
                                          4 * L * L, L, 5, false);
  const auto ff = core::run_assignment(g, reds, blues, 1, L, 2 * L, 3 * L,
                                       4 * L * L, L, 5, true);
  expect_same_assignment(naive, ff);
  EXPECT_GT(naive.transmissions, 0);
}

TEST(FastForward, RecruitingBitIdentical) {
  const std::size_t half = 10;
  graph::graph::builder gb(2 * half);
  rng r(3);
  for (node_id red = 0; red < half; ++red)
    for (node_id blue = 0; blue < half; ++blue)
      if (r.bernoulli(0.25))
        gb.add_edge(red, static_cast<node_id>(half + blue));
  const auto g = std::move(gb).build();
  std::vector<node_id> reds, blues;
  for (node_id red = 0; red < half; ++red) reds.push_back(red);
  for (node_id blue = 0; blue < half; ++blue)
    blues.push_back(static_cast<node_id>(half + blue));
  const auto naive = core::run_recruiting(g, reds, blues, 4, 24, 4, 9, false);
  const auto ff = core::run_recruiting(g, reds, blues, 4, 24, 4, 9, true);
  expect_same_recruiting(naive, ff);
  EXPECT_GT(naive.recruited, 0u);
}

// Naive-vs-fast-forward equality cannot see a draw-order change, since both
// modes share the look-ahead. These outcomes were recorded from the
// draw-per-round implementation (one coin per participant per planned
// round), so any coin the look-ahead draws early, late or twice shows here.
TEST(FastForward, RecruitingOutcomePinnedToDrawPerRoundCoins) {
  const std::size_t half = 10;
  graph::graph::builder gb(2 * half);
  rng r(3);
  for (node_id red = 0; red < half; ++red)
    for (node_id blue = 0; blue < half; ++blue)
      if (r.bernoulli(0.25))
        gb.add_edge(red, static_cast<node_id>(half + blue));
  const auto g = std::move(gb).build();
  std::vector<node_id> reds, blues;
  for (node_id v = 0; v < half; ++v) {
    reds.push_back(v);
    blues.push_back(static_cast<node_id>(half + v));
  }
  for (const bool ff : {false, true}) {
    const auto res = core::run_recruiting(g, reds, blues, 4, 24, 4, 9, ff);
    EXPECT_EQ(res.rounds, 216);
    EXPECT_EQ(res.transmissions, 225);
    EXPECT_EQ(res.energy, (std::vector<std::uint32_t>{15, 18, 27, 15, 21, 24,
                                                      24, 15, 18, 24, 4, 2, 2,
                                                      2, 0, 1, 4, 4, 3, 2}));
    const std::vector<int> parents{5, 8, 0, 2, -1, 6, 5, 1, 9, 9};
    const std::vector<int> classes{2, 1, 1, 1, 0, 1, 2, 1, 2, 2};
    for (std::size_t i = 0; i < half; ++i) {
      const auto& b = res.blue_outcomes[i];
      EXPECT_EQ(b.recruited ? static_cast<int>(b.parent) : -1, parents[i]);
      EXPECT_EQ(static_cast<int>(b.parent_class), classes[i]);
    }
    const std::vector<int> red_classes{1, 1, 1, 0, 0, 2, 1, 0, 1, 2};
    for (std::size_t i = 0; i < half; ++i)
      EXPECT_EQ(static_cast<int>(res.red_outcomes[i].k), red_classes[i]);
  }
}

TEST(FastForward, AssignmentOutcomePinnedToDrawPerRoundCoins) {
  const std::size_t half = 12;
  graph::graph::builder gb(2 * half);
  rng r(77);
  for (node_id red = 0; red < half; ++red)
    for (node_id blue = 0; blue < half; ++blue)
      if (r.bernoulli(0.3))
        gb.add_edge(red, static_cast<node_id>(half + blue));
  const auto g = std::move(gb).build();
  std::vector<node_id> reds, blues;
  for (node_id red = 0; red < half; ++red) reds.push_back(red);
  for (node_id blue = 0; blue < half; ++blue)
    if (g.degree(static_cast<node_id>(half + blue)) > 0)
      blues.push_back(static_cast<node_id>(half + blue));
  const int L = 4;
  for (const bool ff : {false, true}) {
    const auto res = core::run_assignment(g, reds, blues, 1, L, 2 * L, 3 * L,
                                          4 * L * L, L, 5, ff);
    EXPECT_EQ(res.rounds, 21748);
    EXPECT_EQ(res.transmissions, 997);
    EXPECT_EQ(res.energy,
              (std::vector<std::uint32_t>{61, 58, 69, 101, 105, 66, 49, 40,
                                          40, 46, 55, 55, 19, 16, 40, 16, 19,
                                          20, 22, 19, 23, 19, 20, 19}));
    EXPECT_EQ(res.epoch_active_reds,
              (std::vector<std::size_t>{12, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
    const std::vector<node_id> parents{1, 1, 4, 10, 1, 5, 10, 1, 2, 4, 5, 2};
    for (std::size_t i = 0; i < blues.size(); ++i)
      EXPECT_EQ(res.st.parent[blues[i]], parents[i]);
  }
}

TEST(FastForward, RecruitingWithoutRedsIsFullyQuiet) {
  const auto g = layered(2, 3, 1);
  core::recruiting_instance::config cfg;
  cfg.g = &g;
  cfg.blues = {1, 2, 3};
  cfg.L = 3;
  cfg.iterations = 5;
  cfg.exp_step = 2;
  cfg.seed = 4;
  core::recruiting_instance inst(std::move(cfg));
  EXPECT_EQ(inst.quiet_rounds(), inst.rounds_required());
  inst.skip_rounds(inst.quiet_rounds());
  EXPECT_TRUE(inst.finished());
}

// --- Quiet windows of the Thm 1.1 set-up --------------------------------
//
// Each window test steps one instance naively, recording before every round
// the quiet window the instance reports and the transmissions it then plans.
// Every reported window must be transmission-free (soundness), the window
// under test must actually open (quiet_rounds() > 0 where the old, draw-
// per-round code stepped), and the fast-forward run must equal the naive
// one.

struct naive_trace {
  std::vector<round_t> quiet;     ///< quiet_rounds() before each round
  std::vector<std::size_t> tx;    ///< transmissions planned in each round
  std::vector<std::size_t> tx_prefix;  ///< tx_prefix[r] = sum of tx[0..r)

  [[nodiscard]] std::size_t tx_in(std::size_t from, std::size_t to) const {
    return tx_prefix[to] - tx_prefix[from];
  }
};

template <class Instance>
naive_trace trace_naive(Instance& inst, const graph::graph& g) {
  radio::network net(g, {.collision_detection = false});
  radio::round_buffer txs;
  naive_trace t;
  t.tx_prefix.push_back(0);
  while (!inst.finished()) {
    t.quiet.push_back(inst.quiet_rounds());
    txs.clear();
    inst.plan(txs);
    t.tx.push_back(txs.size());
    t.tx_prefix.push_back(t.tx_prefix.back() + txs.size());
    net.step(txs, [&](const radio::reception& rx) { inst.on_reception(rx); });
    inst.end_round();
  }
  return t;
}

void expect_windows_sound(const naive_trace& t) {
  for (std::size_t r = 0; r < t.quiet.size(); ++r) {
    const auto end = r + static_cast<std::size_t>(t.quiet[r]);
    ASSERT_LE(end, t.quiet.size()) << "window past the end at round " << r;
    ASSERT_EQ(t.tx_in(r, end), 0u) << "window of " << t.quiet[r]
                                   << " rounds at round " << r
                                   << " holds a transmission";
  }
}

// Reds 0..1, blues 2..4: red 0 - blue 2 is a lone pair, so once blue 2 is
// recruited red 0's beacons find no live hearer; red 1 reaches blues 3 and 4
// (class many); blue 4 also hears red 0, so red 0 may grow past its lone
// child and needs the ack handshake.
struct recruiting_case {
  graph::graph g;
  std::vector<node_id> reds{0, 1};
  std::vector<node_id> blues{2, 3, 4};
  int L = 3;
  int iterations = 60;
  int exp_step = 3;
  std::uint64_t seed = 12;

  recruiting_case() {
    graph::graph::builder gb(5);
    gb.add_edge(0, 2);
    gb.add_edge(1, 3);
    gb.add_edge(1, 4);
    gb.add_edge(0, 4);
    g = std::move(gb).build();
  }
  core::recruiting_instance make() const {
    core::recruiting_instance::config cfg;
    cfg.g = &g;
    cfg.reds = reds;
    cfg.blues = blues;
    cfg.L = L;
    cfg.iterations = iterations;
    cfg.exp_step = exp_step;
    cfg.seed = seed;
    return core::recruiting_instance(std::move(cfg));
  }
  void expect_ff_identical() const {
    expect_same_recruiting(
        core::run_recruiting(g, reds, blues, L, iterations, exp_step, seed,
                             false),
        core::run_recruiting(g, reds, blues, L, iterations, exp_step, seed,
                             true));
  }
};

TEST(FastForward, RecruitingDecayQuietWithoutLiveHearer) {
  const recruiting_case c;
  auto inst = c.make();
  const auto t = trace_naive(inst, c.g);
  expect_windows_sound(t);
  // An iteration whose round 0 had a beacon but whose blue Decay (rounds
  // 1..L+1) is skipped whole: no unrecruited blue heard a red.
  const std::size_t len = static_cast<std::size_t>(c.L) + 5;
  int taken = 0;
  for (std::size_t r = 0; r + 1 < t.quiet.size(); r += len)
    if (t.tx[r] > 0 && t.quiet[r + 1] == c.L + 1) ++taken;
  EXPECT_GT(taken, 0);
  c.expect_ff_identical();
}

TEST(FastForward, RecruitingAckRoundQuietWithoutAckDue) {
  const recruiting_case c;
  auto inst = c.make();
  const auto t = trace_naive(inst, c.g);
  expect_windows_sound(t);
  // Rounds L+3 after a response round with transmitters, skipped because no
  // blue has an ack due.
  const std::size_t len = static_cast<std::size_t>(c.L) + 5;
  const std::size_t ack = static_cast<std::size_t>(c.L) + 3;
  int taken = 0;
  int acked = 0;  // ack rounds with an ack due must stay stepped
  for (std::size_t r = 0; r + ack < t.quiet.size(); r += len) {
    if (t.tx[r + ack - 1] > 0 && t.quiet[r + ack] > 0) ++taken;
    if (t.tx[r + ack] > 0) ++acked;
  }
  EXPECT_GT(taken, 0);
  EXPECT_GT(acked, 0);
  c.expect_ff_identical();
}

TEST(FastForward, RecruitingRedBeaconLookAhead) {
  const recruiting_case c;
  auto inst = c.make();
  const auto t = trace_naive(inst, c.g);
  expect_windows_sound(t);
  // Round 0 draws one coin per red; with the coins drawn ahead, an iteration
  // in which every red's coin is tails is skipped from its round 0 on.
  const std::size_t len = static_cast<std::size_t>(c.L) + 5;
  int taken = 0;
  for (std::size_t r = 0; r < t.quiet.size(); r += len)
    if (t.quiet[r] >= static_cast<round_t>(len)) ++taken;
  EXPECT_GT(taken, 0);
  c.expect_ff_identical();
}

// Bipartite instance of experiment E7's shape, with a few degree-1 blues so
// that stage I has loners. Sub-phase offsets follow rounds_required: P0 is
// the first D rounds, then each epoch is 1 probe round, D s1_decay rounds,
// three recruiting parts of P rounds and D s3_adopt rounds.
struct assignment_case {
  graph::graph g;
  std::vector<node_id> reds;
  std::vector<node_id> blues;
  int L = 4;
  int dp = 8;
  int epochs = 6;
  int iters = 16;
  int exp_step = 4;
  std::uint64_t seed = 5;
  std::size_t D = 0, E = 0, P = 0;

  assignment_case() {
    const std::size_t half = 12;
    graph::graph::builder gb(2 * half);
    rng r(77);
    for (node_id red = 0; red < half; ++red)
      for (node_id blue = 0; blue < half - 3; ++blue)
        if (r.bernoulli(0.3))
          gb.add_edge(red, static_cast<node_id>(half + blue));
    for (node_id k = 0; k < 3; ++k)  // loners
      gb.add_edge(k, static_cast<node_id>(2 * half - 1 - k));
    g = std::move(gb).build();
    for (node_id red = 0; red < half; ++red) reds.push_back(red);
    for (node_id blue = 0; blue < half; ++blue)
      if (g.degree(static_cast<node_id>(half + blue)) > 0)
        blues.push_back(static_cast<node_id>(half + blue));
    D = static_cast<std::size_t>(dp) * static_cast<std::size_t>(L + 1);
    P = static_cast<std::size_t>(
        core::recruiting_instance::rounds_required(L, iters));
    E = 1 + 2 * D + 3 * P;
  }
  std::size_t epoch_start(int e) const {
    return D + static_cast<std::size_t>(e) * E;
  }
  naive_trace trace() const {
    core::build_state st(g.node_count());
    for (node_id v : reds) {
      st.ring_of[v] = 0;
      st.rel_level[v] = 0;
    }
    for (node_id u : blues) {
      st.ring_of[u] = 0;
      st.rel_level[u] = 1;
      st.rank[u] = 1;
    }
    core::assignment_problem::config cfg;
    cfg.g = &g;
    cfg.st = &st;
    cfg.blue_layer_nodes = blues;
    cfg.red_layer_nodes = reds;
    cfg.L = L;
    cfg.decay_phases = dp;
    cfg.epochs = epochs;
    cfg.recruit_iterations = iters;
    cfg.recruit_exp_step = exp_step;
    cfg.seed = seed;
    core::assignment_problem prob(std::move(cfg));
    auto t = trace_naive(prob, g);
    EXPECT_EQ(t.quiet.size(),
              static_cast<std::size_t>(core::assignment_problem::rounds_required(
                  L, dp, epochs, iters)));
    return t;
  }
  /// Epochs whose sub-phase [from, from + len) (epoch-relative) transmits
  /// and reports a quiet window inside it.
  int windows_taken(const naive_trace& t, std::size_t from,
                    std::size_t len) const {
    int taken = 0;
    for (int e = 0; e < epochs; ++e) {
      const std::size_t a = epoch_start(e) + from;
      if (t.tx_in(a, a + len) == 0) continue;
      for (std::size_t r = a; r < a + len; ++r)
        if (t.quiet[r] > 0) {
          ++taken;
          break;
        }
    }
    return taken;
  }
  void expect_ff_identical() const {
    expect_same_assignment(
        core::run_assignment(g, reds, blues, 1, L, dp, epochs, iters,
                             exp_step, seed, false),
        core::run_assignment(g, reds, blues, 1, L, dp, epochs, iters,
                             exp_step, seed, true));
  }
};

TEST(FastForward, AssignmentP0LookAhead) {
  const assignment_case c;
  const auto t = c.trace();
  expect_windows_sound(t);
  // Every blue announces in P0, and between the all-heads rounds that open
  // each Decay phase the coins leave quiet stretches.
  ASSERT_GT(t.tx_in(0, c.D), 0u);
  int taken = 0;
  for (std::size_t r = 0; r < c.D; ++r)
    if (t.quiet[r] > 0) ++taken;
  EXPECT_GT(taken, 0);
  c.expect_ff_identical();
}

TEST(FastForward, AssignmentS1DecayLookAhead) {
  const assignment_case c;
  const auto t = c.trace();
  expect_windows_sound(t);
  EXPECT_GT(c.windows_taken(t, 1, c.D), 0);
  c.expect_ff_identical();
}

TEST(FastForward, AssignmentS3AdoptLookAhead) {
  const assignment_case c;
  const auto t = c.trace();
  expect_windows_sound(t);
  EXPECT_GT(c.windows_taken(t, 1 + c.D + 3 * c.P, c.D), 0);
  c.expect_ff_identical();
}

TEST(FastForward, AssignmentIdleOnceNoRedIsActive) {
  const assignment_case c;
  const auto t = c.trace();
  expect_windows_sound(t);
  // The first epoch that starts without an active red is quiet to the end.
  const auto naive = core::run_assignment(c.g, c.reds, c.blues, 1, c.L, c.dp,
                                          c.epochs, c.iters, c.exp_step,
                                          c.seed, false);
  int idle = -1;
  for (int e = 0; e < c.epochs; ++e)
    if (naive.epoch_active_reds[static_cast<std::size_t>(e)] == 0) {
      idle = e;
      break;
    }
  ASSERT_GE(idle, 0) << "no epoch ran without an active red";
  const std::size_t start = c.epoch_start(idle);
  EXPECT_EQ(t.quiet[start], static_cast<round_t>(t.quiet.size() - start));
  c.expect_ff_identical();
}

// advance() must leave the erasure RNG untouched: after skipping k idle
// rounds, the channel behaves exactly as if those rounds had been stepped
// with an empty transmitter list.
TEST(FastForward, AdvanceKeepsErasureRngAligned) {
  const auto g = layered(1, 6, 2);  // source + one dense layer
  const radio::model m{.collision_detection = true,
                       .erasure_prob = 0.5,
                       .erasure_seed = 1234};
  const radio::round_buffer quiet;
  const radio::packet b0 = radio::packet::make_beacon(0);
  radio::round_buffer busy;
  busy.add(0, b0);
  const auto drop = [](const radio::reception&) {};

  for (const round_t idle : {0, 1, 7, 1000, 1 << 20}) {
    radio::network stepped(g, m);
    radio::network jumped(g, m);
    for (round_t i = 0; i < idle; ++i) stepped.step(quiet, drop);
    jumped.advance(idle);
    EXPECT_EQ(stepped.now(), jumped.now());
    // Several busy rounds afterwards must erase identically.
    for (int i = 0; i < 32; ++i) {
      stepped.step(busy, drop);
      jumped.step(busy, drop);
    }
    EXPECT_EQ(stepped.stats().erasures, jumped.stats().erasures);
    EXPECT_EQ(stepped.stats().deliveries, jumped.stats().deliveries);
    EXPECT_EQ(stepped.stats().rounds, jumped.stats().rounds);
    EXPECT_EQ(stepped.energy(), jumped.energy());
    EXPECT_EQ(jumped.skipped_rounds(), idle);
    EXPECT_EQ(stepped.skipped_rounds(), 0);
  }
}

// --no-fast-forward cross-check for the Decay family: under either coin
// contract, the fast_forward flag only changes whether the provably-idle
// rounds are stepped on the channel or advanced past — results must be
// bit-identical. Batched mode's idle rounds come from its transmit calendar;
// per_round mode's from deferring planned-but-empty rounds (draw order
// unchanged — the "exact where order is preserved" axis).
TEST(FastForward, ClassicDecayBitIdenticalInBothDrawModes) {
  const auto g = layered(10, 5, 31);
  for (const auto draws :
       {baseline::draw_mode::batched, baseline::draw_mode::per_round}) {
    baseline::decay_options opt;
    opt.seed = 7;
    opt.draws = draws;
    opt.fast_forward = false;
    const auto naive = baseline::run_decay_broadcast(g, 0, opt);
    opt.fast_forward = true;
    const auto ff = baseline::run_decay_broadcast(g, 0, opt);
    expect_same_result(naive, ff);
    EXPECT_TRUE(naive.completed);
  }
}

TEST(FastForward, LeveledDecayBitIdenticalWithAndWithoutNoise) {
  const auto g = layered(8, 4, 13);
  const auto levels = graph::bfs(g, 0).level;
  for (const bool mmv : {false, true}) {
    for (const auto draws :
         {baseline::draw_mode::batched, baseline::draw_mode::per_round}) {
      baseline::leveled_decay_options opt;
      opt.seed = 11;
      opt.mmv_noise = mmv;
      opt.draws = draws;
      opt.fast_forward = false;
      const auto naive = baseline::run_leveled_decay_broadcast(g, 0, levels, opt);
      opt.fast_forward = true;
      const auto ff = baseline::run_leveled_decay_broadcast(g, 0, levels, opt);
      expect_same_result(naive, ff);
      EXPECT_TRUE(naive.completed) << "mmv=" << mmv;
    }
  }
}

TEST(FastForward, TunedDecayBitIdentical) {
  const auto g = layered(12, 4, 17);
  for (const auto draws :
       {baseline::draw_mode::batched, baseline::draw_mode::per_round}) {
    baseline::tuned_decay_options opt;
    opt.seed = 3;
    opt.draws = draws;
    opt.fast_forward = false;
    const auto naive = baseline::run_tuned_decay_broadcast(g, 0, opt);
    opt.fast_forward = true;
    const auto ff = baseline::run_tuned_decay_broadcast(g, 0, opt);
    expect_same_result(naive, ff);
  }
}

// Without stop_when_complete the run must execute its full budget in both
// modes, and the fast path must not disturb post-completion rounds.
TEST(FastForward, DecayFullBudgetBitIdentical) {
  const auto g = layered(4, 4, 5);
  baseline::decay_options opt;
  opt.seed = 19;
  opt.max_rounds = 400;
  opt.stop_when_complete = false;
  opt.fast_forward = false;
  const auto naive = baseline::run_decay_broadcast(g, 0, opt);
  opt.fast_forward = true;
  const auto ff = baseline::run_decay_broadcast(g, 0, opt);
  expect_same_result(naive, ff);
  EXPECT_EQ(naive.rounds_executed, 400);
}

TEST(FastForward, AdvanceCountsRoundsAndNothingElse) {
  const auto g = layered(2, 2, 8);
  radio::network net(g, {.collision_detection = true});
  net.advance(123456789);
  EXPECT_EQ(net.now(), 123456789);
  EXPECT_EQ(net.stats().transmissions, 0);
  EXPECT_EQ(net.stats().deliveries, 0);
  EXPECT_EQ(net.stats().collisions_observed, 0);
  EXPECT_EQ(net.max_energy(), 0);
}

}  // namespace
}  // namespace rn
