#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/multi_baselines.h"
#include "common/math.h"
#include "core/multi_broadcast.h"
#include "graph/generators.h"
#include "radio/network.h"

namespace rn::core {
namespace {

class KnownMultiTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnownMultiTest, Theorem12DecodesExactPayloads) {
  const auto [k, seed] = GetParam();
  graph::layered_options lo;
  lo.depth = 6;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = static_cast<std::uint64_t>(seed) * 3;
  const auto g = graph::random_layered(lo);
  const auto msgs = coding::make_test_messages(static_cast<std::size_t>(k), 16,
                                               static_cast<std::uint64_t>(seed));
  multi_broadcast_options opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.payload_size = 16;
  const auto res = run_known_multi_broadcast(g, 0, msgs, opt);
  EXPECT_TRUE(res.base.completed) << "k=" << k << " seed=" << seed;
  EXPECT_TRUE(res.payloads_verified);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnownMultiTest,
                         ::testing::Combine(::testing::Values(1, 2, 5, 12, 24),
                                            ::testing::Values(1, 2, 3)));

TEST(KnownMulti, ThroughputScalesWithLogNotD) {
  // Doubling k adds ~6L rounds per extra message (one fresh wave per 6L-round
  // schedule period) — independent of D and far below sequential Decay's
  // ~D log n per message. Completion rounds jitter by about one wave period,
  // so slopes are averaged over seeds.
  auto mean_extra = [](std::size_t depth) {
    graph::layered_options lo;
    lo.depth = depth;
    lo.width = 3;
    lo.edge_prob = 0.5;
    lo.seed = 5;
    const auto g = graph::random_layered(lo);
    const auto m8 = coding::make_test_messages(8, 8, 1);
    const auto m16 = coding::make_test_messages(16, 8, 1);
    double total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      multi_broadcast_options opt;
      opt.seed = seed;
      opt.payload_size = 8;
      const auto r8 = run_known_multi_broadcast(g, 0, m8, opt);
      const auto r16 = run_known_multi_broadcast(g, 0, m16, opt);
      EXPECT_TRUE(r8.base.completed && r16.base.completed);
      total += static_cast<double>(r16.base.rounds_to_complete -
                                   r8.base.rounds_to_complete);
    }
    return total / 5.0;
  };
  const double deep = mean_extra(24);
  const double shallow = mean_extra(6);
  EXPECT_LT(deep, 8 * 24 * 3);  // well below 8 extra D-trips
  EXPECT_LT(deep, 3.0 * std::max(shallow, 42.0));  // slope independent of D
}

class UnknownMultiTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(UnknownMultiTest, Theorem13DecodesExactPayloads) {
  const auto [seed, multi_ring] = GetParam();
  graph::layered_options lo;
  lo.depth = multi_ring ? 10 : 5;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = static_cast<std::uint64_t>(seed) * 11;
  const auto g = graph::random_layered(lo);
  const std::size_t k = 10;
  const auto msgs =
      coding::make_test_messages(k, 16, static_cast<std::uint64_t>(seed));
  multi_broadcast_options opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.payload_size = 16;
  opt.prm = params::fast();
  if (multi_ring) opt.prm.ring_divisor = 3.0;
  const auto res = run_unknown_cd_multi_broadcast(g, 0, msgs, opt);
  EXPECT_TRUE(res.base.completed) << "seed=" << seed;
  EXPECT_TRUE(res.payloads_verified);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnknownMultiTest,
                         ::testing::Combine(::testing::Range(1, 6),
                                            ::testing::Bool()));

// --- runner coverage: multi-ring handoff and two-word coefficient headers --

/// Runs `run` with fast-forward on and off — an execution setting that must
/// not change a result — and checks both runs agree field for field.
/// Returns the first run.
template <class Run>
multi_broadcast_result expect_execution_invariant(Run run) {
  std::vector<multi_broadcast_result> runs;
  for (const bool ff : {true, false}) runs.push_back(run(ff));
  const auto& a = runs.front();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const auto& b = runs[i];
    EXPECT_EQ(a.payloads_verified, b.payloads_verified) << "run " << i;
    EXPECT_EQ(a.base.completed, b.base.completed) << "run " << i;
    EXPECT_EQ(a.base.rounds_to_complete, b.base.rounds_to_complete);
    EXPECT_EQ(a.base.rounds_executed, b.base.rounds_executed);
    EXPECT_EQ(a.base.transmissions, b.base.transmissions);
    EXPECT_EQ(a.base.deliveries, b.base.deliveries);
    EXPECT_EQ(a.base.collisions_observed, b.base.collisions_observed);
    EXPECT_EQ(a.base.energy, b.base.energy) << "run " << i;
    EXPECT_EQ(a.base.phase_rounds.size(), b.base.phase_rounds.size());
    for (std::size_t p = 0; p < a.base.phase_rounds.size() &&
                            p < b.base.phase_rounds.size();
         ++p) {
      EXPECT_STREQ(a.base.phase_rounds[p].first, b.base.phase_rounds[p].first);
      EXPECT_EQ(a.base.phase_rounds[p].second, b.base.phase_rounds[p].second);
    }
  }
  return a;
}

round_t phase_sum(const radio::broadcast_result& r) {
  round_t sum = 0;
  for (const auto& [name, rounds] : r.phase_rounds) sum += rounds;
  return sum;
}

/// The Theorem 1.3 relay as planned: every super-epoch (one per ring plus one
/// per batch) runs its intra-ring budget and then its FEC handoff. Mirrors
/// the budgets of run_unknown_cd_multi_broadcast.
round_t planned_relay_rounds(const unknown_topology_setup& setup,
                             std::size_t n, std::size_t k, const params& prm) {
  const int L = log_range(n);
  const std::size_t batch = static_cast<std::size_t>(L);
  level_t w_max = 0;
  for (const auto& ring : setup.rings.rings)
    w_max = std::max(w_max, ring.depth);
  const auto intra = static_cast<round_t>(
      prm.schedule_slack * (6.0 * w_max + 48.0 * L * L +
                            8.0 * static_cast<double>(batch) * (L + 1) + 64));
  const auto handoff =
      prm.decay_phases(n) +
      static_cast<int>(prm.fec_overhead * static_cast<double>(batch));
  const auto epochs =
      static_cast<round_t>(setup.rings.rings.size() + (k + batch - 1) / batch);
  return epochs * (intra + static_cast<round_t>(handoff) * (L + 1));
}

/// Theorem 1.3 set-up and options on a layered graph of `depth` layers with
/// `k` messages; `ring_divisor` = 3 splits the deeper graphs into rings.
struct unknown_multi_case {
  graph::graph g;
  multi_broadcast_options opt;
  std::vector<coding::message> msgs;
  unknown_topology_setup setup;

  unknown_multi_case(std::size_t depth, double ring_divisor, std::size_t k) {
    graph::layered_options lo;
    lo.depth = depth;
    lo.width = 4;
    lo.edge_prob = 0.4;
    lo.seed = 77;
    g = graph::random_layered(lo);
    opt.seed = 3;
    opt.payload_size = 16;
    opt.prm = params::fast();
    opt.prm.ring_divisor = ring_divisor;
    msgs = coding::make_test_messages(k, 16, 3);
    single_broadcast_options so;
    so.seed = opt.seed;
    so.prm = opt.prm;
    setup = prepare_unknown_topology(g, 0, so);
  }

  [[nodiscard]] multi_broadcast_result run_invariant() const {
    return expect_execution_invariant([&](bool ff) {
      auto o = opt;
      o.fast_forward = ff;
      return run_unknown_cd_multi_broadcast(g, 0, msgs, o);
    });
  }
};

/// A completed Theorem 1.3 run stops its relay at the completing round: it
/// executes exactly rounds_to_complete rounds, well short of the planned
/// relay, and its phases (batch_pipeline = relay rounds run) still sum to
/// the rounds executed.
void expect_relay_stopped_at_completion(const unknown_multi_case& c,
                                        const multi_broadcast_result& res) {
  ASSERT_TRUE(res.base.completed);
  EXPECT_TRUE(res.payloads_verified);
  EXPECT_EQ(res.base.rounds_executed, res.base.rounds_to_complete);
  EXPECT_EQ(phase_sum(res.base), res.base.rounds_executed);
  EXPECT_LT(res.base.rounds_executed,
            c.setup.total_rounds() +
                planned_relay_rounds(c.setup, c.g.node_count(), c.msgs.size(),
                                     c.opt.prm));
}

// Theorem 1.3 on a graph that splits into several rings, so batches are
// handed between rings by the FEC phase (a single-ring graph leaves those
// rounds empty) and relay slots are dropped between super-epochs. 20
// messages make several batches, so the stop can land in a handoff or a
// later super-epoch.
TEST(UnknownMultiCoverage, MultiRingHandoffIsExecutionInvariant) {
  const unknown_multi_case c(12, 3.0, 20);
  ASSERT_GE(c.setup.rings.rings.size(), 2u);
  ASSERT_GT(c.msgs.size(),
            static_cast<std::size_t>(log_range(c.g.node_count())));
  expect_relay_stopped_at_completion(c, c.run_invariant());
}

TEST(UnknownMultiCoverage, SingleRingStopsAtCompletion) {
  const unknown_multi_case c(5, params::fast().ring_divisor, 20);
  ASSERT_EQ(c.setup.rings.rings.size(), 1u);
  expect_relay_stopped_at_completion(c, c.run_invariant());
}

// A budget too short to complete runs every planned relay round.
TEST(UnknownMultiCoverage, IncompleteRunKeepsFullRelay) {
  unknown_multi_case c(12, 3.0, 20);
  c.opt.prm.schedule_slack = 0.01;
  const auto res = c.run_invariant();
  EXPECT_FALSE(res.base.completed);
  EXPECT_FALSE(res.payloads_verified);
  EXPECT_EQ(res.base.rounds_to_complete, -1);
  EXPECT_EQ(res.base.rounds_executed,
            c.setup.total_rounds() +
                planned_relay_rounds(c.setup, c.g.node_count(), c.msgs.size(),
                                     c.opt.prm));
  EXPECT_EQ(phase_sum(res.base), res.base.rounds_executed);
}

// Theorem 1.2 with 100 messages coded together: coefficient rows span two
// 64-bit words.
TEST(KnownMultiCoverage, HundredMessagesIsExecutionInvariant) {
  graph::layered_options lo;
  lo.depth = 6;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = 12;
  const auto g = graph::random_layered(lo);
  const auto msgs = coding::make_test_messages(100, 16, 4);
  multi_broadcast_options opt;
  opt.seed = 4;
  opt.payload_size = 16;
  const auto res = expect_execution_invariant([&](bool ff) {
    auto o = opt;
    o.fast_forward = ff;
    return run_known_multi_broadcast(g, 0, msgs, o);
  });
  EXPECT_TRUE(res.base.completed);
  EXPECT_TRUE(res.payloads_verified);
}

TEST(Baselines, SequentialDecayDeliversAll) {
  const auto g = graph::grid(4, 5);
  baseline::multi_options opt;
  opt.k = 5;
  opt.seed = 3;
  const auto res = baseline::run_sequential_decay_multi(g, 0, opt);
  EXPECT_TRUE(res.completed);
}

TEST(Baselines, RoutingDeliversAll) {
  const auto g = graph::grid(4, 5);
  baseline::multi_options opt;
  opt.k = 5;
  opt.seed = 3;
  const auto res = baseline::run_routing_multi(g, 0, opt);
  EXPECT_TRUE(res.completed);
}

TEST(Baselines, SequentialSlowerThanCodingOnDeepGraphs) {
  graph::layered_options lo;
  lo.depth = 16;
  lo.width = 3;
  lo.edge_prob = 0.5;
  lo.seed = 4;
  const auto g = graph::random_layered(lo);
  const std::size_t k = 10;
  baseline::multi_options bopt;
  bopt.k = k;
  bopt.seed = 6;
  const auto seq = baseline::run_sequential_decay_multi(g, 0, bopt);
  multi_broadcast_options copt;
  copt.seed = 6;
  copt.payload_size = 8;
  const auto rlnc = run_known_multi_broadcast(
      g, 0, coding::make_test_messages(k, 8, 2), copt);
  ASSERT_TRUE(seq.completed && rlnc.base.completed);
  EXPECT_GT(seq.rounds_to_complete, rlnc.base.rounds_to_complete);
}

}  // namespace
}  // namespace rn::core
