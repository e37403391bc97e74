#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baseline/decay.h"
#include "core/single_broadcast.h"
#include "graph/bfs.h"
#include "graph/generators.h"

namespace rn::core {
namespace {

// Completion-round quantiles over many seeds for one Decay draw mode.
struct quantiles {
  double p10, p50, p90;
};

template <class RunFn>
quantiles completion_quantiles(std::size_t trials, RunFn&& run) {
  std::vector<double> rounds;
  rounds.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    const auto res = run(t);
    EXPECT_TRUE(res.completed);
    rounds.push_back(static_cast<double>(res.rounds_to_complete));
  }
  std::sort(rounds.begin(), rounds.end());
  auto q = [&](double p) {
    return rounds[static_cast<std::size_t>(p * static_cast<double>(rounds.size() - 1))];
  };
  return {q(0.1), q(0.5), q(0.9)};
}

void expect_close(double a, double b, double rel_tol, const char* what) {
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  EXPECT_LE(hi, lo * (1.0 + rel_tol)) << what << ": " << a << " vs " << b;
}

class DecayFamilyTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DecayFamilyTest, ClassicDecayCompletes) {
  const auto [family, seed] = GetParam();
  graph::graph g;
  switch (family) {
    case 0: g = graph::path(20); break;
    case 1: g = graph::clique_chain(4, 5); break;
    case 2: g = graph::random_gnp_connected(40, 0.12, static_cast<std::uint64_t>(seed)); break;
    default: g = graph::grid(5, 6); break;
  }
  baseline::decay_options opt;
  opt.seed = static_cast<std::uint64_t>(seed) * 31 + 1;
  const auto res = baseline::run_decay_broadcast(g, 0, opt);
  EXPECT_TRUE(res.completed);
  EXPECT_GT(res.rounds_to_complete, 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DecayFamilyTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(1, 6)));

TEST(Decay, TunedDecayCompletes) {
  graph::layered_options lo;
  lo.depth = 16;
  lo.width = 4;
  lo.edge_prob = 0.5;
  lo.seed = 2;
  const auto g = graph::random_layered(lo);
  baseline::tuned_decay_options opt;
  opt.seed = 5;
  const auto res = baseline::run_tuned_decay_broadcast(g, 0, opt);
  EXPECT_TRUE(res.completed);
}

class LeveledDecayMmvTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(LeveledDecayMmvTest, Lemma32CompletesEvenUnderNoise) {
  // Lemma 3.2: the leveled Decay schedule is MMV — it completes even when
  // prompted uninformed nodes jam.
  const auto [seed, mmv] = GetParam();
  graph::layered_options lo;
  lo.depth = 10;
  lo.width = 5;
  lo.edge_prob = 0.4;
  lo.seed = static_cast<std::uint64_t>(seed) * 7;
  const auto g = graph::random_layered(lo);
  const auto levels = graph::bfs(g, 0).level;
  baseline::leveled_decay_options opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.mmv_noise = mmv;
  const auto res = baseline::run_leveled_decay_broadcast(g, 0, levels, opt);
  EXPECT_TRUE(res.completed) << "seed=" << seed << " mmv=" << mmv;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LeveledDecayMmvTest,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Bool()));

// The batched counter-based coin contract changes per-node draw order, so
// equivalence with the historical per-round streams is distributional: the
// completion-round law must match. 240 independent trials per mode; the
// p10/p50/p90 quantiles must agree within a tolerance far tighter than the
// ~2x spread a wrong coin bias (e.g. an off-by-one exponent) would produce.
TEST(Decay, BatchedCoinsMatchPerRoundDistribution) {
  graph::layered_options lo;
  lo.depth = 8;
  lo.width = 6;
  lo.edge_prob = 0.35;
  lo.seed = 12;
  const auto g = graph::random_layered(lo);
  const std::size_t trials = 240;
  auto run_mode = [&](baseline::draw_mode draws) {
    return completion_quantiles(trials, [&](std::size_t t) {
      baseline::decay_options opt;
      opt.seed = 1000 + t;
      opt.draws = draws;
      opt.fast_forward = true;
      return baseline::run_decay_broadcast(g, 0, opt);
    });
  };
  const auto batched = run_mode(baseline::draw_mode::batched);
  const auto oracle = run_mode(baseline::draw_mode::per_round);
  expect_close(batched.p10, oracle.p10, 0.30, "p10");
  expect_close(batched.p50, oracle.p50, 0.25, "p50");
  expect_close(batched.p90, oracle.p90, 0.30, "p90");
}

TEST(Decay, LeveledBatchedCoinsMatchPerRoundDistribution) {
  graph::layered_options lo;
  lo.depth = 8;
  lo.width = 5;
  lo.edge_prob = 0.4;
  lo.seed = 4;
  const auto g = graph::random_layered(lo);
  const auto levels = graph::bfs(g, 0).level;
  const std::size_t trials = 400;  // completion rounds are lumpy (level mod 3)
  auto run_mode = [&](baseline::draw_mode draws, bool mmv) {
    return completion_quantiles(trials, [&](std::size_t t) {
      baseline::leveled_decay_options opt;
      opt.seed = 500 + t;
      opt.draws = draws;
      opt.mmv_noise = mmv;
      opt.fast_forward = true;
      return baseline::run_leveled_decay_broadcast(g, 0, levels, opt);
    });
  };
  for (const bool mmv : {false, true}) {
    const auto batched = run_mode(baseline::draw_mode::batched, mmv);
    const auto oracle = run_mode(baseline::draw_mode::per_round, mmv);
    expect_close(batched.p50, oracle.p50, 0.25, mmv ? "p50+noise" : "p50");
    expect_close(batched.p90, oracle.p90, 0.30, mmv ? "p90+noise" : "p90");
  }
}

// Degenerate single-node broadcast: complete before any round runs, in both
// draw modes (the source is the only tracked node).
TEST(Decay, SingleNodeCompletesInZeroRoundsInBothDrawModes) {
  const auto g = graph::path(1);
  for (const auto draws :
       {baseline::draw_mode::batched, baseline::draw_mode::per_round}) {
    baseline::decay_options opt;
    opt.seed = 3;
    opt.draws = draws;
    const auto res = baseline::run_decay_broadcast(g, 0, opt);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.rounds_to_complete, 0);
    EXPECT_EQ(res.rounds_executed, 0);
  }
}

TEST(KnownSingle, CompletesOnFamilies) {
  for (int family = 0; family < 3; ++family) {
    graph::graph g;
    switch (family) {
      case 0: g = graph::path(30); break;
      case 1: g = graph::grid(5, 8); break;
      default: g = graph::clique_chain(5, 4); break;
    }
    single_broadcast_options opt;
    opt.seed = 11 + static_cast<std::uint64_t>(family);
    const auto res = run_known_single_broadcast(g, 0, opt);
    EXPECT_TRUE(res.completed) << "family " << family;
  }
}

class Theorem11Test : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(Theorem11Test, UnknownTopologyCdBroadcastCompletes) {
  const auto [seed, multi_ring] = GetParam();
  graph::layered_options lo;
  lo.depth = multi_ring ? 12 : 5;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = static_cast<std::uint64_t>(seed) * 41;
  const auto g = graph::random_layered(lo);
  single_broadcast_options opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.prm = params::fast();
  if (multi_ring) opt.prm.ring_divisor = 3.0;  // force several rings
  const auto res = run_unknown_cd_single_broadcast(g, 0, opt);
  EXPECT_TRUE(res.completed) << "seed=" << seed << " rings=" << multi_ring;
  ASSERT_EQ(res.phase_rounds.size(), 4u);
  EXPECT_STREQ(res.phase_rounds[0].first, "bfs_wave");
  // Wave phase is exactly D rounds.
  EXPECT_EQ(res.phase_rounds[0].second, static_cast<round_t>(lo.depth));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem11Test,
                         ::testing::Combine(::testing::Range(1, 7),
                                            ::testing::Bool()));

TEST(Theorem11, SetupProducesValidForests) {
  graph::layered_options lo;
  lo.depth = 12;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = 77;
  const auto g = graph::random_layered(lo);
  single_broadcast_options opt;
  opt.seed = 3;
  opt.prm = params::fast();
  opt.prm.ring_divisor = 3.0;
  const auto setup = prepare_unknown_topology(g, 0, opt);
  EXPECT_GE(setup.rings.rings.size(), 2u);
  EXPECT_EQ(setup.unlabeled, 0u);
  for (std::size_t j = 0; j < setup.forests.size(); ++j) {
    const auto errs = validate_gst(g, setup.forests[j]);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
    // Virtual distances must exist for every member.
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (setup.forests[j].member[v]) {
        EXPECT_NE(setup.derived[j].virtual_distance[v], no_level);
      }
    }
  }
}

TEST(Theorem11, PhaseAccountingAddsUp) {
  const auto g = graph::grid(4, 6);
  single_broadcast_options opt;
  opt.seed = 5;
  opt.prm = params::fast();
  const auto res = run_unknown_cd_single_broadcast(g, 0, opt);
  round_t sum = 0;
  for (const auto& [name, r] : res.phase_rounds) sum += r;
  EXPECT_EQ(sum, res.rounds_executed);
}

}  // namespace
}  // namespace rn::core
