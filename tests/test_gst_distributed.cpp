#include <gtest/gtest.h>

#include "common/math.h"
#include "core/gst.h"
#include "core/gst_distributed.h"
#include "graph/bfs.h"
#include "graph/generators.h"

namespace rn::core {
namespace {

void expect_valid(const graph::graph& g, const gst& t, const char* what) {
  const auto errs = validate_gst(g, t);
  EXPECT_TRUE(errs.empty()) << what << ": "
                            << (errs.empty() ? "" : errs.front());
}

distributed_gst_outcome build_single(const graph::graph& g, node_id source,
                                     std::uint64_t seed, bool pipelined,
                                     params prm = params::fast()) {
  distributed_gst_options opt;
  opt.seed = seed;
  opt.prm = prm;
  opt.pipelined = pipelined;
  return build_gst_distributed_single(g, source, opt);
}

TEST(Distributed, Path) {
  const auto g = graph::path(10);
  const auto out = build_single(g, 0, 1, true);
  expect_valid(g, out.forests[0], "path");
}

TEST(Distributed, Star) {
  const auto g = graph::star(10);
  const auto out = build_single(g, 0, 2, true);
  expect_valid(g, out.forests[0], "star");
  EXPECT_EQ(out.forests[0].rank[0], 2);
}

TEST(Distributed, CliqueChain) {
  const auto g = graph::clique_chain(3, 5);
  const auto out = build_single(g, 0, 3, true);
  expect_valid(g, out.forests[0], "clique chain");
}

TEST(Distributed, Grid) {
  const auto g = graph::grid(4, 5);
  const auto out = build_single(g, 0, 4, true);
  expect_valid(g, out.forests[0], "grid");
}

class DistributedPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DistributedPropertyTest, ValidOnRandomLayered) {
  const auto [seed, pipelined] = GetParam();
  graph::layered_options lo;
  lo.depth = 5;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.intra_prob = 0.2;
  // Checked-in instance seeds (re-picked when the generator moved to
  // geometric skip-sampling and every sampled graph changed).
  lo.seed = static_cast<std::uint64_t>(seed) * 19;
  const auto g = graph::random_layered(lo);
  // Validity is a w.h.p. guarantee: use the paper-grade constants.
  const auto out = build_single(g, 0, static_cast<std::uint64_t>(seed),
                                pipelined, params::paper());
  expect_valid(g, out.forests[0], pipelined ? "pipelined" : "sequential");
  EXPECT_EQ(out.forests[0].member_count(), g.node_count());
  // Local knowledge must be self-consistent with the forest.
  const auto& t = out.forests[0];
  for (node_id v = 0; v < g.node_count(); ++v) {
    if (t.parent[v] != no_node) {
      EXPECT_EQ(out.parent_rank[v], t.rank[t.parent[v]]) << "node " << v;
    }
    const node_id sc = out.stretch_child[v];
    if (sc != no_node) {
      EXPECT_EQ(t.parent[sc], v);
      EXPECT_EQ(t.rank[sc], t.rank[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedPropertyTest,
                         ::testing::Combine(::testing::Range(1, 13),
                                            ::testing::Bool()));

TEST(Distributed, PipelinedFasterThanSequentialForDeepGraphs) {
  // Pipelining turns the (depth x rank) slot product into a sum, at a x3
  // round-class cost: rounds are (2w + L - 2) * 3R vs w * L * R. The win
  // factor is ~L/6, so it only shows on deep graphs; asymptotically it is
  // the paper's O(D log^4) vs O(D log^5).
  graph::layered_options lo;
  lo.depth = 40;
  lo.width = 2;
  lo.edge_prob = 0.5;
  lo.seed = 5;
  const auto g = graph::random_layered(lo);
  const auto pip = build_single(g, 0, 9, true);
  const auto seq = build_single(g, 0, 9, false);
  expect_valid(g, pip.forests[0], "pipelined");
  expect_valid(g, seq.forests[0], "sequential");
  EXPECT_LT(pip.rounds, seq.rounds);
}

class DistributedRingsTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRingsTest, ParallelRingConstructionsAreValid) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  graph::layered_options lo;
  lo.depth = 12;
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = seed * 23;
  const auto g = graph::random_layered(lo);
  const auto b = graph::bfs(g, 0);
  const auto rd = decompose_rings(b.level, 4);
  ASSERT_GE(rd.rings.size(), 3u);
  distributed_gst_options opt;
  opt.seed = seed;
  opt.prm = params::paper();
  const auto out = build_gst_distributed(g, rd, opt);
  std::size_t covered = 0;
  for (std::size_t j = 0; j < rd.rings.size(); ++j) {
    expect_valid(g, out.forests[j], "ring forest");
    covered += out.forests[j].member_count();
  }
  EXPECT_EQ(covered, g.node_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedRingsTest, ::testing::Range(1, 9));

TEST(Distributed, FallbacksRareAtPaperParams) {
  int total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    graph::layered_options lo;
    lo.depth = 4;
    lo.width = 4;
    lo.edge_prob = 0.4;
    lo.seed = seed * 31;
    const auto g = graph::random_layered(lo);
    const auto out = build_single(g, 0, seed, true, params::paper());
    expect_valid(g, out.forests[0], "paper params");
    total += out.fallback_finalizations + out.fallback_adoptions;
  }
  EXPECT_EQ(total, 0);
}

TEST(Distributed, RoundCountMatchesSlotBudget) {
  const auto g = graph::path(6);
  distributed_gst_options opt;
  opt.prm = params::fast();
  opt.pipelined = true;
  const auto out = build_gst_distributed(
      g, decompose_rings(graph::bfs(g, 0).level, 6), opt);
  const std::size_t n_hat = g.node_count();
  const int L = log_range(n_hat);
  const round_t R = assignment_problem::rounds_required(
      L, opt.prm.decay_phases(n_hat), opt.prm.epochs(n_hat),
      opt.prm.recruit_iterations(n_hat));
  const round_t max_slot = 2 * (5 - 1) + (L + 1 - 1);
  EXPECT_EQ(out.rounds, (max_slot + 1) * 3 * R);
}

}  // namespace
}  // namespace rn::core
