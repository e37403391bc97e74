#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "radio/network.h"
#include "radio/result.h"
#include "reference_channel.h"

namespace rn::radio {
namespace {

using graph::path;
using graph::star;

packet beacon(node_id v) { return packet::make_beacon(v); }

struct observed {
  std::map<node_id, observation> what;
  std::map<node_id, node_id> from;
};

observed run_round(network& net,
                   std::initializer_list<std::pair<node_id, packet>> txs) {
  round_buffer buf;
  for (const auto& [from, pkt] : txs) buf.add_owned(from, pkt);
  observed o;
  net.step(buf, [&](const reception& rx) {
    o.what[rx.listener] = rx.what;
    if (rx.what == observation::message) o.from[rx.listener] = rx.from;
  });
  return o;
}

TEST(Network, SingleTransmitterDelivers) {
  const auto g = path(3);  // 0-1-2
  network net(g, {.collision_detection = true});
  const auto o = run_round(net, {{1, beacon(1)}});
  EXPECT_EQ(o.what.at(0), observation::message);
  EXPECT_EQ(o.what.at(2), observation::message);
  EXPECT_EQ(o.from.at(0), 1u);
}

TEST(Network, TwoTransmittersCollideWithCd) {
  const auto g = star(4);  // hub 0, leaves 1..3
  network net(g, {.collision_detection = true});
  const auto o = run_round(net, {{1, beacon(1)}, {2, beacon(2)}});
  EXPECT_EQ(o.what.at(0), observation::collision);
  EXPECT_EQ(o.what.count(3), 0u);  // leaf 3 has no transmitting neighbor
}

TEST(Network, TwoTransmittersSilentWithoutCd) {
  const auto g = star(4);
  network net(g, {.collision_detection = false});
  const auto o = run_round(net, {{1, beacon(1)}, {2, beacon(2)}});
  EXPECT_EQ(o.what.count(0), 0u);  // indistinguishable from silence
}

TEST(Network, TransmitterDoesNotHear) {
  const auto g = path(2);
  network net(g, {.collision_detection = true});
  const auto o = run_round(net, {{0, beacon(0)}, {1, beacon(1)}});
  // Both transmit; neither receives anything (half duplex).
  EXPECT_TRUE(o.what.empty());
}

TEST(Network, NonNeighborUnaffected) {
  const auto g = path(4);  // 0-1-2-3
  network net(g, {.collision_detection = true});
  const auto o = run_round(net, {{0, beacon(0)}});
  EXPECT_EQ(o.what.count(2), 0u);
  EXPECT_EQ(o.what.count(3), 0u);
}

TEST(Network, CollisionThenCleanRound) {
  const auto g = star(4);
  network net(g, {.collision_detection = true});
  run_round(net, {{1, beacon(1)}, {2, beacon(2)}});
  const auto o = run_round(net, {{3, beacon(3)}});
  EXPECT_EQ(o.what.at(0), observation::message);
  EXPECT_EQ(o.from.at(0), 3u);
}

TEST(Network, DoubleTransmitIsContractError) {
  const auto g = path(2);
  network net(g, {.collision_detection = true});
  round_buffer txs;
  const packet b = beacon(0);
  txs.add(0, b);
  txs.add(0, b);
  EXPECT_THROW(net.step(txs, [](const reception&) {}), contract_error);
}

TEST(Network, StatsCount) {
  const auto g = star(5);
  network net(g, {.collision_detection = true});
  run_round(net, {{1, beacon(1)}, {2, beacon(2)}});  // collision at hub
  run_round(net, {{1, beacon(1)}});                  // delivery to hub
  run_round(net, {});                                // silence
  EXPECT_EQ(net.stats().rounds, 3);
  EXPECT_EQ(net.stats().transmissions, 3);
  EXPECT_EQ(net.stats().deliveries, 1);
  EXPECT_EQ(net.stats().collisions_observed, 1);
}

TEST(Network, PacketContentRoundTrips) {
  const auto g = path(2);
  network net(g, {.collision_detection = true});
  auto body = std::make_shared<packet_body>();
  body->data = {1, 2, 3};
  const packet p = packet::make_data(7, body);
  round_buffer txs;
  txs.add(0, p);
  packet received;
  net.step(txs, [&](const reception& rx) {
    ASSERT_EQ(rx.what, observation::message);
    received = *rx.pkt;
  });
  EXPECT_EQ(received.kind, packet_kind::data);
  EXPECT_EQ(received.a, 7u);
  EXPECT_EQ(received.body->data, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Network, PacketFactories) {
  EXPECT_EQ(packet::make_pair(3, 4).kind, packet_kind::pair);
  EXPECT_EQ(packet::make_pair(3, 4).a, 3u);
  EXPECT_EQ(packet::make_pair(3, 4).b, 4u);
  EXPECT_EQ(packet::make_sigma(2).a, 2u);
  EXPECT_EQ(packet::make_rank(5, 3).x, 3u);
  EXPECT_EQ(packet::make_noise().kind, packet_kind::noise);
  EXPECT_EQ(packet::make_ack(1, 2).b, 2u);
}

TEST(Network, EnergyAccounting) {
  const auto g = path(3);
  network net(g, {.collision_detection = true});
  run_round(net, {{0, beacon(0)}, {1, beacon(1)}});
  run_round(net, {{1, beacon(1)}});
  EXPECT_EQ(net.energy()[0], 1);
  EXPECT_EQ(net.energy()[1], 2);
  EXPECT_EQ(net.energy()[2], 0);
  EXPECT_EQ(net.max_energy(), 2);
}

TEST(Network, FlushTotalsOnDemandNeverDoubleCounts) {
  const auto g = path(3);
  const engine_totals before = network::process_totals();
  {
    network net(g, {.collision_detection = true});
    run_round(net, {{1, beacon(1)}});
    run_round(net, {});
    net.advance(10);
    // A live network publishes on demand...
    net.flush_totals();
    engine_totals t = network::process_totals();
    EXPECT_EQ(t.stepped_rounds - before.stepped_rounds, 2);
    EXPECT_EQ(t.skipped_rounds - before.skipped_rounds, 10);
    // ...idempotently (only deltas since the last flush are added)...
    net.flush_totals();
    t = network::process_totals();
    EXPECT_EQ(t.stepped_rounds - before.stepped_rounds, 2);
    EXPECT_EQ(t.skipped_rounds - before.skipped_rounds, 10);
    run_round(net, {{1, beacon(1)}});
  }
  // ...and the destructor flushes exactly the remainder.
  const engine_totals t = network::process_totals();
  EXPECT_EQ(t.stepped_rounds - before.stepped_rounds, 3);
  EXPECT_EQ(t.skipped_rounds - before.skipped_rounds, 10);
}

TEST(RoundBuffer, FlyweightAndOwnedPacketsDeliver) {
  const auto g = path(3);  // 0-1-2
  network net(g, {.collision_detection = true});
  const packet flyweight = packet::make_beacon(0);
  round_buffer txs;
  std::map<node_id, node_id> from;
  const auto record = [&](const reception& rx) {
    ASSERT_EQ(rx.what, observation::message);
    from[rx.listener] = rx.pkt->a;
  };
  txs.add(0, flyweight);  // referenced, caller-owned
  net.step(txs, record);
  EXPECT_EQ(from.at(1), 0u);
  txs.clear();
  txs.add_owned(2, packet::make_beacon(2));  // copied into the arena
  net.step(txs, record);
  EXPECT_EQ(from.at(1), 2u);
  EXPECT_EQ(net.stats().transmissions, 2);
  EXPECT_EQ(net.stats().deliveries, 2);
}

TEST(RoundBuffer, ArenaSlotsAreStableAndRecycled) {
  const auto g = star(6);
  network net(g, {.collision_detection = true});
  round_buffer txs;
  for (int round = 0; round < 3; ++round) {
    txs.clear();
    // Enough owned packets to force arena growth; addresses handed to the
    // buffer must stay valid while it grows (deque arena).
    txs.add_owned(1, packet::make_beacon(1));
    for (node_id v = 2; v < 6; ++v)
      txs.add_owned(v, packet::make_pair(v, v));
    std::size_t heard = 0;
    net.step(txs, [&](const reception& rx) {
      ++heard;
      EXPECT_EQ(rx.listener, 0u);
      EXPECT_EQ(rx.what, observation::collision);
    });
    EXPECT_EQ(heard, 1u);  // hub: 5 transmitters collide
  }
  EXPECT_EQ(net.stats().transmissions, 15);
}

TEST(RoundBuffer, DoubleTransmitIsContractError) {
  const auto g = path(2);
  network net(g, {.collision_detection = true});
  const packet b = beacon(0);
  round_buffer txs;
  txs.add(0, b);
  txs.add(0, b);
  EXPECT_THROW(net.step(txs, [](const reception&) {}), contract_error);
}

// --- differential test against the reference channel -------------------
//
// Contract under test: network::step delivers exactly what the paper's
// model says (tests/reference_channel.h, written from section 1.1 and the
// channel-v1 order definition) — reception for reception, in the same order,
// with the same erasure draws and the same counters.

struct graph_case {
  const char* name;
  graph::graph g;
};

std::vector<graph_case> reference_graphs() {
  std::vector<graph_case> out;
  out.push_back({"gnp", graph::random_gnp_connected(700, 10.0 / 700, 7)});
  graph::layered_options lo;
  lo.depth = 12;
  lo.width = 40;
  lo.edge_prob = 0.2;
  lo.intra_prob = 0.05;
  lo.seed = 11;
  out.push_back({"layered", graph::random_layered(lo)});
  out.push_back({"path", path(300)});
  out.push_back({"star", star(200)});
  return out;
}

void expect_matches_reference(const graph::graph& g, const model& m,
                              std::uint64_t seed) {
  network net(g, m);
  ref::reference_channel oracle(g, m);
  const std::size_t n = g.node_count();
  std::vector<packet> beacons;
  beacons.reserve(n);
  for (node_id v = 0; v < n; ++v) beacons.push_back(packet::make_beacon(v));
  rng r(seed);
  round_buffer txs;
  std::vector<node_id> tx_ids;
  for (int round = 0; round < 40; ++round) {
    // Sweep densities from ~every-other-node to ~1/64, in a shuffled
    // transmit order, so rounds mix collisions, clean deliveries, empty
    // neighborhoods, and first touches that are not in id order.
    const int e = 1 + round % 6;
    tx_ids.clear();
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(e)) tx_ids.push_back(v);
    for (std::size_t i = tx_ids.size(); i > 1; --i)
      std::swap(tx_ids[i - 1], tx_ids[r.uniform(i)]);
    txs.clear();
    for (const node_id v : tx_ids) txs.add(v, beacons[v]);
    std::vector<ref::ref_reception> got;
    net.step(txs, [&](const reception& rx) {
      got.emplace_back(rx.listener, rx.what,
                       rx.what == observation::message ? rx.from : no_node);
      EXPECT_TRUE(rx.what != observation::message ||
                  rx.pkt == &beacons[rx.from]);
    });
    ASSERT_EQ(got, oracle.step(tx_ids)) << "round " << round;
  }
  const network_stats& a = net.stats();
  const network_stats& b = oracle.stats();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions_observed, b.collisions_observed);
  EXPECT_EQ(a.erasures, b.erasures);
  EXPECT_EQ(net.energy(), oracle.energy());
  EXPECT_GT(b.deliveries, 0);
  // Every configuration exercises the branches it enables.
  EXPECT_TRUE(m.erasure_prob == 0.0 || b.erasures > 0);
  EXPECT_TRUE(!m.collision_detection || b.collisions_observed > 0);
}

TEST(ReferenceChannel, StepMatchesModelOnRandomRounds) {
  std::uint64_t seed = 123;
  for (const graph_case& c : reference_graphs()) {
    for (const bool cd : {true, false}) {
      for (const double erasure : {0.0, 0.3}) {
        SCOPED_TRACE(std::string(c.name) + (cd ? " cd" : " no-cd") +
                     " erasure " + std::to_string(erasure));
        const model m{.collision_detection = cd,
                      .erasure_prob = erasure,
                      .erasure_seed = 99};
        expect_matches_reference(c.g, m, ++seed);
      }
    }
  }
}

TEST(CompletionTracker, Basics) {
  completion_tracker t(3);
  EXPECT_FALSE(t.all_done());
  t.mark(0);
  t.mark(0);  // idempotent
  t.exclude(1);
  EXPECT_EQ(t.remaining(), 1u);
  t.mark(2);
  EXPECT_TRUE(t.all_done());
  t.observe_round(17);
  t.observe_round(20);
  EXPECT_EQ(t.first_complete_round(), 17);
}

}  // namespace
}  // namespace rn::radio
