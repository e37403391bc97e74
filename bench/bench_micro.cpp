// M1 — micro-benchmarks (google-benchmark): simulator and coding throughput.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "baseline/decay.h"
#include "coding/gf2.h"
#include "common/rng.h"
#include "core/gst_centralized.h"
#include "core/gst_distributed.h"
#include "graph/generators.h"
#include "radio/network.h"

using namespace rn;

// The owned-packet slow path: every round mints per-node packets into the
// round_buffer arena and dispatches receptions through a type-erased
// std::function. (Historically this measured the deleted legacy by-value
// step adapter; the round shape is unchanged so the perf trajectory stays
// comparable.)
static void BM_NetworkStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 1);
  radio::network net(g, {.collision_detection = true});
  rng r(1);
  radio::round_buffer txs;
  const std::function<void(const radio::reception&)> on_rx =
      [](const radio::reception&) {};
  for (auto _ : state) {
    txs.clear();
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(3))
        txs.add_owned(v, radio::packet::make_beacon(v));
    net.step(txs, on_rx);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NetworkStep)->Arg(64)->Arg(512)->Arg(4096);

// The zero-allocation transmit path: a reusable round_buffer referencing
// per-node flyweight packets, receptions statically dispatched. Same round
// shape as BM_NetworkStep minus the per-round packet copies and the
// std::function hop — the gap between the two is the type-erasure tax.
static void BM_StepNoAlloc(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 1);
  radio::network net(g, {.collision_detection = true});
  rng r(1);
  std::vector<radio::packet> beacons;
  beacons.reserve(n);
  for (node_id v = 0; v < n; ++v)
    beacons.push_back(radio::packet::make_beacon(v));
  radio::round_buffer txs;
  std::int64_t sink = 0;
  for (auto _ : state) {
    txs.clear();
    for (node_id v = 0; v < n; ++v)
      if (r.with_probability_pow2(3)) txs.add(v, beacons[v]);
    net.step(txs, [&](const radio::reception& rx) { sink += rx.listener; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StepNoAlloc)->Arg(64)->Arg(512)->Arg(4096);

// Per-round cost of the Decay baseline on its batched coin calendar
// (counter-based blocks + next-transmit sampling; baseline/decay.h). Tracks
// the e10 Decay column's hot loop; items = simulated protocol rounds.
static void BM_DecayRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 1);
  std::uint64_t seed = 1;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    baseline::decay_options opt;
    opt.seed = ++seed;
    opt.fast_forward = true;
    const auto res = baseline::run_decay_broadcast(g, 0, opt);
    rounds += res.rounds_executed;
    benchmark::DoNotOptimize(res.transmissions);
  }
  state.SetItemsProcessed(rounds);
  state.counters["rounds_per_run"] =
      static_cast<double>(rounds) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_DecayRound)->Arg(512)->Arg(4096)->Unit(benchmark::kMicrosecond);

// Fast-forwarding idle rounds must stay O(1) per call regardless of graph
// size — this tracks the advance() hot path (and would catch any accidental
// per-node work creeping into it).
static void BM_NetworkAdvance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::random_gnp_connected(n, 8.0 / static_cast<double>(n), 1);
  radio::network net(g, {.collision_detection = true});
  for (auto _ : state) {
    net.advance(1 << 20);
    benchmark::DoNotOptimize(net.now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkAdvance)->Arg(64)->Arg(4096);

// End-to-end fast-forwarded Theorem 2.1 construction: the protocol simulates
// ~10^6 rounds; wall-clock here tracks how well the quiet-round analysis
// collapses them (the CI perf gate trends this).
static void BM_GstConstructionFastForward(benchmark::State& state) {
  graph::layered_options lo;
  lo.depth = static_cast<std::size_t>(state.range(0));
  lo.width = 4;
  lo.edge_prob = 0.4;
  lo.seed = 5;
  const auto g = graph::random_layered(lo);
  core::distributed_gst_options opt;
  opt.seed = 11;
  opt.prm = core::params::fast();
  opt.fast_forward = true;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    auto out = core::build_gst_distributed_single(g, 0, opt);
    rounds = out.rounds;
    benchmark::DoNotOptimize(out.parent_rank.data());
  }
  state.counters["protocol_rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_GstConstructionFastForward)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// A full-rank decoder of batch size k (payload 32 bytes), as every relay
// node is for most of a Theorem 1.2/1.3 run.
static coding::gf2_decoder full_rank_decoder(std::size_t k) {
  coding::gf2_decoder dec(k, 32);
  for (std::size_t i = 0; i < k; ++i)
    dec.insert(coding::gf2_vector::unit(k, i),
               std::vector<std::uint8_t>(32, static_cast<std::uint8_t>(i)));
  return dec;
}

static void BM_Gf2DecoderInsert(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  rng r(2);
  const auto src = full_rank_decoder(k);
  coding::gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  for (auto _ : state) {
    state.PauseTiming();
    coding::gf2_decoder sink(k, 32);
    state.ResumeTiming();
    while (!sink.complete()) {
      src.random_combination_into(r, coeffs, payload);
      sink.insert(coeffs, payload);
    }
    benchmark::DoNotOptimize(sink.rank());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_Gf2DecoderInsert)->Arg(8)->Arg(64)->Arg(256);

// Cost per coded packet of an RLNC re-encode at full rank, written in place
// into a reused slot (the relay's fresh-packet path).
static void BM_RlncEncode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto src = full_rank_decoder(k);
  rng r(5);
  coding::gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  for (auto _ : state) {
    src.random_combination_into(r, coeffs, payload);
    benchmark::DoNotOptimize(payload.data());
    benchmark::DoNotOptimize(coeffs.words());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RlncEncode)->Arg(8)->Arg(64);

// Cost per reception at a decoder that is already at full rank — the common
// case of a relay run (the packet is dropped after the size checks).
static void BM_RlncReceiveFullRank(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto src = full_rank_decoder(k);
  auto sink = full_rank_decoder(k);
  rng r(6);
  coding::gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  src.random_combination_into(r, coeffs, payload);
  for (auto _ : state) benchmark::DoNotOptimize(sink.insert(coeffs, payload));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RlncReceiveFullRank)->Arg(8)->Arg(64);

static void BM_CentralizedGst(benchmark::State& state) {
  graph::layered_options lo;
  lo.depth = static_cast<std::size_t>(state.range(0));
  lo.width = 8;
  lo.edge_prob = 0.4;
  lo.seed = 3;
  const auto g = graph::random_layered(lo);
  for (auto _ : state) {
    auto t = core::build_gst_centralized(g, 0);
    benchmark::DoNotOptimize(t.max_rank());
  }
}
BENCHMARK(BM_CentralizedGst)->Arg(8)->Arg(32)->Arg(128);

static void BM_RngPow2(benchmark::State& state) {
  rng r(4);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += r.with_probability_pow2(5) ? 1 : 0;
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngPow2);

BENCHMARK_MAIN();
