#include "radio/network.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/check.h"
#include "core/params.h"
#include "graph/partitioned.h"

namespace rn::radio {

namespace {

/// Block count of the listener plan: owned by the channel contract, which
/// src/dist partitions on too.
constexpr unsigned kNumBlocks = core::kChannelContractBlocks;

std::atomic<std::int64_t> g_stepped{0};
std::atomic<std::int64_t> g_skipped{0};

std::atomic<remote_walk*> g_remote_walk{nullptr};

}  // namespace

void set_remote_walk(remote_walk* hook) {
  g_remote_walk.store(hook, std::memory_order_release);
}

remote_walk* get_remote_walk() {
  return g_remote_walk.load(std::memory_order_acquire);
}

network::network(const graph::graph& g, model m)
    : g_(&g), model_(m), erasure_rng_(m.erasure_seed) {
  RN_REQUIRE(m.erasure_prob >= 0.0 && m.erasure_prob < 1.0,
             "erasure probability must be in [0, 1)");
  node_count_ = g.node_count();
  // A multi-process backend may claim this network's walks: its ranks hold
  // the partitioned adjacency, so the private CSR copy below — the dominant
  // per-trial allocation — is skipped entirely in remote mode. Only the
  // row-offset prefix is kept (it fixes the block plan and costs 4 bytes
  // per node).
  if (remote_walk* hook = get_remote_walk();
      hook != nullptr && hook->adopt(g))
    remote_ = hook;
  // Private CSR copy: 32-bit row offsets and a contiguous neighbor array keep
  // the per-round walk cache-linear and independent of the graph's internals.
  row_start_.assign(node_count_ + 1, 0);
  std::size_t total = 0;
  for (node_id v = 0; v < node_count_; ++v) {
    total += g.degree(v);
    RN_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
               "adjacency too large for 32-bit CSR offsets");
    row_start_[v + 1] = static_cast<std::uint32_t>(total);
  }
  if (remote_ == nullptr) {
    adj_.reserve(total);
    for (node_id v = 0; v < node_count_; ++v)
      for (node_id u : g.neighbors(v)) adj_.push_back(u);
  }

  hit_state_.assign(node_count_, 0);
  is_transmitting_.assign(node_count_, 0);
  tx_count_.assign(node_count_, 0);

  // The block plan: kNumBlocks contiguous listener ranges with roughly equal
  // adjacency volume, recycled across every round. Shared with the
  // distributed backend (graph/partitioned.h) so every process derives the
  // identical partition — and dispatch order — from the degree prefix alone.
  block_bounds_ = graph::compute_block_plan(row_start_, kNumBlocks).bounds;
  block_of_.assign(node_count_, 0);
  for (unsigned b = 0; b < kNumBlocks; ++b)
    for (node_id v = block_bounds_[b]; v < block_bounds_[b + 1]; ++v)
      block_of_[v] = static_cast<std::uint8_t>(b);
  // Touch lists sized to their blocks (a listener is appended at most once
  // per round), so pushes need no capacity checks.
  block_touched_.resize(kNumBlocks);
  for (unsigned b = 0; b < kNumBlocks; ++b)
    block_touched_[b].reset(block_bounds_[b + 1] - block_bounds_[b]);
}

network::~network() {
  flush_totals();
  if (remote_ != nullptr) remote_->release(*g_);
}

void network::flush_totals() {
  const std::int64_t stepped = stats_.rounds - skipped_;
  g_stepped.fetch_add(stepped - flushed_stepped_, std::memory_order_relaxed);
  flushed_stepped_ = stepped;
  g_skipped.fetch_add(skipped_ - flushed_skipped_, std::memory_order_relaxed);
  flushed_skipped_ = skipped_;
}

engine_totals network::process_totals() {
  engine_totals t;
  t.stepped_rounds = g_stepped.load(std::memory_order_relaxed);
  t.skipped_rounds = g_skipped.load(std::memory_order_relaxed);
  return t;
}

std::int64_t network::max_energy() const {
  std::int64_t best = 0;
  for (std::uint32_t e : tx_count_)
    best = std::max(best, static_cast<std::int64_t>(e));
  return best;
}

void network::advance(round_t idle_rounds) {
  RN_REQUIRE(idle_rounds >= 0, "cannot advance by a negative round count");
  stats_.rounds += idle_rounds;
  skipped_ += idle_rounds;
}

void network::prepare_round(const round_buffer& txs) {
  stats_.rounds += 1;
  const std::size_t m = txs.size();
  stats_.transmissions += static_cast<std::int64_t>(m);

  // Mark transmitters; a node transmitting twice in one round is a runner
  // bug.
  for (std::size_t i = 0; i < m; ++i) {
    const node_id u = txs[i].from;
    RN_REQUIRE(u < node_count_, "transmitter out of range");
    RN_REQUIRE(!is_transmitting_[u], "node transmitted twice in a round");
    is_transmitting_[u] = 1;
    tx_count_[u] += 1;
  }

  if (remote_ != nullptr) {
    // The adopted backend must leave hit words and per-block touch lists
    // exactly as serial_walk would; the dispatch in step() is shared.
    remote_->walk_round(txs, hit_state_.data(), block_touched_.data());
    return;
  }
  serial_walk(txs);
}

void network::serial_walk(const round_buffer& txs) {
  // Tally transmitting neighbors of every potential listener: one
  // contiguous CSR row walk per transmitter. Per-listener state is one
  // packed word — hit count in the high half, last sender index in the
  // low half — so each neighbor visit touches a single cache line. First
  // touches land on the owner block's list, in walk order.
  const node_id* adj = adj_.data();
  std::uint64_t* hits = hit_state_.data();
  const std::uint8_t* owner = block_of_.data();
  const auto m = static_cast<std::uint32_t>(txs.size());
  for (std::uint32_t i = 0; i < m; ++i) {
    const node_id u = txs[i].from;
    const std::uint32_t begin = row_start_[u];
    const std::uint32_t end = row_start_[u + 1];
    for (std::uint32_t a = begin; a < end; ++a) {
      const node_id v = adj[a];
      const std::uint64_t hs = hits[v];
      if (hs == 0) block_touched_[owner[v]].push(v);
      hits[v] = ((hs + (1ULL << 32)) & 0xffffffff00000000ULL) | i;
    }
  }
}

}  // namespace rn::radio
