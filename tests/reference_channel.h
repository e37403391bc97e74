// Test-only reference for the paper's channel (section 1.1), written from
// the model rather than from radio/network.cpp. Each round every node either
// transmits or listens; a listener observes
//   - the message of its one transmitting neighbor if exactly one transmits,
//   - a collision if two or more transmit and the model has collision
//     detection (silence without it),
//   - silence if none transmits.
// Non-silent observations are reported in the channel-v1 dispatch order
// (core/params.h), derived here from its definition: blocks of
// graph::compute_block_plan over the degree prefix in ascending order, and
// within a block the order in which a walk over the transmitters (in
// transmit-list order) and their neighbor lists (in row order) first reaches
// each listener. The erasure channel draws one Bernoulli from an rng seeded
// with model::erasure_seed per single-sender reception, in that order; an
// erased reception is observed as silence.
//
// It is deliberately naive — per-listener neighbor scans, a std::vector<bool>
// transmitter set, a binary search for each listener's block — so that it
// shares nothing with the engine's packed hit words and touch lists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/params.h"
#include "graph/graph.h"
#include "graph/partitioned.h"
#include "radio/network.h"

namespace rn::ref {

/// (listener, observation, sender) — sender is no_node unless a message.
using ref_reception = std::tuple<node_id, radio::observation, node_id>;

class reference_channel {
 public:
  reference_channel(const graph::graph& g, radio::model m)
      : g_(g), model_(m), erasure_(m.erasure_seed),
        energy_(g.node_count(), 0) {
    std::vector<std::uint32_t> prefix(g.node_count() + 1, 0);
    for (node_id v = 0; v < g.node_count(); ++v)
      prefix[v + 1] = prefix[v] + static_cast<std::uint32_t>(g.degree(v));
    bounds_ =
        graph::compute_block_plan(prefix, core::kChannelContractBlocks).bounds;
  }

  /// Resolves one round in which exactly the nodes in `txs` transmit.
  std::vector<ref_reception> step(const std::vector<node_id>& txs) {
    const std::size_t n = g_.node_count();
    std::vector<bool> transmitting(n, false);
    for (const node_id u : txs) {
      transmitting[u] = true;
      energy_[u] += 1;
    }
    stats_.rounds += 1;
    stats_.transmissions += static_cast<std::int64_t>(txs.size());

    // First-touch order per block.
    std::vector<std::vector<node_id>> order(bounds_.size() - 1);
    std::vector<bool> reached(n, false);
    for (const node_id u : txs)
      for (const node_id v : g_.neighbors(u)) {
        if (reached[v] || transmitting[v]) continue;
        reached[v] = true;
        order[block_of(v)].push_back(v);
      }

    std::vector<ref_reception> out;
    for (const auto& block : order)
      for (const node_id v : block) {
        std::size_t count = 0;
        node_id sender = no_node;
        for (const node_id w : g_.neighbors(v))
          if (transmitting[w]) {
            ++count;
            sender = w;
          }
        if (count == 1) {
          if (model_.erasure_prob > 0.0 &&
              erasure_.bernoulli(model_.erasure_prob)) {
            stats_.erasures += 1;
          } else {
            stats_.deliveries += 1;
            out.emplace_back(v, radio::observation::message, sender);
          }
        } else if (model_.collision_detection) {
          stats_.collisions_observed += 1;
          out.emplace_back(v, radio::observation::collision, no_node);
        }
      }
    return out;
  }

  [[nodiscard]] const radio::network_stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::uint32_t>& energy() const {
    return energy_;
  }

 private:
  [[nodiscard]] std::size_t block_of(node_id v) const {
    // bounds_ is ascending with bounds_[0] = 0: v's block is the last b with
    // bounds_[b] <= v.
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
    return static_cast<std::size_t>(it - bounds_.begin()) - 1;
  }

  const graph::graph& g_;
  radio::model model_;
  rng erasure_;
  std::vector<node_id> bounds_;
  radio::network_stats stats_;
  std::vector<std::uint32_t> energy_;
};

}  // namespace rn::ref
