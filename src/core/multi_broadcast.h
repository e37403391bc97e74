// k-message broadcast algorithms (paper section 3).
//
//  * Theorem 1.2 (known topology): O(D + k log n + log^2 n) — random linear
//    network coding over the MMV-GST schedule of a centrally built GST. With
//    known topology the coefficient headers cost nothing (footnote 5), so all
//    k messages are coded together.
//  * Theorem 1.3 (unknown topology + CD): O(D + k log n + log^6 n) — the
//    Theorem 1.1 preprocessing (wave, rings, distributed GSTs, virtual
//    distances), then the messages travel in batches ("generations") of
//    Theta(log n) [DEV-7]: inside a ring a batch is broadcast with RLNC on
//    the ring's GST schedule; between rings the decoded batch is handed off
//    with fountain-coded FEC packets over Decay phases; batches pipeline so
//    every ring works on at most one batch at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/rlnc.h"
#include "core/params.h"
#include "core/single_broadcast.h"
#include "graph/graph.h"
#include "radio/result.h"

namespace rn::core {

struct multi_broadcast_options {
  std::size_t n_hat = 0;
  level_t d_hat = 0;
  std::uint64_t seed = 1;
  params prm = params::paper();
  std::size_t payload_size = 32;  ///< bytes per message
  /// Relay budget of run_known_multi_broadcast (0 = from schedule_slack).
  /// Only that runner reads it: run_unknown_cd_multi_broadcast ignores it.
  round_t max_rounds = 0;
  /// Skip transmitter-free rounds in every phase via network::advance
  /// (bit-identical results; see README "Fast-forward execution").
  bool fast_forward = false;
};

struct multi_broadcast_result {
  radio::broadcast_result base;
  bool payloads_verified = false;  ///< every node decoded every message bit-exactly
};

/// Theorem 1.2. `messages` all start at `source`.
[[nodiscard]] multi_broadcast_result run_known_multi_broadcast(
    const graph::graph& g, node_id source,
    const std::vector<coding::message>& messages,
    const multi_broadcast_options& opt);

/// Theorem 1.3. The relay stops at the round where every node can decode
/// every batch; a run that cannot complete runs every planned relay round.
[[nodiscard]] multi_broadcast_result run_unknown_cd_multi_broadcast(
    const graph::graph& g, node_id source,
    const std::vector<coding::message>& messages,
    const multi_broadcast_options& opt);

}  // namespace rn::core
