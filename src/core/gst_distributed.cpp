#include "core/gst_distributed.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "core/bfs_protocols.h"
#include "graph/bfs.h"
#include "radio/network.h"

namespace rn::core {

namespace {

struct problem_slot {
  std::int32_t ring;
  level_t blue_level;
  rank_t rank;
  round_t slot;
  int round_class;  ///< absolute blue layer mod 3 (pipelined mode)
};

}  // namespace

distributed_gst_outcome build_gst_distributed(
    const graph::graph& g, const ring_decomposition& rd,
    const distributed_gst_options& opt) {
  const std::size_t n = g.node_count();
  const std::size_t n_hat = opt.n_hat == 0 ? n : opt.n_hat;
  const int L = log_range(n_hat);
  const int dp = opt.prm.decay_phases(n_hat);
  const int epochs = opt.prm.epochs(n_hat);
  const int iters = opt.prm.recruit_iterations(n_hat);
  const int exp_step = opt.prm.recruit_exp_step(n_hat);
  const rank_t max_rank = static_cast<rank_t>(L) + 1;

  build_state st(n);
  st.ring_of = rd.ring_of;
  st.rel_level = rd.rel_level;

  // Per (ring, relative level) node lists.
  level_t w_max = 0;
  for (const auto& ring : rd.rings) w_max = std::max(w_max, ring.depth);
  std::vector<std::vector<std::vector<node_id>>> layer_nodes(rd.rings.size());
  for (std::size_t j = 0; j < rd.rings.size(); ++j) {
    layer_nodes[j].resize(static_cast<std::size_t>(rd.rings[j].depth) + 1);
    for (node_id v : rd.rings[j].members)
      layer_nodes[j][static_cast<std::size_t>(rd.rel_level[v])].push_back(v);
  }
  // Roots count as assigned (they have no parent to find).
  for (const auto& ring : rd.rings)
    for (node_id r : ring.roots) st.assigned[r] = 1;

  // Enumerate problems with their slots.
  const round_t R =
      assignment_problem::rounds_required(L, dp, epochs, iters);
  const round_t slot_len = opt.pipelined ? 3 * R : R;
  std::vector<problem_slot> problems;
  round_t max_slot = 0;
  for (std::size_t j = 0; j < rd.rings.size(); ++j) {
    for (level_t lam = 1; lam <= rd.rings[j].depth; ++lam) {
      for (rank_t i = max_rank; i >= 1; --i) {
        round_t slot;
        if (opt.pipelined) {
          slot = 2 * static_cast<round_t>(w_max - lam) +
                 static_cast<round_t>(max_rank - i);
        } else {
          slot = static_cast<round_t>(w_max - lam) * max_rank +
                 static_cast<round_t>(max_rank - i);
        }
        const int cls = static_cast<int>(
            (rd.rings[j].first_layer + lam) % 3);
        problems.push_back({static_cast<std::int32_t>(j), lam, i, slot, cls});
        max_slot = std::max(max_slot, slot);
      }
    }
  }
  std::sort(problems.begin(), problems.end(),
            [](const problem_slot& a, const problem_slot& b) {
              return a.slot < b.slot;
            });

  radio::network net(g, {.collision_detection = false});
  radio::round_buffer txs;
  // Problems active in the current slot, keyed for reception dispatch.
  struct active_problem {
    problem_slot meta;
    std::unique_ptr<assignment_problem> prob;
  };
  std::vector<active_problem> active;
  std::size_t next_problem = 0;
  std::uint64_t problem_counter = 0;
  // Reception dispatch index: owner[layer_base[j] + λ] is the active problem
  // whose blue layer is λ of ring j, or -1. A slot holds at most one problem
  // per (ring, blue layer), since σ(λ, i) is distinct across ranks i.
  std::vector<std::size_t> layer_base(rd.rings.size());
  std::size_t layer_count = 0;
  for (std::size_t j = 0; j < rd.rings.size(); ++j) {
    layer_base[j] = layer_count;
    layer_count += static_cast<std::size_t>(rd.rings[j].depth) + 2;
  }
  std::vector<std::int32_t> owner(layer_count, -1);
  const auto owner_slot = [&](const problem_slot& ps) -> std::int32_t& {
    return owner[layer_base[static_cast<std::size_t>(ps.ring)] +
                 static_cast<std::size_t>(ps.blue_level)];
  };

  for (round_t slot = 0; slot <= max_slot; ++slot) {
    for (const auto& ap : active) owner_slot(ap.meta) = -1;
    active.clear();
    while (next_problem < problems.size() &&
           problems[next_problem].slot == slot) {
      const auto& ps = problems[next_problem];
      assignment_problem::config cfg;
      cfg.g = &g;
      cfg.st = &st;
      cfg.ring = ps.ring;
      cfg.blue_level = ps.blue_level;
      cfg.target_rank = ps.rank;
      cfg.blue_layer_nodes =
          layer_nodes[static_cast<std::size_t>(ps.ring)]
                     [static_cast<std::size_t>(ps.blue_level)];
      cfg.red_layer_nodes =
          layer_nodes[static_cast<std::size_t>(ps.ring)]
                     [static_cast<std::size_t>(ps.blue_level - 1)];
      cfg.L = L;
      cfg.decay_phases = dp;
      cfg.epochs = epochs;
      cfg.recruit_iterations = iters;
      cfg.recruit_exp_step = exp_step;
      cfg.seed = opt.seed * 0x9e3779b9ULL + (++problem_counter) * 7919ULL;
      owner_slot(ps) = static_cast<std::int32_t>(active.size());
      active.push_back(
          {ps, std::make_unique<assignment_problem>(std::move(cfg))});
      ++next_problem;
    }

    for (round_t r = 0; r < slot_len;) {
      if (opt.fast_forward) {
        // Fast-forward: find the longest run of rounds starting at r in which
        // every consuming problem is quiet (plans nothing, draws nothing).
        // With nobody transmitting there are no receptions either, so the
        // whole run collapses to network::advance + per-problem bookkeeping.
        // In pipelined mode a problem of class c consumes only rounds
        // t ≡ c (mod 3); its quiet budget q therefore spans the next
        // d + 3q engine rounds, d = distance to its next consumed round.
        round_t k = slot_len - r;
        for (const auto& ap : active) {
          if (ap.prob->finished()) continue;
          const round_t q = ap.prob->quiet_rounds();
          if (opt.pipelined) {
            const round_t d = (ap.meta.round_class - r % 3 + 3) % 3;
            k = std::min(k, d + 3 * q);
          } else {
            k = std::min(k, q);
          }
        }
        if (k > 0) {
          for (auto& ap : active) {
            if (ap.prob->finished()) continue;
            round_t consumed = k;
            if (opt.pipelined) {
              const round_t d = (ap.meta.round_class - r % 3 + 3) % 3;
              consumed = k > d ? (k - d + 2) / 3 : 0;
            }
            if (consumed > 0) ap.prob->skip_rounds(consumed);
          }
          net.advance(k);
          r += k;
          continue;
        }
      }
      txs.clear();
      const int cls = static_cast<int>(r % 3);
      auto consumes = [&](const active_problem& ap) {
        return !ap.prob->finished() &&
               (!opt.pipelined || ap.meta.round_class == cls);
      };
      bool any = false;
      for (auto& ap : active) {
        if (consumes(ap)) {
          ap.prob->plan(txs);
          any = true;
        }
      }
      if (!any && txs.empty()) {
        // No problem consumes this round; still burn it for faithful timing.
        net.step(txs, [](const radio::reception&) {});
        ++r;
        continue;
      }
      net.step(txs, [&](const radio::reception& rx) {
        // Deliver to the unique consuming problem whose layers contain the
        // listener (blue layer λ or red layer λ-1 of the listener's ring).
        // Problems at blue layers λ and λ+1 never consume the same round.
        const auto ring = st.ring_of[rx.listener];
        if (ring < 0) return;
        const std::size_t at = layer_base[static_cast<std::size_t>(ring)] +
                               static_cast<std::size_t>(st.rel_level[rx.listener]);
        for (const std::size_t layer : {at, at + 1}) {
          const auto idx = owner[layer];
          if (idx >= 0 && consumes(active[static_cast<std::size_t>(idx)])) {
            active[static_cast<std::size_t>(idx)].prob->on_reception(rx);
            return;
          }
        }
      });
      for (auto& ap : active)
        if (consumes(ap)) ap.prob->end_round();
      ++r;
    }
  }

  // Roots that never got children are leaves.
  for (const auto& ring : rd.rings)
    for (node_id r : ring.roots)
      if (st.rank[r] == no_rank) st.rank[r] = 1;
  // Deepest-layer nodes (and any childless member) default to rank 1 if their
  // rank-1 problem never ran (e.g. depth-0 rings).
  for (node_id v = 0; v < n; ++v)
    if (st.ring_of[v] >= 0 && st.rank[v] == no_rank) st.rank[v] = 1;

  distributed_gst_outcome out;
  out.rounds = net.stats().rounds;
  out.transmissions = net.stats().transmissions;
  out.fallback_finalizations = st.fallback_finalizations;
  out.fallback_adoptions = st.fallback_adoptions;
  out.parent_rank = st.parent_rank;
  out.stretch_child = st.stretch_child;
  out.forests.resize(rd.rings.size());
  for (std::size_t j = 0; j < rd.rings.size(); ++j) {
    gst& t = out.forests[j];
    t.roots = rd.rings[j].roots;
    t.member.assign(n, 0);
    t.level.assign(n, no_level);
    t.parent.assign(n, no_node);
    t.rank.assign(n, no_rank);
    for (node_id v : rd.rings[j].members) {
      t.member[v] = 1;
      t.level[v] = rd.rel_level[v];
      t.parent[v] = st.parent[v];
      t.rank[v] = st.rank[v];
    }
  }
  return out;
}

distributed_gst_outcome build_gst_distributed_single(
    const graph::graph& g, node_id source,
    const distributed_gst_options& opt) {
  const std::size_t n_hat = opt.n_hat == 0 ? g.node_count() : opt.n_hat;
  // Layering first (no CD needed), then a single whole-graph ring.
  const auto ecc = graph::bfs(g, source).max_level;
  auto layering =
      run_decay_epoch_bfs(g, source, ecc, n_hat, opt.prm, opt.seed ^ 0xbf5ULL);
  const auto rd = decompose_rings(layering.level, ecc + 1);
  auto out = build_gst_distributed(g, rd, opt);
  out.rounds += layering.rounds;
  out.transmissions += layering.transmissions;
  return out;
}

}  // namespace rn::core
