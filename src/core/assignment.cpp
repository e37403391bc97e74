#include "core/assignment.h"

#include <algorithm>

#include "common/check.h"

namespace rn::core {

assignment_problem::assignment_problem(config c)
    : cfg_(std::move(c)), coins_(decay_exponent{cfg_.L + 1}) {
  RN_REQUIRE(cfg_.g != nullptr && cfg_.st != nullptr, "graph/state required");
  auto& st = *cfg_.st;
  const std::size_t nb = cfg_.blue_layer_nodes.size();

  node_ = cfg_.blue_layer_nodes;
  node_.insert(node_.end(), cfg_.red_layer_nodes.begin(),
               cfg_.red_layer_nodes.end());
  local_.assign(node_);  // rejects a node listed in both layers
  const std::size_t m = node_.size();
  is_blue_.assign(m, 0);
  is_red_.assign(m, 0);
  red_active_.assign(m, 0);
  red_loner_parent_.assign(m, 0);
  red_brisk_.assign(m, 0);
  blue_is_loner_.assign(m, 0);
  blue_temp_this_epoch_.assign(m, 0);
  adopt_eligible_.assign(m, 0);
  coin_ = rng::for_stream(cfg_.seed, 0xc01ceeeULL);

  // Childless blues reach the lowest rank phase unranked; rank 1 is exactly
  // the leaf rule, and every (blue_level+1, *) problem has already finished.
  if (cfg_.target_rank == 1) {
    for (node_id v : cfg_.blue_layer_nodes)
      if (!st.assigned[v] && st.rank[v] == no_rank) st.rank[v] = 1;
  }
  for (std::uint32_t b = 0; b < nb; ++b) {
    const node_id v = node_[b];
    if (!st.assigned[v] && st.rank[v] == cfg_.target_rank) {
      blues_.push_back(b);
      is_blue_[b] = 1;
    }
  }
  for (std::uint32_t r = static_cast<std::uint32_t>(nb); r < m; ++r) {
    if (st.rank[node_[r]] == no_rank) {
      red_candidates_.push_back(r);
      is_red_[r] = 1;
    }
  }
  rng_.reserve(m);
  for (node_id v : node_) rng_.push_back(rng::for_stream(cfg_.seed, v));
  if (blues_.empty())  // no blue can announce, so no red becomes active
    go_idle(rounds_required(cfg_.L, cfg_.decay_phases, cfg_.epochs,
                            cfg_.recruit_iterations));
  else
    enter(sub_phase::p0_ident);
}

round_t assignment_problem::rounds_required(int L, int decay_phases,
                                            int epochs,
                                            int recruit_iterations) {
  const round_t decay = static_cast<round_t>(decay_phases) * (L + 1);
  const round_t part = recruiting_instance::rounds_required(L, recruit_iterations);
  return decay + static_cast<round_t>(epochs) * (1 + decay + 3 * part + decay);
}

void assignment_problem::enter(sub_phase s) {
  sub_ = s;
  phase_pos_ = 0;
  switch (s) {
    case sub_phase::p0_ident:
      // Every blue announces itself.
      rounds_left_ = decay_rounds();
      coins_.open(rounds_left_);
      for (auto b : blues_) coins_.add(b, rng_[b]);
      break;
    case sub_phase::s1_probe:
      rounds_left_ = 1;
      break;
    case sub_phase::s1_decay:
      // Unassigned loner blues announce themselves. Both flags are fixed
      // until part 1 ends: loners are marked in the probe round, and only
      // this problem assigns its blues, at part ends and in finish_problem.
      rounds_left_ = decay_rounds();
      coins_.open(rounds_left_);
      for (auto b : blues_)
        if (blue_is_loner_[b] && !cfg_.st->assigned[node_[b]])
          coins_.add(b, rng_[b]);
      break;
    case sub_phase::part1:
    case sub_phase::part2:
    case sub_phase::part3:
      rounds_left_ = recruiting_instance::rounds_required(
          cfg_.L, cfg_.recruit_iterations);
      break;
    case sub_phase::s3_adopt:
      // Stage-III announcers, fixed by the part results.
      rounds_left_ = decay_rounds();
      coins_.open(rounds_left_);
      for (std::size_t a = 0; a < announcers_.size(); ++a)
        coins_.add(static_cast<std::uint32_t>(a), rng_[announcers_[a].first]);
      break;
    case sub_phase::idle:
      break;
    case sub_phase::done:
      rounds_left_ = 0;
      break;
  }
}

void assignment_problem::go_idle(round_t remaining) {
  enter(sub_phase::idle);
  rounds_left_ = remaining;
  epoch_active_reds_.resize(static_cast<std::size_t>(cfg_.epochs), 0);
}

void assignment_problem::begin_epoch() {
  std::size_t active = 0;
  for (auto r : red_candidates_)
    if (red_active_[r]) ++active;
  epoch_active_reds_.push_back(active);
  for (auto r : red_candidates_) red_loner_parent_[r] = 0;
  // Temporary pairs of the previous epoch dissolve (lone-child reds stay
  // active); temporary children are always blues of this problem.
  for (auto b : blues_) {
    blue_is_loner_[b] = 0;
    blue_temp_this_epoch_[b] = 0;
  }
  temp_pairs_.clear();
  announcers_.clear();
  if (active == 0)
    go_idle(static_cast<round_t>(cfg_.epochs - epoch_) * epoch_rounds());
  else
    enter(sub_phase::s1_probe);
}

void assignment_problem::build_part(int part) {
  recruiting_instance::config rc;
  rc.g = cfg_.g;
  rc.L = cfg_.L;
  rc.iterations = cfg_.recruit_iterations;
  rc.exp_step = cfg_.recruit_exp_step;
  rc.seed = cfg_.seed * 1315423911ULL + static_cast<std::uint64_t>(epoch_) * 31 +
            static_cast<std::uint64_t>(part);
  auto& st = *cfg_.st;
  part_reds_.clear();
  part_blues_.clear();
  for (auto r : red_candidates_) {
    if (!red_active_[r]) continue;
    const bool in_part = (part == 1 && red_loner_parent_[r]) ||
                         (part == 2 && !red_loner_parent_[r] && red_brisk_[r]) ||
                         (part == 3 && !red_loner_parent_[r] && !red_brisk_[r]);
    if (in_part) {
      part_reds_.push_back(r);
      rc.reds.push_back(node_[r]);
    }
  }
  for (auto b : blues_) {
    if (!st.assigned[node_[b]] && !blue_temp_this_epoch_[b]) {
      part_blues_.push_back(b);
      rc.blues.push_back(node_[b]);
    }
  }
  recruit_ = std::make_unique<recruiting_instance>(std::move(rc));
}

void assignment_problem::apply_part_results(int part) {
  auto& st = *cfg_.st;
  const rank_t i = cfg_.target_rank;
  for (std::size_t k = 0; k < part_blues_.size(); ++k) {
    const auto b = recruit_->blue_at(k);
    if (!b.recruited) continue;
    const node_id u = node_[part_blues_[k]];
    const bool many = b.parent_class == recruiting_instance::klass::many;
    if (part == 1 || many) {
      // Permanent: part-1 recruits unconditionally, otherwise many-children.
      st.assigned[u] = 1;
      st.parent[u] = b.parent;
      st.parent_rank[u] = many ? i + 1 : i;
    } else {
      blue_temp_this_epoch_[part_blues_[k]] = 1;
      temp_pairs_.push_back({b.parent, u});
    }
  }
  // Reds of this part: loner-parents (part 1) always mark; parts 2/3 mark on
  // class none/many. Lone-child reds of parts 2/3 stay active.
  for (std::size_t k = 0; k < part_reds_.size(); ++k) {
    const auto r = recruit_->red_at(k);
    const auto lr = part_reds_[k];
    const node_id v = node_[lr];
    const bool solo = r.k == recruiting_instance::klass::solo;
    const bool many = r.k == recruiting_instance::klass::many;
    if (part == 1) {
      red_active_[lr] = 0;  // loner-parents retire after this epoch
      if (solo) {
        st.rank[v] = i;
        st.stretch_child[v] = r.solo_child;
        announcers_.push_back({lr, i});
      } else if (many) {
        st.rank[v] = i + 1;
        announcers_.push_back({lr, static_cast<rank_t>(i + 1)});
      }
      // klass none: marked but unranked; it may still become a parent in a
      // lower rank phase.
    } else {
      if (many) {
        red_active_[lr] = 0;
        st.rank[v] = i + 1;
        announcers_.push_back({lr, static_cast<rank_t>(i + 1)});
      } else if (!solo) {  // klass none: marked, retire unranked
        red_active_[lr] = 0;
      }
    }
  }
}

void assignment_problem::stage3_computations() {
  // Adoption eligibility: unassigned same-layer nodes whose (final) rank is
  // strictly below i — at this point in the pipeline any still-unranked node
  // of this layer can only end with rank < i.
  auto& st = *cfg_.st;
  for (std::uint32_t b = 0; b < cfg_.blue_layer_nodes.size(); ++b) {
    const node_id v = node_[b];
    adopt_eligible_[b] = !st.assigned[v] && !is_blue_[b] &&
                         (st.rank[v] == no_rank || st.rank[v] < cfg_.target_rank);
  }
}

void assignment_problem::finish_problem() {
  auto& st = *cfg_.st;
  const rank_t i = cfg_.target_rank;
  // [DEV-9] w.h.p. nothing below fires; counters make violations visible.
  for (const auto& tp : temp_pairs_) {
    if (st.assigned[tp.blue]) continue;
    st.assigned[tp.blue] = 1;
    st.parent[tp.blue] = tp.red;
    st.parent_rank[tp.blue] = i;
    st.rank[tp.red] = i;
    st.stretch_child[tp.red] = tp.blue;
    st.fallback_finalizations += 1;
  }
  for (auto b : blues_) {
    const node_id u = node_[b];
    if (st.assigned[u]) continue;
    // Adopt any red-layer neighbor: prefer already-ranked higher ones, then
    // unranked ones (which become rank-i parents), and as a last resort a
    // rank-i parent that must then be promoted to i+1 (its lone child count
    // just grew past one; we repair the former solo child's knowledge too).
    node_id ranked_choice = no_node;
    node_id unranked_choice = no_node;
    node_id same_rank_choice = no_node;
    for (node_id w : cfg_.g->neighbors(u)) {
      if (st.ring_of[w] != cfg_.ring || st.rel_level[w] != cfg_.blue_level - 1)
        continue;
      if (st.rank[w] > i)
        ranked_choice = ranked_choice == no_node ? w : ranked_choice;
      else if (st.rank[w] == no_rank)
        unranked_choice = unranked_choice == no_node ? w : unranked_choice;
      else if (st.rank[w] == i)
        same_rank_choice = same_rank_choice == no_node ? w : same_rank_choice;
    }
    st.fallback_adoptions += 1;
    auto is_m_parent = [&](node_id w) {
      return st.rank[w] == i && st.stretch_child[w] != no_node;
    };
    if (ranked_choice != no_node) {
      st.assigned[u] = 1;
      st.parent[u] = ranked_choice;
      st.parent_rank[u] = st.rank[ranked_choice];
    } else if (same_rank_choice != no_node) {
      // Promote a rank-i neighbor to i+1 and attach; promotion removes its
      // same-rank matching edge, so this is always collision-free. Repair the
      // former solo child's recorded parent rank.
      const node_id v = same_rank_choice;
      st.assigned[u] = 1;
      st.parent[u] = v;
      st.rank[v] = i + 1;
      st.parent_rank[u] = i + 1;
      st.stretch_child[v] = no_node;
      for (node_id w : cfg_.g->neighbors(v))
        if (st.parent[w] == v && st.rank[w] == i) st.parent_rank[w] = i + 1;
    } else if (unranked_choice != no_node) {
      // Attaching u to an unranked red makes that red a rank-i matching
      // parent; pick one whose neighborhood holds no foreign rank-i matching
      // child (u itself has no rank-i neighbors here, or case 2 would have
      // applied). If every candidate conflicts, steal the conflicting child:
      // the new parent then has two rank-i children (rank i+1, no matching
      // edge) and the robbed parent reverts to the rule over its remaining
      // children.
      node_id clean = no_node;
      for (node_id w : cfg_.g->neighbors(u)) {
        if (st.ring_of[w] != cfg_.ring ||
            st.rel_level[w] != cfg_.blue_level - 1 || st.rank[w] != no_rank)
          continue;
        bool conflict = false;
        for (node_id x : cfg_.g->neighbors(w)) {
          if (x != u && st.rank[x] == i && st.parent[x] != no_node &&
              st.parent[x] != w && is_m_parent(st.parent[x])) {
            conflict = true;
            break;
          }
        }
        if (!conflict) {
          clean = w;
          break;
        }
      }
      if (clean != no_node) {
        st.assigned[u] = 1;
        st.parent[u] = clean;
        st.rank[clean] = i;
        st.stretch_child[clean] = u;
        st.parent_rank[u] = i;
      } else {
        const node_id v = unranked_choice;
        node_id stolen = no_node;
        for (node_id x : cfg_.g->neighbors(v)) {
          if (x != u && st.rank[x] == i && st.parent[x] != no_node &&
              st.parent[x] != v && is_m_parent(st.parent[x])) {
            stolen = x;
            break;
          }
        }
        RN_REQUIRE(stolen != no_node, "conflicted fallback without a conflict");
        const node_id robbed = st.parent[stolen];
        st.assigned[u] = 1;
        st.parent[u] = v;
        st.parent[stolen] = v;
        st.rank[v] = i + 1;
        st.parent_rank[u] = i + 1;
        st.parent_rank[stolen] = i + 1;
        // Robbed parent: rank from the rule over its remaining children.
        st.stretch_child[robbed] = no_node;
        rank_t best = 0;
        int count = 0;
        for (node_id x : cfg_.g->neighbors(robbed)) {
          if (st.parent[x] != robbed) continue;
          if (st.rank[x] > best) {
            best = st.rank[x];
            count = 1;
          } else if (st.rank[x] == best) {
            ++count;
          }
        }
        st.rank[robbed] = best == 0 ? no_rank : (count >= 2 ? best + 1 : best);
        if (best > 0 && count == 1) {
          for (node_id x : cfg_.g->neighbors(robbed))
            if (st.parent[x] == robbed && st.rank[x] == best)
              st.stretch_child[robbed] = x;
        }
      }
    }
    // No red-layer neighbor at all cannot happen on a BFS layering; the
    // validator reports it if a generator/mask bug ever produces it.
  }
  enter(sub_phase::done);
}

void assignment_problem::plan(radio::round_buffer& out) {
  if (finished()) return;
  const auto stream = [&](std::uint32_t who) -> rng& { return rng_[who]; };
  switch (sub_) {
    case sub_phase::p0_ident:
      // Blues announce themselves so reds learn whether they participate.
    case sub_phase::s1_decay:
      // Loners announce themselves so their red becomes a loner-parent.
      coins_.fire(phase_pos_, stream, [&](std::uint32_t b) {
        out.add_owned(node_[b], radio::packet::make_beacon(node_[b]));
      });
      break;
    case sub_phase::s1_probe:
      for (auto r : red_candidates_)
        if (red_active_[r])
          out.add_owned(node_[r], radio::packet::make_beacon(node_[r]));
      break;
    case sub_phase::part1:
    case sub_phase::part2:
    case sub_phase::part3:
      recruit_->plan(out);
      break;
    case sub_phase::s3_adopt:
      coins_.fire(
          phase_pos_,
          [&](std::uint32_t a) -> rng& { return rng_[announcers_[a].first]; },
          [&](std::uint32_t a) {
            const auto [r, rk] = announcers_[a];
            out.add_owned(node_[r], radio::packet::make_rank(node_[r], rk));
          });
      break;
    case sub_phase::idle:
    case sub_phase::done:
      break;
  }
}

void assignment_problem::on_reception(const radio::reception& rx) {
  if (sub_ == sub_phase::idle || finished()) return;
  if (sub_ == sub_phase::part1 || sub_ == sub_phase::part2 ||
      sub_ == sub_phase::part3) {
    recruit_->on_reception(rx);
    return;
  }
  if (rx.what != radio::observation::message) return;
  const auto l = local_.find(rx.listener);
  if (l < 0) return;
  const auto me = static_cast<std::size_t>(l);
  auto& st = *cfg_.st;
  const auto kind = rx.pkt->kind;
  switch (sub_) {
    case sub_phase::p0_ident:
      if (kind == radio::packet_kind::beacon && is_red_[me]) red_active_[me] = 1;
      break;
    case sub_phase::s1_probe:
      // A blue that *receives a message* has exactly one active red neighbor.
      if (kind == radio::packet_kind::beacon && is_blue_[me] &&
          !st.assigned[rx.listener])
        blue_is_loner_[me] = 1;
      break;
    case sub_phase::s1_decay:
      if (kind == radio::packet_kind::beacon && is_red_[me] && red_active_[me])
        red_loner_parent_[me] = 1;
      break;
    case sub_phase::s3_adopt:
      if (kind == radio::packet_kind::rank_announce && adopt_eligible_[me] &&
          !st.assigned[rx.listener]) {
        const node_id u = rx.listener;
        st.assigned[u] = 1;
        st.parent[u] = rx.pkt->a;
        st.parent_rank[u] = static_cast<rank_t>(rx.pkt->x);
      }
      break;
    default:
      break;
  }
}

void assignment_problem::end_round() {
  if (finished()) return;
  if (sub_ == sub_phase::part1 || sub_ == sub_phase::part2 ||
      sub_ == sub_phase::part3)
    recruit_->end_round();
  ++phase_pos_;
  --rounds_left_;
  if (rounds_left_ > 0) return;
  advance_subphase();
}

round_t assignment_problem::quiet_rounds() const {
  switch (sub_) {
    case sub_phase::p0_ident:
    case sub_phase::s1_decay:
    case sub_phase::s3_adopt:
      return coins_.busy() - phase_pos_;
    case sub_phase::s1_probe:
      return 0;  // an epoch without active reds runs idle instead
    case sub_phase::idle:
      return rounds_left_;
    case sub_phase::part1:
    case sub_phase::part2:
    case sub_phase::part3:
      return std::min(rounds_left_, recruit_->quiet_rounds());
    case sub_phase::done:
      return 0;
  }
  return 0;
}

void assignment_problem::skip_rounds(round_t k) {
  RN_REQUIRE(k >= 0 && k <= rounds_left_, "skip beyond sub-phase");
  if (k == 0 || finished()) return;
  if (sub_ == sub_phase::part1 || sub_ == sub_phase::part2 ||
      sub_ == sub_phase::part3)
    recruit_->skip_rounds(k);
  phase_pos_ += k;
  rounds_left_ -= k;
  if (rounds_left_ == 0) advance_subphase();
}

void assignment_problem::advance_subphase() {
  switch (sub_) {
    case sub_phase::p0_ident:
      begin_epoch();
      break;
    case sub_phase::s1_probe:
      enter(sub_phase::s1_decay);
      break;
    case sub_phase::s1_decay: {
      // Brisk/lazy split of the active non-loner-parent reds.
      for (auto r : red_candidates_)
        if (red_active_[r] && !red_loner_parent_[r])
          red_brisk_[r] = coin_.bernoulli(0.5) ? 1 : 0;
      build_part(1);
      enter(sub_phase::part1);
      break;
    }
    case sub_phase::part1:
      apply_part_results(1);
      build_part(2);
      enter(sub_phase::part2);
      break;
    case sub_phase::part2:
      apply_part_results(2);
      build_part(3);
      enter(sub_phase::part3);
      break;
    case sub_phase::part3:
      apply_part_results(3);
      stage3_computations();
      enter(sub_phase::s3_adopt);
      break;
    case sub_phase::s3_adopt:
      ++epoch_;
      if (epoch_ < cfg_.epochs)
        begin_epoch();
      else
        finish_problem();
      break;
    case sub_phase::idle:
      finish_problem();
      break;
    case sub_phase::done:
      break;
  }
}

assignment_run_result run_assignment(const graph::graph& g,
                                     const std::vector<node_id>& reds,
                                     const std::vector<node_id>& blues,
                                     rank_t target_rank, int L,
                                     int decay_phases, int epochs,
                                     int recruit_iterations,
                                     int recruit_exp_step,
                                     std::uint64_t seed, bool fast_forward) {
  assignment_run_result res;
  res.st = build_state(g.node_count());
  auto& st = res.st;
  for (node_id v : reds) {
    st.ring_of[v] = 0;
    st.rel_level[v] = 0;
  }
  for (node_id u : blues) {
    st.ring_of[u] = 0;
    st.rel_level[u] = 1;
    st.rank[u] = target_rank;
  }

  assignment_problem::config cfg;
  cfg.g = &g;
  cfg.st = &st;
  cfg.ring = 0;
  cfg.blue_level = 1;
  cfg.target_rank = target_rank;
  cfg.blue_layer_nodes = blues;
  cfg.red_layer_nodes = reds;
  cfg.L = L;
  cfg.decay_phases = decay_phases;
  cfg.epochs = epochs;
  cfg.recruit_iterations = recruit_iterations;
  cfg.recruit_exp_step = recruit_exp_step;
  cfg.seed = seed;
  assignment_problem prob(std::move(cfg));

  radio::network net(g, {.collision_detection = false});
  radio::round_buffer txs;
  while (!prob.finished()) {
    if (fast_forward) {
      const round_t q = prob.quiet_rounds();
      if (q > 0) {
        net.advance(q);
        prob.skip_rounds(q);
        continue;
      }
    }
    txs.clear();
    prob.plan(txs);
    net.step(txs, [&](const radio::reception& rx) { prob.on_reception(rx); });
    prob.end_round();
  }
  res.rounds = net.stats().rounds;
  res.transmissions = net.stats().transmissions;
  res.energy = net.energy();
  for (node_id u : blues)
    if (!st.assigned[u]) res.all_assigned = false;
  res.fallback_finalizations = st.fallback_finalizations;
  res.fallback_adoptions = st.fallback_adoptions;
  res.epoch_active_reds = prob.epoch_active_reds();
  return res;
}

}  // namespace rn::core
