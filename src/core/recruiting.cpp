#include "core/recruiting.h"

#include <algorithm>

#include "common/check.h"

namespace rn::core {

recruiting_instance::recruiting_instance(config c)
    : cfg_(std::move(c)),
      beacons_(beacon_exponent{cfg_.L, cfg_.exp_step}),
      decay_(decay_exponent{cfg_.L + 1}) {
  RN_REQUIRE(cfg_.g != nullptr, "graph required");
  RN_REQUIRE(cfg_.L >= 1 && cfg_.iterations >= 1 && cfg_.exp_step >= 1,
             "invalid recruiting parameters");
  const std::size_t n = cfg_.g->node_count();
  red_.resize(cfg_.reds.size());
  blue_.resize(cfg_.blues.size());
  red_idx_.assign(cfg_.reds);
  blue_idx_.assign(cfg_.blues);
  red_rng_.reserve(cfg_.reds.size());
  blue_rng_.reserve(cfg_.blues.size());
  for (node_id v : cfg_.reds) {
    RN_REQUIRE(v < n, "red is not a node of the graph");
    red_rng_.push_back(rng::for_stream(cfg_.seed * 3 + 1, v));
  }
  for (node_id u : cfg_.blues) {
    RN_REQUIRE(u < n, "blue is not a node of the graph");
    RN_REQUIRE(red_idx_.find(u) < 0, "node both red and blue");
    blue_rng_.push_back(rng::for_stream(cfg_.seed * 3 + 2, u));
  }
  // Red streams are read only by round-0 coins, so they are drawn ahead over
  // the whole instance.
  beacons_.open(cfg_.iterations);
  for (std::size_t i = 0; i < red_.size(); ++i)
    beacons_.add(static_cast<std::uint32_t>(i), red_rng_[i]);
  decay_.open(cfg_.L + 1);
}

void recruiting_instance::start_iteration() {
  sent_r1_count_ = 0;
  acks_due_ = 0;
  for (auto& r : red_) {
    r.sent_r1 = false;
    r.heard.clear();
    r.intent = false;
    r.ack_ok = false;
  }
  for (auto& b : blue_) {
    b.heard_red = no_node;
    b.ack_due = false;
  }
  decay_.open(cfg_.L + 1);
}

void recruiting_instance::plan(radio::round_buffer& out) {
  if (finished()) return;
  const int pos = pos_in_iteration();
  const int iter = iteration();

  if (pos == 0) {
    start_iteration();
    beacons_.fire(
        iter, [&](std::uint32_t i) -> rng& { return red_rng_[i]; },
        [&](std::uint32_t i) {
          red_[i].sent_r1 = true;
          ++sent_r1_count_;
          out.add_owned(cfg_.reds[i], radio::packet::make_beacon(cfg_.reds[i]));
        });
    return;
  }

  if (pos >= 1 && pos <= cfg_.L + 1) {
    // Blue Decay ladder over the live hearers: exponents 0..L across the
    // phase.
    decay_.fire(
        pos - 1, [&](std::uint32_t i) -> rng& { return blue_rng_[i]; },
        [&](std::uint32_t i) {
          out.add_owned(cfg_.blues[i], radio::packet::make_pair(
                                           cfg_.blues[i], blue_[i].heard_red));
        });
    return;
  }

  if (pos == cfg_.L + 2) {
    // Response round: exactly the round-0 transmitters transmit.
    for (std::size_t i = 0; i < red_.size(); ++i) {
      auto& r = red_[i];
      if (!r.sent_r1) continue;
      radio::packet p = radio::packet::make_empty();
      if (r.k == klass::none) {
        if (r.heard.size() == 1) {
          r.k = klass::solo;
          r.solo_child = r.heard.front();
          p = radio::packet::make_echo(r.solo_child);
        } else if (r.heard.size() >= 2) {
          r.k = klass::many;
          p = radio::packet::make_sigma(cfg_.reds[i]);
        }
      } else if (r.k == klass::solo) {
        if (!r.heard.empty()) {
          r.intent = true;  // growth needs the [DEV-2] handshake
          p = radio::packet::make_grow_intent(cfg_.reds[i]);
        }
      } else {  // many: growth is always consistent
        if (!r.heard.empty()) p = radio::packet::make_sigma(cfg_.reds[i]);
      }
      out.add_owned(cfg_.reds[i], p);
    }
    return;
  }

  if (pos == cfg_.L + 3) {
    // Ack round: lone children of grow-intent senders.
    if (acks_due_ == 0) return;
    for (std::size_t i = 0; i < blue_.size(); ++i) {
      auto& b = blue_[i];
      if (b.ack_due)
        out.add_owned(cfg_.blues[i],
                      radio::packet::make_ack(cfg_.blues[i], b.parent));
    }
    return;
  }

  // pos == L+4: commit round — round-0 transmitters again.
  for (std::size_t i = 0; i < red_.size(); ++i) {
    auto& r = red_[i];
    if (!r.sent_r1) continue;
    radio::packet p = radio::packet::make_empty();
    if (r.intent && r.ack_ok) {
      r.k = klass::many;
      r.solo_child = no_node;
      p = radio::packet::make_sigma(cfg_.reds[i]);
    }
    out.add_owned(cfg_.reds[i], p);
  }
}

void recruiting_instance::on_reception(const radio::reception& rx) {
  if (finished() || rx.what != radio::observation::message) return;
  const int pos = pos_in_iteration();
  const node_id v = rx.listener;
  const auto& p = *rx.pkt;

  // Packet kind and addressing filter first: most receptions are
  // overheard traffic that no participant acts on.
  if (pos == 0) {
    // Blues record which red they heard.
    if (p.kind != radio::packet_kind::beacon) return;
    const auto bi = blue_idx_.find(v);
    if (bi >= 0) blue_[static_cast<std::size_t>(bi)].heard_red = p.a;
    return;
  }

  if (pos >= 1 && pos <= cfg_.L + 1) {
    // Reds collect blues that address them.
    if (p.kind != radio::packet_kind::pair || p.b != v) return;
    const auto ri = red_idx_.find(v);
    if (ri >= 0) {
      auto& heard = red_[static_cast<std::size_t>(ri)].heard;
      if (std::find(heard.begin(), heard.end(), p.a) == heard.end())
        heard.push_back(p.a);
    }
    return;
  }

  if (pos == cfg_.L + 2 || pos == cfg_.L + 4) {
    // Blues react to responses/commits from the red they heard in round 0, or
    // (for already-recruited children) from their parent.
    if (p.kind != radio::packet_kind::echo &&
        p.kind != radio::packet_kind::sigma &&
        p.kind != radio::packet_kind::grow_intent)
      return;
    const auto bi = blue_idx_.find(v);
    if (bi < 0) return;
    auto& b = blue_[static_cast<std::size_t>(bi)];
    switch (p.kind) {
      case radio::packet_kind::echo:
        if (!b.recruited && p.a == v && rx.from == b.heard_red) {
          b.recruited = true;
          b.parent = rx.from;
          b.parent_class = klass::solo;
        }
        break;
      case radio::packet_kind::sigma:
        if (!b.recruited && rx.from == b.heard_red) {
          b.recruited = true;
          b.parent = rx.from;
          b.parent_class = klass::many;
        } else if (b.recruited && rx.from == b.parent) {
          b.parent_class = klass::many;  // guaranteed/opportunistic update
        }
        break;
      case radio::packet_kind::grow_intent:
        if (b.recruited && rx.from == b.parent &&
            b.parent_class == klass::solo && pos == cfg_.L + 2) {
          b.ack_due = true;
          ++acks_due_;
        }
        break;
      default:
        break;
    }
    return;
  }

  if (pos == cfg_.L + 3) {
    // Grow-intent reds listen for a clean ack from their lone child.
    if (p.kind != radio::packet_kind::ack || p.b != v) return;
    const auto ri = red_idx_.find(v);
    if (ri < 0) return;
    auto& r = red_[static_cast<std::size_t>(ri)];
    if (r.intent && p.a == r.solo_child) r.ack_ok = true;
  }
}

void recruiting_instance::end_round() {
  if (finished()) return;
  if (pos_in_iteration() == 0) {
    // Round 0 is over: the live hearers are fixed until round L+2, which is
    // when recruitment can first change.
    for (std::size_t i = 0; i < blue_.size(); ++i)
      if (!blue_[i].recruited && blue_[i].heard_red != no_node)
        decay_.add(static_cast<std::uint32_t>(i), blue_rng_[i]);
  }
  ++round_;
}

round_t recruiting_instance::quiet_rounds() const {
  if (finished()) return 0;
  const round_t len = cfg_.L + 5;
  const round_t start = static_cast<round_t>(iteration()) * len;
  const int pos = pos_in_iteration();
  // Round 0 of the next iteration with a red beacon; rounds_required() if
  // none. An iteration without one is quiet throughout: no blue hears a red,
  // so nobody answers, responds, acks or commits.
  const round_t next_beacon = beacons_.busy() * len;
  if (pos == 0) return next_beacon - round_;
  const int L = cfg_.L;
  if (pos <= L + 1 && decay_.busy() <= L)
    return start + 1 + decay_.busy() - round_;
  if (pos <= L + 2 && sent_r1_count_ > 0) return start + L + 2 - round_;
  if (pos <= L + 3 && acks_due_ > 0) return start + L + 3 - round_;
  if (pos <= L + 4 && sent_r1_count_ > 0) return start + L + 4 - round_;
  return next_beacon - round_;
}

void recruiting_instance::skip_rounds(round_t k) {
  RN_REQUIRE(k >= 0 && k <= quiet_rounds(), "skip beyond quiet window");
  if (k == 0) return;
  // Naive stepping opens every iteration with start_iteration(), beacon or
  // not; a skip that covers a round 0 must reset the per-iteration state too.
  const round_t len = cfg_.L + 5;
  const round_t next_round0 = (round_ + len - 1) / len * len;
  if (next_round0 < round_ + k) start_iteration();
  round_ += k;
}

recruiting_instance::red_result recruiting_instance::red(node_id v) const {
  const auto i = red_idx_.find(v);
  RN_REQUIRE(i >= 0, "node is not a red participant");
  return red_at(static_cast<std::size_t>(i));
}

recruiting_instance::blue_result recruiting_instance::blue(node_id u) const {
  const auto i = blue_idx_.find(u);
  RN_REQUIRE(i >= 0, "node is not a blue participant");
  return blue_at(static_cast<std::size_t>(i));
}

std::size_t recruiting_instance::unrecruited_count() const {
  std::size_t c = 0;
  for (const auto& b : blue_)
    if (!b.recruited) ++c;
  return c;
}

recruiting_run_result run_recruiting(const graph::graph& g,
                                     const std::vector<node_id>& reds,
                                     const std::vector<node_id>& blues, int L,
                                     int iterations, int exp_step,
                                     std::uint64_t seed, bool fast_forward) {
  recruiting_instance::config cfg;
  cfg.g = &g;
  cfg.reds = reds;
  cfg.blues = blues;
  cfg.L = L;
  cfg.iterations = iterations;
  cfg.exp_step = exp_step;
  cfg.seed = seed;
  recruiting_instance inst(std::move(cfg));

  radio::network net(g, {.collision_detection = false});
  radio::round_buffer txs;
  while (!inst.finished()) {
    if (fast_forward) {
      const round_t q = inst.quiet_rounds();
      if (q > 0) {
        net.advance(q);
        inst.skip_rounds(q);
        continue;
      }
    }
    txs.clear();
    inst.plan(txs);
    net.step(txs,
             [&](const radio::reception& rx) { inst.on_reception(rx); });
    inst.end_round();
  }

  recruiting_run_result res;
  res.rounds = net.stats().rounds;
  res.blues = blues.size();
  res.transmissions = net.stats().transmissions;
  res.energy = net.energy();
  for (std::size_t i = 0; i < reds.size(); ++i)
    res.red_outcomes.push_back(inst.red_at(i));
  for (std::size_t i = 0; i < blues.size(); ++i)
    res.blue_outcomes.push_back(inst.blue_at(i));
  // Count recruits and cross-check properties (b)/(c).
  std::vector<std::size_t> child_count(g.node_count(), 0);
  for (node_id u : blues) {
    const auto b = inst.blue(u);
    if (b.recruited) {
      ++res.recruited;
      child_count[b.parent] += 1;
    }
  }
  for (node_id v : reds) {
    const auto r = inst.red(v);
    const std::size_t c = child_count[v];
    const bool ok = (r.k == recruiting_instance::klass::none && c == 0) ||
                    (r.k == recruiting_instance::klass::solo && c == 1) ||
                    (r.k == recruiting_instance::klass::many && c >= 2);
    if (!ok) res.properties_ok = false;
  }
  for (node_id u : blues) {
    const auto b = inst.blue(u);
    if (!b.recruited) continue;
    const auto pk = inst.red(b.parent).k;
    if (pk != b.parent_class) res.properties_ok = false;
  }
  return res;
}

}  // namespace rn::core
