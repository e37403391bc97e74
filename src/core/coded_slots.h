// Per-node coded-packet slots for the RLNC relays (Theorems 1.2 and 1.3).
//
// Every node owns one persistent *fresh* slot, re-encoded in place each time
// the node sends a new random combination, and one persistent *relay* slot
// holding the last packet it took from its stretch predecessor (paper 3.3.2
// case (b)). Transmissions reference the slots through round_buffer::add, so
// once every slot has been used once a round allocates nothing.
//
// A sender rewrites its fresh slot the next time it encodes, so a receiver
// must never keep a reference to the sender's body: `hold` copies the
// coefficients and payload into the receiver's own relay slot at reception.
// Reusing the slot's storage makes that copy allocation-free too. Writing a
// slot during reception dispatch is safe because a node that transmits in a
// round does not listen in it, and the network rejects a node transmitting
// twice in one round.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coding/rlnc.h"
#include "common/rng.h"
#include "common/types.h"
#include "radio/packet.h"

namespace rn::core {

class coded_slots {
 public:
  explicit coded_slots(std::size_t n) : fresh_(n), relay_(n) {}

  /// Re-encodes a fresh random combination of `from` into v's fresh slot and
  /// returns it; the reference stays valid, with this content, until v
  /// encodes again.
  const radio::packet& encode(node_id v, std::uint32_t batch,
                              const coding::rlnc_node& from, rng& r) {
    slot& s = fresh_[v];
    auto& body = body_of(s);
    from.encode_into(r, body.coeffs, body.data);
    s.pkt.x = batch;
    return s.pkt;
  }

  /// Copies the coded packet `p` into v's relay slot (replacing what it
  /// held).
  void hold(node_id v, const radio::packet& p) {
    slot& s = relay_[v];
    auto& body = body_of(s);
    body.coeffs = p.body->coeffs;
    body.data = p.body->data;
    s.pkt.x = p.x;
    s.held = true;
  }

  /// v's held relay packet, or nullptr when it holds none.
  [[nodiscard]] const radio::packet* relay(node_id v) const {
    return relay_[v].held ? &relay_[v].pkt : nullptr;
  }

  /// Forgets every held relay packet (storage is kept for reuse).
  void drop_relays() {
    for (auto& s : relay_) s.held = false;
  }

 private:
  struct slot {
    std::shared_ptr<radio::packet_body> body;  ///< allocated at first use
    radio::packet pkt;  ///< coded packet whose body aliases `body`
    bool held = false;  ///< relay slots only: holds a packet
  };

  static radio::packet_body& body_of(slot& s) {
    if (!s.body) {
      s.body = std::make_shared<radio::packet_body>();
      s.pkt = radio::packet::make_coded(0, s.body);
    }
    return *s.body;
  }

  std::vector<slot> fresh_;
  std::vector<slot> relay_;
};

}  // namespace rn::core
