#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "coding/gf2.h"
#include "coding/rlnc.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/coded_slots.h"

// Counting replacement of the global allocator: the allocation tests below
// switch counting on around a loop and assert nothing was allocated in it.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_allocs{0};
}  // namespace

// (noinline keeps GCC from pairing an inlined free() with `new` expressions
// and warning about a mismatch.)
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rn::coding {
namespace {

/// Heap allocations made while running `f`.
template <class F>
long allocations_during(F&& f) {
  g_allocs.store(0);
  g_count_allocs.store(true);
  f();
  g_count_allocs.store(false);
  return g_allocs.load();
}

TEST(Gf2Vector, SetGet) {
  gf2_vector v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
}

TEST(Gf2Vector, AddIsXor) {
  auto a = gf2_vector::unit(10, 3);
  auto b = gf2_vector::unit(10, 3);
  a.add(b);
  EXPECT_TRUE(a.is_zero());
}

TEST(Gf2Vector, DotProduct) {
  gf2_vector a(8), b(8);
  a.set(1, true);
  a.set(3, true);
  b.set(3, true);
  EXPECT_TRUE(a.dot(b));
  b.set(1, true);
  EXPECT_FALSE(a.dot(b));  // two overlaps -> even parity
}

TEST(Gf2Vector, DotBilinear) {
  rn::rng r(5);
  for (int trial = 0; trial < 50; ++trial) {
    auto a = gf2_vector::random(67, r);
    auto b = gf2_vector::random(67, r);
    auto c = gf2_vector::random(67, r);
    auto bc = b;
    bc.add(c);
    EXPECT_EQ(a.dot(bc), a.dot(b) != a.dot(c));
  }
}

TEST(Gf2Vector, LeadingBit) {
  gf2_vector v(100);
  EXPECT_EQ(v.leading_bit(), 100u);
  v.set(77, true);
  EXPECT_EQ(v.leading_bit(), 77u);
  v.set(5, true);
  EXPECT_EQ(v.leading_bit(), 5u);
}

TEST(Gf2Vector, RandomRespectsLength) {
  rn::rng r(6);
  for (int t = 0; t < 20; ++t) {
    auto v = gf2_vector::random(70, r);
    auto u = gf2_vector::unit(70, 69);
    v.add(u);  // must not throw and must stay consistent
    EXPECT_EQ(v.size(), 70u);
  }
}

TEST(Decoder, DecodesAtFullRank) {
  const std::size_t k = 5, sz = 8;
  const auto msgs = make_test_messages(k, sz, 42);
  gf2_decoder dec(k, sz);
  rn::rng r(1);
  // Feed random combinations until complete.
  gf2_decoder source(k, sz);
  for (std::size_t i = 0; i < k; ++i)
    source.insert(gf2_vector::unit(k, i), msgs[i]);
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  int packets = 0;
  while (!dec.complete() && packets < 200) {
    source.random_combination_into(r, coeffs, payload);
    dec.insert(coeffs, payload);
    ++packets;
  }
  ASSERT_TRUE(dec.complete());
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(dec.decode(i), msgs[i]);
  // Coupon-collector-free: random GF(2) combos need only k + O(1) packets.
  EXPECT_LT(packets, 40);
}

TEST(Decoder, RejectsDependentRows) {
  gf2_decoder dec(3, 1);
  EXPECT_TRUE(dec.insert(gf2_vector::unit(3, 0), {1}));
  EXPECT_FALSE(dec.insert(gf2_vector::unit(3, 0), {1}));
  auto v = gf2_vector::unit(3, 0);
  v.add(gf2_vector::unit(3, 1));
  EXPECT_TRUE(dec.insert(v, {7}));
  EXPECT_EQ(dec.rank(), 2u);
}

TEST(Decoder, InSpan) {
  gf2_decoder dec(4, 1);
  dec.insert(gf2_vector::unit(4, 0), {0});
  dec.insert(gf2_vector::unit(4, 1), {0});
  auto v = gf2_vector::unit(4, 0);
  v.add(gf2_vector::unit(4, 1));
  EXPECT_TRUE(dec.in_span(v));
  EXPECT_FALSE(dec.in_span(gf2_vector::unit(4, 2)));
}

TEST(Decoder, InfectionDefinition) {
  // Definition 3.8: infected by mu iff some received coeff is non-orthogonal.
  gf2_decoder dec(3, 1);
  auto mu = gf2_vector::unit(3, 2);
  EXPECT_FALSE(dec.infected_by(mu));
  dec.insert(gf2_vector::unit(3, 0), {0});
  EXPECT_FALSE(dec.infected_by(mu));
  auto v = gf2_vector::unit(3, 1);
  v.add(gf2_vector::unit(3, 2));
  dec.insert(v, {0});
  EXPECT_TRUE(dec.infected_by(mu));
}

TEST(Decoder, PayloadFollowsCoefficients) {
  // payload(a ^ b) must equal payload(a) ^ payload(b).
  const auto msgs = make_test_messages(2, 4, 9);
  gf2_decoder src(2, 4);
  src.insert(gf2_vector::unit(2, 0), msgs[0]);
  src.insert(gf2_vector::unit(2, 1), msgs[1]);
  rn::rng r(3);
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  for (int t = 0; t < 30; ++t) {
    src.random_combination_into(r, coeffs, payload);
    std::vector<std::uint8_t> expect(4, 0);
    if (coeffs.get(0)) xor_bytes(expect, msgs[0]);
    if (coeffs.get(1)) xor_bytes(expect, msgs[1]);
    EXPECT_EQ(payload, expect);
  }
}

TEST(Decoder, SizeMismatchThrows) {
  gf2_decoder dec(3, 2);
  EXPECT_THROW(dec.insert(gf2_vector(4), {0, 0}), rn::contract_error);
  EXPECT_THROW(dec.insert(gf2_vector(3), {0}), rn::contract_error);
  EXPECT_THROW(dec.decode(0), rn::contract_error);  // not complete
}

TEST(Decoder, FullRankStillChecksSizes) {
  gf2_decoder dec(3, 2);
  for (std::size_t i = 0; i < 3; ++i)
    ASSERT_TRUE(dec.insert(gf2_vector::unit(3, i),
                           {static_cast<std::uint8_t>(i), 1}));
  ASSERT_TRUE(dec.complete());
  EXPECT_THROW(dec.insert(gf2_vector(4), {0, 0}), rn::contract_error);
  EXPECT_THROW(dec.insert(gf2_vector(3), {0}), rn::contract_error);
  EXPECT_THROW(dec.insert(gf2_vector(2), {0, 0, 0}), rn::contract_error);
  EXPECT_FALSE(dec.insert(gf2_vector::unit(3, 1), {0, 0}));
}

TEST(Decoder, EncodeFromEmptySubspaceThrows) {
  gf2_decoder dec(4, 2);
  rn::rng r(1);
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(dec.random_combination_into(r, coeffs, payload),
               rn::contract_error);
}

// ---------------------------------------------------------------------------
// Independent reference decoder: Gaussian elimination over vector<bool> rows,
// written from the definitions and sharing no code with src/coding. It keeps
// the basis the way the RLNC relay specifies it — fully reduced, pivot =
// lowest set bit of the reduced new row, rows in pivot order — so its
// re-encoding (one fair coin per row in pivot order, redrawn while none is
// picked) must match the engine row for row and draw for draw.
class naive_decoder {
 public:
  using bits = std::vector<bool>;
  using bytes = std::vector<std::uint8_t>;

  naive_decoder(std::size_t dim, std::size_t size) : dim_(dim), size_(size) {}

  [[nodiscard]] std::size_t rank() const { return rows_.size(); }

  bool insert(bits c, bytes p) {
    if (rows_.size() == dim_) return false;
    reduce(c, p);
    std::size_t pivot = 0;
    while (pivot < dim_ && !c[pivot]) ++pivot;
    if (pivot == dim_) return false;
    for (auto& row : rows_) {
      if (row.c[pivot]) {
        add(row.c, c);
        add(row.p, p);
      }
    }
    std::size_t at = 0;
    while (at < rows_.size() && rows_[at].pivot < pivot) ++at;
    rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(at),
                 row_t{std::move(c), std::move(p), pivot});
    return true;
  }

  [[nodiscard]] bool in_span(bits c) const {
    bytes p(size_, 0);
    reduce(c, p);
    for (bool b : c)
      if (b) return false;
    return true;
  }

  [[nodiscard]] bool infected_by(const bits& mu) const {
    for (const auto& row : rows_) {
      bool parity = false;
      for (std::size_t i = 0; i < dim_; ++i) parity ^= row.c[i] && mu[i];
      if (parity) return true;
    }
    return false;
  }

  [[nodiscard]] bytes decode(std::size_t i) const {
    for (const auto& row : rows_)
      if (row.pivot == i) return row.p;
    return {};
  }

  std::pair<bits, bytes> encode(rn::rng& r) const {
    bits c(dim_, false);
    bytes p(size_, 0);
    bool any = false;
    while (!any) {
      for (const auto& row : rows_) {
        if (r.bernoulli(0.5)) {
          add(c, row.c);
          add(p, row.p);
          any = true;
        }
      }
    }
    return {c, p};
  }

  template <class V>
  static void add(V& a, const V& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = a[i] ^ b[i];
  }

 private:
  struct row_t {
    bits c;
    bytes p;
    std::size_t pivot;
  };
  void reduce(bits& c, bytes& p) const {
    for (const auto& row : rows_) {
      if (c[row.pivot]) {
        add(c, row.c);
        add(p, row.p);
      }
    }
  }
  std::size_t dim_, size_;
  std::vector<row_t> rows_;
};

gf2_vector to_gf2(const std::vector<bool>& b) {
  gf2_vector v(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) v.set(i, b[i]);
  return v;
}

std::vector<bool> to_bits(const gf2_vector& v) {
  std::vector<bool> b(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) b[i] = v.get(i);
  return b;
}

class DecoderCrossCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

// Random streams mixing dense rows, sparse rows, sums of earlier rows
// (mostly dependent) and zero rows, each carrying the payload its
// coefficients imply. After every insert the engine and the reference must
// agree on innovation, rank, span membership, infection and re-encoding.
TEST_P(DecoderCrossCheck, MatchesNaiveEliminator) {
  const auto [dim, size] = GetParam();
  const auto msgs = make_test_messages(dim, size, 1000 + dim * 64 + size);
  rn::rng gen(dim * 131 + size);
  auto random_bits = [&](std::size_t ones_in_8) {
    std::vector<bool> b(dim);
    for (std::size_t i = 0; i < dim; ++i) b[i] = gen.uniform(8) < ones_in_8;
    return b;
  };
  auto payload_of = [&](const std::vector<bool>& c) {
    std::vector<std::uint8_t> p(size, 0);
    for (std::size_t i = 0; i < dim; ++i)
      if (c[i]) naive_decoder::add(p, msgs[i]);
    return p;
  };

  gf2_decoder dec(dim, size);
  naive_decoder ref(dim, size);
  std::vector<std::vector<bool>> sent;
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  std::size_t extra_at_full_rank = 0;
  for (std::size_t step = 0; step < 6 * dim + 60 && extra_at_full_rank < 12;
       ++step) {
    std::vector<bool> c;
    switch (gen.uniform(8)) {
      case 0:
        c.assign(dim, false);
        break;
      case 1:
      case 2:
        c.assign(dim, false);
        c[gen.uniform(dim)] = true;
        c[gen.uniform(dim)] = true;
        break;
      case 3:
      case 4:
        if (sent.size() >= 2) {
          c = sent[gen.uniform(sent.size())];
          naive_decoder::add(c, sent[gen.uniform(sent.size())]);
          break;
        }
        [[fallthrough]];
      default:
        c = random_bits(4);
    }
    sent.push_back(c);
    const auto p = payload_of(c);
    const bool innovative = ref.insert(c, p);
    ASSERT_EQ(dec.insert(to_gf2(c), p), innovative) << "step " << step;
    ASSERT_EQ(dec.rank(), ref.rank()) << "step " << step;
    ASSERT_EQ(dec.complete(), ref.rank() == dim);
    if (dec.complete()) ++extra_at_full_rank;

    // A probe from the span of what was sent, and an arbitrary one.
    std::vector<bool> in(dim, false);
    for (const auto& row : sent)
      if (gen.bernoulli(0.5)) naive_decoder::add(in, row);
    for (const auto& probe : {in, random_bits(1), random_bits(4)}) {
      EXPECT_EQ(dec.in_span(to_gf2(probe)), ref.in_span(probe));
      EXPECT_EQ(dec.infected_by(to_gf2(probe)), ref.infected_by(probe));
    }
    EXPECT_TRUE(dec.in_span(to_gf2(in)));

    if (dec.rank() > 0) {
      rn::rng ra(step * 7 + dim), rb(step * 7 + dim);
      dec.random_combination_into(ra, coeffs, payload);
      const auto [rc, rp] = ref.encode(rb);
      ASSERT_EQ(to_bits(coeffs), rc) << "step " << step;
      ASSERT_EQ(payload, rp) << "step " << step;
      for (int i = 0; i < 4; ++i) ASSERT_EQ(ra(), rb()) << "rng state drifted";
      EXPECT_EQ(payload, payload_of(rc));
    }
  }
  ASSERT_TRUE(dec.complete());
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_EQ(dec.decode(i), msgs[i]) << "message " << i;
    EXPECT_EQ(ref.decode(i), msgs[i]) << "message " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WordAndByteBoundaries, DecoderCrossCheck,
    ::testing::Combine(::testing::Values(1, 8, 63, 64, 65, 128),
                       ::testing::Values(1, 7, 8, 9, 33)));

// After warm-up (first insert sizes the slabs; first encode sizes the output
// buffers), re-encoding and inserting allocate nothing — neither while the
// sink is still below full rank nor once it is full.
TEST(DecoderAllocation, SteadyStateAllocatesNothing) {
  const std::size_t dim = 65, size = 33;
  const auto msgs = make_test_messages(dim, size, 5);
  gf2_decoder full(dim, size), partial(dim, size);
  for (std::size_t i = 0; i < dim; ++i) {
    full.insert(gf2_vector::unit(dim, i), msgs[i]);
    if (i + 1 < dim) partial.insert(gf2_vector::unit(dim, i), msgs[i]);
  }
  rn::rng r(9);
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;

  // Below full rank: `partial` spans dim - 1 dimensions, so the sink climbs
  // to rank dim - 1 and stays there, reducing every packet.
  gf2_decoder below(dim, size);
  partial.random_combination_into(r, coeffs, payload);
  below.insert(coeffs, payload);
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 10000; ++i) {
                partial.random_combination_into(r, coeffs, payload);
                below.insert(coeffs, payload);
              }
            }),
            0);
  EXPECT_EQ(below.rank(), dim - 1);

  gf2_decoder at_full(dim, size);
  while (!at_full.complete()) {
    full.random_combination_into(r, coeffs, payload);
    at_full.insert(coeffs, payload);
  }
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 10000; ++i) {
                full.random_combination_into(r, coeffs, payload);
                EXPECT_FALSE(at_full.insert(coeffs, payload));
              }
            }),
            0);
}

// The runners' per-node packet slots: after each slot's first use, encoding
// into a fresh slot and copying into a relay slot allocate nothing.
TEST(DecoderAllocation, CodedSlotsReuseStorage) {
  const std::size_t k = 8, size = 32;
  const auto msgs = make_test_messages(k, size, 6);
  rlnc_node src(k, size);
  for (std::size_t i = 0; i < k; ++i) src.load_source_message(i, msgs[i]);
  core::coded_slots slots(2);
  rn::rng r(4);
  slots.hold(1, slots.encode(0, 3, src, r));
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 10000; ++i)
                slots.hold(1, slots.encode(0, 3, src, r));
            }),
            0);
  const radio::packet* held = slots.relay(1);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->x, 3u);
  slots.drop_relays();
  EXPECT_EQ(slots.relay(1), nullptr);
}

// The relay copies at reception: re-encoding the sender's fresh slot must
// not change what the receiver holds.
TEST(CodedSlots, HeldPacketDoesNotAliasSender) {
  const std::size_t k = 8, size = 16;
  const auto msgs = make_test_messages(k, size, 7);
  rlnc_node src(k, size);
  for (std::size_t i = 0; i < k; ++i) src.load_source_message(i, msgs[i]);
  core::coded_slots slots(2);
  rn::rng r(2);
  const radio::packet& sent = slots.encode(0, 0, src, r);
  slots.hold(1, sent);
  const auto coeffs = sent.body->coeffs;
  const auto data = sent.body->data;
  for (int i = 0; i < 20 && sent.body->coeffs == coeffs; ++i)
    slots.encode(0, 0, src, r);
  ASSERT_NE(sent.body->coeffs, coeffs);
  EXPECT_EQ(slots.relay(1)->body->coeffs, coeffs);
  EXPECT_EQ(slots.relay(1)->body->data, data);
}

class RlncDimsTest : public ::testing::TestWithParam<int> {};

TEST_P(RlncDimsTest, EndToEndRelayChain) {
  // source -> relay -> sink, all over re-encoded packets only.
  const std::size_t k = static_cast<std::size_t>(GetParam());
  const std::size_t sz = 16;
  const auto msgs = make_test_messages(k, sz, 100 + k);
  rlnc_node source(k, sz), relay(k, sz), sink(k, sz);
  for (std::size_t i = 0; i < k; ++i) source.load_source_message(i, msgs[i]);
  rn::rng r(17);
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  int steps = 0;
  while (!sink.can_decode() && steps < 500) {
    source.encode_into(r, coeffs, payload);
    relay.receive(coeffs, payload);
    if (relay.has_anything()) {
      relay.encode_into(r, coeffs, payload);
      sink.receive(coeffs, payload);
    }
    ++steps;
  }
  ASSERT_TRUE(sink.can_decode());
  const auto got = sink.decode_all();
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(got[i], msgs[i]);
}

INSTANTIATE_TEST_SUITE_P(Dims, RlncDimsTest, ::testing::Values(1, 2, 3, 8, 20, 64));

TEST(Rlnc, SourceDoubleLoadThrows) {
  rlnc_node n(2, 4);
  n.load_source_message(0, {1, 2, 3, 4});
  EXPECT_THROW(n.load_source_message(0, {1, 2, 3, 4}), rn::contract_error);
}

TEST(BatchLayout, SplitsEvenly) {
  batch_layout bl{10, 4};
  EXPECT_EQ(bl.batch_count(), 3u);
  EXPECT_EQ(bl.size_of(0), 4u);
  EXPECT_EQ(bl.size_of(2), 2u);
  EXPECT_EQ(bl.batch_begin(1), 4u);
  EXPECT_EQ(bl.batch_end(2), 10u);
}

TEST(Messages, DistinctAndSized) {
  const auto m = make_test_messages(8, 32, 1);
  EXPECT_EQ(m.size(), 8u);
  for (const auto& x : m) EXPECT_EQ(x.size(), 32u);
  EXPECT_NE(m[0], m[1]);
  EXPECT_EQ(m[3][0], 3);  // index stamp
}

}  // namespace
}  // namespace rn::coding
