#include "coding/gf2.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/check.h"

namespace rn::coding {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t word_count_for(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

bool test_bit(const std::uint64_t* words, std::size_t i) {
  return ((words[i / kWordBits] >> (i % kWordBits)) & 1ULL) != 0;
}

// dst ^= src & mask, for a mask of all zeros or all ones; the plain XORs
// below pass an all-ones mask.
void xor_words_masked(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t n, std::uint64_t mask) {
  for (std::size_t w = 0; w < n; ++w) dst[w] ^= src[w] & mask;
}

void xor_bytes_masked(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t len, std::uint64_t mask) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b & mask;
    std::memcpy(dst + i, &a, 8);
  }
  const auto byte_mask = static_cast<std::uint8_t>(mask);
  for (; i < len; ++i) dst[i] ^= src[i] & byte_mask;
}

void xor_words(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  xor_words_masked(dst, src, n, ~std::uint64_t{0});
}

void xor_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  xor_bytes_masked(dst, src, len, ~std::uint64_t{0});
}
}  // namespace

gf2_vector::gf2_vector(std::size_t bits)
    : bits_(bits), words_(word_count_for(bits), 0) {}

gf2_vector gf2_vector::unit(std::size_t bits, std::size_t i) {
  RN_REQUIRE(i < bits, "unit vector index out of range");
  gf2_vector v(bits);
  v.set(i, true);
  return v;
}

gf2_vector gf2_vector::random(std::size_t bits, rn::rng& r) {
  gf2_vector v(bits);
  for (auto& w : v.words_) w = r();
  // Clear bits beyond the logical size so equality/is_zero stay exact.
  const std::size_t excess = v.words_.size() * kWordBits - bits;
  if (excess > 0 && !v.words_.empty()) v.words_.back() &= (~0ULL >> excess);
  return v;
}

bool gf2_vector::get(std::size_t i) const {
  RN_REQUIRE(i < bits_, "bit index out of range");
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void gf2_vector::set(std::size_t i, bool value) {
  RN_REQUIRE(i < bits_, "bit index out of range");
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  if (value)
    words_[i / kWordBits] |= mask;
  else
    words_[i / kWordBits] &= ~mask;
}

void gf2_vector::reset(std::size_t bits) {
  bits_ = bits;
  words_.assign(word_count_for(bits), 0);
}

void gf2_vector::add(const gf2_vector& other) {
  RN_REQUIRE(bits_ == other.bits_, "gf2 vector size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
}

bool gf2_vector::dot(const gf2_vector& other) const {
  RN_REQUIRE(bits_ == other.bits_, "gf2 vector size mismatch");
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    acc ^= words_[i] & other.words_[i];
  return (std::popcount(acc) & 1) != 0;
}

bool gf2_vector::is_zero() const {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

std::size_t gf2_vector::leading_bit() const {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] != 0)
      return i * kWordBits +
             static_cast<std::size_t>(std::countr_zero(words_[i]));
  }
  return bits_;
}

gf2_decoder::gf2_decoder(std::size_t dimension, std::size_t payload_size)
    : dimension_(dimension),
      words_(word_count_for(dimension)),
      payload_size_(payload_size) {
  RN_REQUIRE(dimension >= 1, "decoder dimension must be >= 1");
}

bool gf2_decoder::insert(const gf2_vector& coeffs,
                         const std::vector<std::uint8_t>& payload) {
  RN_REQUIRE(coeffs.size() == dimension_, "coefficient width mismatch");
  RN_REQUIRE(payload.size() == payload_size_, "payload size mismatch");
  if (complete()) return false;
  if (coeff_slab_.empty()) {
    // First insert: size the slabs and scratch once, for the full rank.
    coeff_slab_.assign(dimension_ * words_, 0);
    payload_slab_.assign(dimension_ * payload_size_, 0);
    pivots_.reserve(dimension_);
    scratch_coeffs_.assign(words_, 0);
    scratch_payload_.assign(payload_size_, 0);
  }
  // Reduce against the basis. The basis is fully reduced, so the rows to
  // XOR in are exactly those whose pivot bit is set in the *input* row.
  const std::uint64_t* in = coeffs.words();
  std::uint64_t* c = scratch_coeffs_.data();
  std::copy(in, in + words_, c);
  for (const std::uint32_t p : pivots_)
    if (test_bit(in, p)) xor_words(c, coeff_row(p), words_);
  std::size_t pivot = dimension_;
  for (std::size_t w = 0; w < words_; ++w) {
    if (c[w] != 0) {
      pivot = w * kWordBits + static_cast<std::size_t>(std::countr_zero(c[w]));
      break;
    }
  }
  if (pivot == dimension_) return false;  // in the span: payload untouched

  std::uint8_t* pl = scratch_payload_.data();
  std::copy(payload.begin(), payload.end(), pl);
  for (const std::uint32_t p : pivots_)
    if (test_bit(in, p)) xor_bytes(pl, payload_row(p), payload_size_);
  // Eliminate the new pivot from existing rows to keep the basis reduced.
  for (const std::uint32_t p : pivots_) {
    std::uint64_t* row = coeff_slab_.data() + p * words_;
    if (test_bit(row, pivot)) {
      xor_words(row, c, words_);
      xor_bytes(payload_slab_.data() + p * payload_size_, pl, payload_size_);
    }
  }
  std::copy(c, c + words_, coeff_slab_.data() + pivot * words_);
  std::copy(pl, pl + payload_size_,
            payload_slab_.data() + pivot * payload_size_);
  pivots_.insert(std::upper_bound(pivots_.begin(), pivots_.end(), pivot),
                 static_cast<std::uint32_t>(pivot));
  return true;
}

bool gf2_decoder::in_span(const gf2_vector& coeffs) const {
  RN_REQUIRE(coeffs.size() == dimension_, "coefficient width mismatch");
  // Reduced basis: coeffs is in the span iff it equals the sum of the rows
  // whose pivot bit it has set. Compare word by word.
  const std::uint64_t* in = coeffs.words();
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t acc = in[w];
    for (const std::uint32_t p : pivots_)
      if (test_bit(in, p)) acc ^= coeff_row(p)[w];
    if (acc != 0) return false;
  }
  return true;
}

bool gf2_decoder::infected_by(const gf2_vector& mu) const {
  RN_REQUIRE(mu.size() == dimension_, "coefficient width mismatch");
  const std::uint64_t* m = mu.words();
  for (const std::uint32_t p : pivots_) {
    const std::uint64_t* row = coeff_row(p);
    std::uint64_t acc = 0;
    for (std::size_t w = 0; w < words_; ++w) acc ^= row[w] & m[w];
    if ((std::popcount(acc) & 1) != 0) return true;
  }
  return false;
}

std::vector<std::uint8_t> gf2_decoder::decode(std::size_t i) const {
  RN_REQUIRE(complete(), "decode requires full rank");
  RN_REQUIRE(i < dimension_, "message index out of range");
  // With a fully reduced basis of dimension d, rows are exactly the unit
  // vectors; the row with pivot i is e_i.
  RN_ASSERT(std::equal(coeff_row(i), coeff_row(i) + words_,
                       gf2_vector::unit(dimension_, i).words()));
  return {payload_row(i), payload_row(i) + payload_size_};
}

void gf2_decoder::random_combination_into(
    rn::rng& r, gf2_vector& coeffs, std::vector<std::uint8_t>& payload) const {
  RN_REQUIRE(rank() > 0, "cannot re-encode from empty subspace");
  coeffs.reset(dimension_);
  payload.assign(payload_size_, 0);
  std::uint64_t* c = coeffs.words();
  // Random subset of basis rows; redraw the (rare) empty subset so the packet
  // is never the zero vector. An empty draw leaves the outputs zero. The coin
  // selects the row through a mask rather than a branch: fair coins are
  // unpredictable, and a mispredict costs more than XORing a short row.
  for (bool any = false; !any;) {
    for (const std::uint32_t p : pivots_) {
      const bool coin = r.bernoulli(0.5);
      const std::uint64_t mask = std::uint64_t{0} - coin;
      xor_words_masked(c, coeff_row(p), words_, mask);
      xor_bytes_masked(payload.data(), payload_row(p), payload_size_, mask);
      any = any || coin;
    }
  }
}

void xor_bytes(std::vector<std::uint8_t>& a,
               const std::vector<std::uint8_t>& b) {
  RN_REQUIRE(a.size() == b.size(), "byte string size mismatch");
  xor_bytes(a.data(), b.data(), a.size());
}

}  // namespace rn::coding
