// Dense linear algebra over GF(2): bit vectors and an online Gaussian
// eliminator. This is the arithmetic substrate of random linear network
// coding (paper section 3.3.1) and of the FEC inter-ring handoff (section 3.4).
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace rn::coding {

/// Fixed-length bit vector over GF(2); addition is XOR.
class gf2_vector {
 public:
  gf2_vector() = default;
  explicit gf2_vector(std::size_t bits);

  /// The i-th unit vector of the given length.
  [[nodiscard]] static gf2_vector unit(std::size_t bits, std::size_t i);

  /// Uniformly random vector (each bit independent fair coin).
  [[nodiscard]] static gf2_vector random(std::size_t bits, rn::rng& r);

  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] bool get(std::size_t i) const;
  void set(std::size_t i, bool value);

  /// Resets to the zero vector of `bits` bits, reusing the word storage (no
  /// allocation when it already holds enough words).
  void reset(std::size_t bits);

  /// The packed 64-bit words (size() / 64 rounded up), lowest bit first;
  /// bits past size() are zero.
  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }
  [[nodiscard]] std::uint64_t* words() { return words_.data(); }

  /// this += other (XOR); sizes must match.
  void add(const gf2_vector& other);

  /// Inner product over GF(2).
  [[nodiscard]] bool dot(const gf2_vector& other) const;

  [[nodiscard]] bool is_zero() const;

  /// Index of the lowest set bit, or size() if zero.
  [[nodiscard]] std::size_t leading_bit() const;

  [[nodiscard]] bool operator==(const gf2_vector& other) const = default;

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Online Gaussian elimination: feed coefficient rows (each with an attached
/// payload), query the span rank, and solve once full rank is reached.
///
/// The basis is kept fully reduced (every pivot column is zero in all other
/// rows), stored flat: one coefficient slab of dimension x words and one
/// payload slab of dimension x payload_size, where the row with pivot p lives
/// at slot p — so the slots are sorted by pivot and decode(i) is slot i.
/// Insertion is O(rank * (words + payload)) and, once the slabs exist (first
/// insert), allocates nothing: reduction runs in scratch the decoder owns.
class gf2_decoder {
 public:
  /// `dimension` = number of source messages; `payload_size` = bytes per row.
  gf2_decoder(std::size_t dimension, std::size_t payload_size);

  [[nodiscard]] std::size_t dimension() const { return dimension_; }
  [[nodiscard]] std::size_t rank() const { return pivots_.size(); }
  [[nodiscard]] bool complete() const { return rank() == dimension_; }

  /// Inserts a row; returns true iff it was innovative (increased the rank).
  /// Sizes are checked first, even at full rank, where nothing else runs.
  bool insert(const gf2_vector& coeffs, const std::vector<std::uint8_t>& payload);

  /// True iff `coeffs` lies in the span of the received rows.
  [[nodiscard]] bool in_span(const gf2_vector& coeffs) const;

  /// Infection test (paper Definition 3.8): some received row is
  /// non-orthogonal to mu.
  [[nodiscard]] bool infected_by(const gf2_vector& mu) const;

  /// Reconstructs message i; requires complete().
  [[nodiscard]] std::vector<std::uint8_t> decode(std::size_t i) const;

  /// RLNC re-encoding: overwrites `coeffs` and `payload` with a fresh random
  /// combination of the basis rows — one bernoulli(0.5) coin per row in
  /// pivot order, redrawn while no row is picked, so the result is never
  /// zero. Reuses the outputs' storage. Requires rank() > 0.
  void random_combination_into(rn::rng& r, gf2_vector& coeffs,
                               std::vector<std::uint8_t>& payload) const;

 private:
  [[nodiscard]] const std::uint64_t* coeff_row(std::size_t pivot) const {
    return coeff_slab_.data() + pivot * words_;
  }
  [[nodiscard]] const std::uint8_t* payload_row(std::size_t pivot) const {
    return payload_slab_.data() + pivot * payload_size_;
  }

  std::size_t dimension_;
  std::size_t words_;  ///< 64-bit words per coefficient row
  std::size_t payload_size_;
  std::vector<std::uint64_t> coeff_slab_;   ///< dimension x words, slot = pivot
  std::vector<std::uint8_t> payload_slab_;  ///< dimension x payload_size
  std::vector<std::uint32_t> pivots_;       ///< occupied slots, ascending
  std::vector<std::uint64_t> scratch_coeffs_;
  std::vector<std::uint8_t> scratch_payload_;
};

/// XOR byte strings in place: a ^= b (sizes must match).
void xor_bytes(std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b);

}  // namespace rn::coding
