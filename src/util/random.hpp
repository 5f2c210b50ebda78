// Random starting vectors for the stochastic trace estimator.
//
// KPM approximates tr[A] ~ (1/R) sum_r <v_r|A|v_r> over R independent random
// vectors (paper Sec. II).  Standard choices are complex random-phase vectors
// (|v_i| = 1/sqrt(N), uniformly random phase) and Rademacher (+-1) vectors;
// random-phase gives the lowest variance for complex Hermitian problems.
//
// Every entry is a pure function of (seed, lane, global row): a Philox4x32-10
// hash (Salmon et al., SC'11) of the counter (row, lane >> 1) under the seed,
// mapped to a phase or a sign.  No entry depends on another, so fill_block()
// generates any row window in parallel, a rank only its own rows, with the
// same bits for every thread count and window (DESIGN.md "Start vectors").
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/types.hpp"

namespace kpm {

enum class RandomVectorKind {
  phase,       ///< e^{i phi}/sqrt(N), phi uniform in [0, 2pi)
  rademacher,  ///< +-1/sqrt(N) real entries
};

/// Global rows [begin, begin + rows) of start vectors of length n_global.
struct RowWindow {
  global_index n_global = 0;
  global_index begin = 0;
  global_index rows = 0;
};

/// Philox4x32-10 of the 128-bit counter `ctr` under the 64-bit key `key`
/// (words least significant first, as in Random123).
[[nodiscard]] std::array<std::uint32_t, 4> philox4x32_10(
    std::array<std::uint32_t, 4> ctr,
    std::array<std::uint32_t, 2> key) noexcept;

/// e^{2 pi i u} for u = (bits >> 11) * 2^-53, the top 53 bits of `bits`:
/// the top three bits pick the octant, the next 50 the angle inside it.
/// Branch-free and written in explicit std::fma, so its bits do not depend
/// on the compiler's contraction or vectorization choices.
[[nodiscard]] complex_t unit_phase(std::uint64_t bits) noexcept;

/// Deterministic, seedable source of stochastic-trace starting vectors.
///
/// Entry (lane l, global row i) of a vector of length n_global is a pure
/// function: take 64-bit half (l & 1) (words 2h, 2h + 1, low word first) of
/// philox4x32_10 of the counter (i, l >> 1) under the key `seed` (64-bit
/// values split low word first).  A phase entry is that half's unit_phase
/// times 1/sqrt(n_global), a Rademacher entry +-1/sqrt(n_global) by its top
/// bit.  Vector r of a run is lane r: the source counts the lanes it has
/// handed out, and each fill continues from there.
class RandomVectorSource {
 public:
  explicit RandomVectorSource(std::uint64_t seed,
                              RandomVectorKind kind = RandomVectorKind::phase)
      : seed_(seed), kind_(kind) {}

  /// Fills `v` with the next lane, a vector of length v.size() whose entries
  /// all have modulus 1/sqrt(v.size()).
  void fill(std::span<complex_t> v);

  /// Fills column `col` of a row-major block vector of width `width`.
  void fill_column(std::span<complex_t> block, int width, int col);

  /// Writes the next `lanes` lanes into columns [first_col, first_col +
  /// lanes) of the row-major block `block` of width `width`, restricted to
  /// the window: block row i holds global row window.begin + i.  Column
  /// first_col + l receives what the l-th of `lanes` successive fill() calls
  /// of length window.n_global would produce there.  Other columns and rows
  /// are left untouched.  Rows are generated in parallel: O(window.rows *
  /// lanes) work, whatever n_global is.
  void fill_block(std::span<complex_t> block, int width, int first_col,
                  int lanes, RowWindow window);
  /// Same, with the window covering every row of `block`.
  void fill_block(std::span<complex_t> block, int width, int first_col,
                  int lanes);

  [[nodiscard]] RandomVectorKind kind() const noexcept { return kind_; }

 private:
  std::uint64_t seed_;
  std::uint64_t next_lane_ = 0;
  RandomVectorKind kind_;
};

}  // namespace kpm
