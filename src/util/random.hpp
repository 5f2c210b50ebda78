// Random starting vectors for the stochastic trace estimator.
//
// KPM approximates tr[A] ~ (1/R) sum_r <v_r|A|v_r> over R independent random
// vectors (paper Sec. II).  Standard choices are complex random-phase vectors
// (|v_i| = 1/sqrt(N), uniformly random phase) and Rademacher (+-1) vectors;
// random-phase gives the lowest variance for complex Hermitian problems.
//
// One seeded mt19937_64 stream feeds every start vector: vector r of a run
// is the r-th length-N draw of that stream.  fill_block() writes R such
// vectors straight into a row-major block (optionally only one rank's row
// window of it) in parallel, with exactly the bits R successive fill() calls
// produce (DESIGN.md "Start vectors").
#pragma once

#include <cstdint>
#include <random>
#include <span>

#include "util/types.hpp"

namespace kpm {

enum class RandomVectorKind {
  phase,       ///< e^{i phi}/sqrt(N), phi uniform in [0, 2pi)
  rademacher,  ///< +-1/sqrt(N) real entries
  gaussian,    ///< complex normal, normalized
};

/// Global rows [begin, begin + rows) of start vectors of length n_global.
struct RowWindow {
  global_index n_global = 0;
  global_index begin = 0;
  global_index rows = 0;
};

/// Deterministic, seedable generator of stochastic-trace starting vectors.
class RandomVectorSource {
 public:
  explicit RandomVectorSource(std::uint64_t seed,
                              RandomVectorKind kind = RandomVectorKind::phase)
      : engine_(seed), kind_(kind) {}

  /// Fills `v` with the next random vector of the stream, normalized to
  /// <v|v> = 1.  Serial; defines the bits fill_block() reproduces.
  void fill(std::span<complex_t> v);

  /// Fills column `col` of a row-major block vector of width `width`.
  void fill_column(std::span<complex_t> block, int width, int col);

  /// Writes the next `lanes` vectors of the stream into columns
  /// [first_col, first_col + lanes) of the row-major block `block` of width
  /// `width`.  Column first_col + l receives, bit for bit, what the l-th of
  /// `lanes` successive fill() calls of length window.n_global would
  /// produce, restricted to the window: block row i holds global row
  /// window.begin + i.  Other columns and rows are left untouched, and the
  /// source ends in the state those fill() calls would leave.  Phase and
  /// Rademacher lanes are generated in parallel; gaussian stays serial.
  void fill_block(std::span<complex_t> block, int width, int first_col,
                  int lanes, RowWindow window);
  /// Same, with the window covering every row of `block`.
  void fill_block(std::span<complex_t> block, int width, int first_col,
                  int lanes);

  [[nodiscard]] RandomVectorKind kind() const noexcept { return kind_; }

 private:
  std::mt19937_64 engine_;
  RandomVectorKind kind_;
};

}  // namespace kpm
