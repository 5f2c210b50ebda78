// Block vectors (multiple right-hand sides).
//
// The paper's optimization stage 2 (Fig. 5) interprets the R random vectors
// of the stochastic trace as a single block vector of width R.  For SIMD/SIMT
// efficiency the block must be stored *row-major* ("interleaved", Sec. IV-A):
// element (i, r) lives at i*R + r, so the R values of one matrix row are
// contiguous and a vectorized kernel streams them with unit stride.
// A column-major layout is provided as well for the layout ablation bench.
#pragma once

#include <span>

#include "util/aligned.hpp"
#include "util/types.hpp"

namespace kpm::blas {

enum class Layout { row_major, col_major };

/// Page-placement policy of a fresh BlockVector's zero fill.
///
///  - serial:   one thread touches every page (historic behavior; fine on a
///    single NUMA node).
///  - parallel: the zero fill runs in an OpenMP parallel region using the
///    kernels' static row split (util/schedule.hpp), so under a first-touch
///    NUMA policy each thread's row band lands in pages local to the core
///    that will stream it in aug_spmmv.  Requires the same OMP_NUM_THREADS /
///    affinity as the later kernel calls to be effective.
enum class FirstTouch { serial, parallel };

/// Dense rows x width complex block vector with 64-byte aligned storage.
class BlockVector {
 public:
  BlockVector() = default;
  BlockVector(global_index rows, int width, Layout layout = Layout::row_major,
              FirstTouch touch = FirstTouch::serial);

  [[nodiscard]] global_index rows() const noexcept { return rows_; }
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] Layout layout() const noexcept { return layout_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size() / 2; }

  [[nodiscard]] complex_t& operator()(global_index i, int r) noexcept {
    return data()[index(i, r)];
  }
  [[nodiscard]] const complex_t& operator()(global_index i, int r) const noexcept {
    return data()[index(i, r)];
  }

  [[nodiscard]] std::span<complex_t> span() noexcept { return {data(), size()}; }
  [[nodiscard]] std::span<const complex_t> span() const noexcept {
    return {data(), size()};
  }
  // Storage is interleaved (re, im) doubles; [complex.numbers.general]/4
  // guarantees the complex view, and keeping the doubles primary lets a
  // fresh buffer stay untouched until the (possibly parallel, first-touch)
  // zero fill.
  [[nodiscard]] complex_t* data() noexcept {
    return reinterpret_cast<complex_t*>(data_.data());
  }
  [[nodiscard]] const complex_t* data() const noexcept {
    return reinterpret_cast<const complex_t*>(data_.data());
  }

  /// Interleaved (re, im) scalar view of the storage for split-complex
  /// kernels; element (i, r) occupies real_data()[2k] (real) and
  /// real_data()[2k + 1] (imag) with k the complex-element index.
  [[nodiscard]] double* real_data() noexcept { return data_.data(); }
  [[nodiscard]] const double* real_data() const noexcept {
    return data_.data();
  }
  /// Doubles between consecutive rows of the interleaved view (row-major) /
  /// consecutive column elements (col-major): the split-loop row stride.
  [[nodiscard]] std::size_t real_stride() const noexcept {
    return 2 * static_cast<std::size_t>(layout_ == Layout::row_major ? width_
                                                                     : 1);
  }

  /// Contiguous row i (row-major layout only).
  [[nodiscard]] std::span<complex_t> row(global_index i);
  [[nodiscard]] std::span<const complex_t> row(global_index i) const;

  /// Copies column r into `out` (any layout).
  void extract_column(int r, std::span<complex_t> out) const;
  /// Overwrites column r from `in` (any layout).
  void set_column(int r, std::span<const complex_t> in);

  void fill(complex_t value);

  /// Reshapes to a row-major rows x width block.  Whenever 2*rows*width
  /// doubles fit the current allocation it is kept and nothing moves (the
  /// first rows*width complex entries in storage order are unchanged), and
  /// the call returns true: the contents under the new shape are stale.
  /// Otherwise the old storage is freed first, a fresh zeroed block with a
  /// parallel first touch replaces it, and the call returns false.
  bool reshape(global_index rows, int width);

  /// Returns a copy converted to the other storage layout.
  [[nodiscard]] BlockVector transposed_layout() const;

 private:
  [[nodiscard]] std::size_t index(global_index i, int r) const noexcept {
    return layout_ == Layout::row_major
               ? static_cast<std::size_t>(i) * width_ + r
               : static_cast<std::size_t>(r) * rows_ + i;
  }

  global_index rows_ = 0;
  int width_ = 0;
  Layout layout_ = Layout::row_major;
  untouched_vector<double> data_;  // 2 * rows * width interleaved doubles
};

}  // namespace kpm::blas
