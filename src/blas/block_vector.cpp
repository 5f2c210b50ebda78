#include "blas/block_vector.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/check.hpp"
#include "util/schedule.hpp"

namespace kpm::blas {

BlockVector::BlockVector(global_index rows, int width, Layout layout,
                         FirstTouch touch)
    : rows_(rows), width_(width), layout_(layout) {
  require(rows >= 0 && width > 0, "BlockVector: invalid shape");
  // resize() leaves the doubles uninitialized (untouched_vector), so the
  // zero fill below is the first touch of every page.
  data_.resize(2 * static_cast<std::size_t>(rows) * width);
  if (touch == FirstTouch::parallel && !data_.empty()) {
    // Same static row split as the fused kernels: each page ends up local to
    // the thread that will stream that row band.  (For col_major the split
    // runs over the flat storage instead; the kernels only band row-major.)
    const std::size_t per_row =
        layout == Layout::row_major ? 2 * static_cast<std::size_t>(width) : 2;
    const global_index items =
        layout == Layout::row_major ? rows_
                                    : rows_ * static_cast<global_index>(width);
#ifdef _OPENMP
#pragma omp parallel
    {
      const auto mine = static_chunk<global_index>(
          0, items, omp_get_thread_num(), omp_get_num_threads());
      std::fill(data_.begin() + static_cast<std::size_t>(mine.begin) * per_row,
                data_.begin() + static_cast<std::size_t>(mine.end) * per_row,
                0.0);
    }
#else
    std::fill(data_.begin(), data_.end(), 0.0);
#endif
  } else {
    std::fill(data_.begin(), data_.end(), 0.0);
  }
}

std::span<complex_t> BlockVector::row(global_index i) {
  require(layout_ == Layout::row_major, "row(): row-major layout required");
  return {data() + static_cast<std::size_t>(i) * width_,
          static_cast<std::size_t>(width_)};
}

std::span<const complex_t> BlockVector::row(global_index i) const {
  require(layout_ == Layout::row_major, "row(): row-major layout required");
  return {data() + static_cast<std::size_t>(i) * width_,
          static_cast<std::size_t>(width_)};
}

void BlockVector::extract_column(int r, std::span<complex_t> out) const {
  require(r >= 0 && r < width_, "extract_column: column out of range");
  require(out.size() == static_cast<std::size_t>(rows_),
          "extract_column: output size mismatch");
  for (global_index i = 0; i < rows_; ++i) out[i] = (*this)(i, r);
}

void BlockVector::set_column(int r, std::span<const complex_t> in) {
  require(r >= 0 && r < width_, "set_column: column out of range");
  require(in.size() == static_cast<std::size_t>(rows_),
          "set_column: input size mismatch");
  for (global_index i = 0; i < rows_; ++i) (*this)(i, r) = in[i];
}

void BlockVector::fill(complex_t value) {
  complex_t* p = data();
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) p[i] = value;
}

bool BlockVector::reshape(global_index rows, int width) {
  require(rows >= 0 && width > 0, "BlockVector::reshape: invalid shape");
  const std::size_t doubles = 2 * static_cast<std::size_t>(rows) * width;
  if (doubles > data_.capacity()) {
    // Free before allocating, so growth never holds both blocks at once.
    data_ = untouched_vector<double>();
    *this = BlockVector(rows, width, Layout::row_major, FirstTouch::parallel);
    return false;
  }
  data_.resize(doubles);  // within capacity: no reallocation, no writes
  rows_ = rows;
  width_ = width;
  layout_ = Layout::row_major;
  return true;
}

BlockVector BlockVector::transposed_layout() const {
  const Layout other =
      layout_ == Layout::row_major ? Layout::col_major : Layout::row_major;
  BlockVector out(rows_, width_, other);
  for (global_index i = 0; i < rows_; ++i) {
    for (int r = 0; r < width_; ++r) out(i, r) = (*this)(i, r);
  }
  return out;
}

}  // namespace kpm::blas
