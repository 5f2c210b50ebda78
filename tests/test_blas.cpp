// Unit tests for src/blas: complex level-1 kernels and block-vector ops.
#include <gtest/gtest.h>

#include <random>

#include "blas/block_ops.hpp"
#include "blas/block_vector.hpp"
#include "blas/level1.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace kpm::blas {
namespace {

aligned_vector<complex_t> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  aligned_vector<complex_t> v(n);
  for (auto& x : v) x = {d(rng), d(rng)};
  return v;
}

TEST(Level1, AxpyMatchesReference) {
  auto x = random_vec(333, 1);
  auto y = random_vec(333, 2);
  auto y_ref = y;
  const complex_t a{0.5, -1.25};
  axpy(a, x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - (y_ref[i] + a * x[i])), 0.0, 1e-14);
  }
}

TEST(Level1, ScalMatchesReference) {
  auto x = random_vec(100, 3);
  auto ref = x;
  const complex_t a{-2.0, 0.75};
  scal(a, x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i] - a * ref[i]), 0.0, 1e-14);
  }
}

TEST(Level1, DotIsConjugateLinear) {
  auto x = random_vec(257, 4);
  auto y = random_vec(257, 5);
  const complex_t d_xy = dot(x, y);
  const complex_t d_yx = dot(y, x);
  // <x|y> = conj(<y|x>)
  EXPECT_NEAR(std::abs(d_xy - std::conj(d_yx)), 0.0, 1e-12);
}

TEST(Level1, DotSelfIsRealAndPositive) {
  auto x = random_vec(64, 6);
  const double n2 = dot_self(x);
  EXPECT_GT(n2, 0.0);
  EXPECT_NEAR(n2, dot(x, x).real(), 1e-12);
  EXPECT_NEAR(std::abs(dot(x, x).imag()), 0.0, 1e-12);
}

TEST(Level1, Nrm2MatchesDotSelf) {
  auto x = random_vec(99, 7);
  EXPECT_NEAR(nrm2(x) * nrm2(x), dot_self(x), 1e-12);
}

TEST(Level1, CopyAndZero) {
  auto x = random_vec(50, 8);
  aligned_vector<complex_t> y(50);
  copy(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
  set_zero(y);
  for (const auto& v : y) EXPECT_EQ(v, complex_t{});
}

TEST(Level1, SizeMismatchThrows) {
  aligned_vector<complex_t> x(3), y(4);
  EXPECT_THROW(axpy({1.0, 0.0}, x, y), contract_error);
  EXPECT_THROW(dot(x, y), contract_error);
  EXPECT_THROW(copy(x, y), contract_error);
}

TEST(BlockVector, RowMajorIndexing) {
  BlockVector b(5, 3);
  b(2, 1) = {7.0, -1.0};
  EXPECT_EQ(b.span()[2 * 3 + 1], (complex_t{7.0, -1.0}));
  EXPECT_EQ(b.rows(), 5);
  EXPECT_EQ(b.width(), 3);
}

TEST(BlockVector, ColMajorIndexing) {
  BlockVector b(5, 3, Layout::col_major);
  b(2, 1) = {7.0, -1.0};
  EXPECT_EQ(b.span()[1 * 5 + 2], (complex_t{7.0, -1.0}));
}

TEST(BlockVector, RowAccessorIsContiguous) {
  BlockVector b(4, 8);
  for (int r = 0; r < 8; ++r) b(2, r) = {static_cast<double>(r), 0.0};
  const auto row = b.row(2);
  ASSERT_EQ(row.size(), 8u);
  for (int r = 0; r < 8; ++r) EXPECT_DOUBLE_EQ(row[r].real(), r);
}

TEST(BlockVector, RowAccessorRequiresRowMajor) {
  BlockVector b(4, 2, Layout::col_major);
  EXPECT_THROW(b.row(0), contract_error);
}

TEST(BlockVector, ColumnRoundTrip) {
  BlockVector b(16, 4);
  auto col = random_vec(16, 11);
  b.set_column(2, col);
  aligned_vector<complex_t> out(16);
  b.extract_column(2, out);
  for (std::size_t i = 0; i < col.size(); ++i) EXPECT_EQ(out[i], col[i]);
}

TEST(BlockVector, TransposedLayoutPreservesValues) {
  BlockVector b(6, 3);
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (global_index i = 0; i < 6; ++i)
    for (int r = 0; r < 3; ++r) b(i, r) = {d(rng), d(rng)};
  const BlockVector t = b.transposed_layout();
  EXPECT_EQ(t.layout(), Layout::col_major);
  for (global_index i = 0; i < 6; ++i)
    for (int r = 0; r < 3; ++r) EXPECT_EQ(t(i, r), b(i, r));
}

TEST(BlockVector, ReshapeKeepsTheAllocationWhenTheShapeFits) {
  BlockVector b(100, 8, Layout::col_major);
  for (std::size_t k = 0; k < b.size(); ++k) {
    b.data()[k] = {static_cast<double>(k), -1.0};
  }
  const complex_t* storage = b.data();

  // Narrower and wider shapes within the allocation: nothing moves, and the
  // storage-order prefix is untouched.
  EXPECT_TRUE(b.reshape(50, 16));
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.rows(), 50);
  EXPECT_EQ(b.width(), 16);
  EXPECT_EQ(b.layout(), Layout::row_major);
  EXPECT_EQ(b.size(), 800u);
  EXPECT_TRUE(b.reshape(10, 3));
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.size(), 30u);
  for (std::size_t k = 0; k < b.size(); ++k) {
    EXPECT_EQ(b.data()[k], (complex_t{static_cast<double>(k), -1.0}));
  }
  EXPECT_EQ(b(2, 1), (complex_t{7.0, -1.0}));
  EXPECT_TRUE(b.reshape(100, 8));  // back to the full allocation
  EXPECT_EQ(b.data(), storage);

  // Growth past the allocation: a fresh zeroed block.
  EXPECT_FALSE(b.reshape(101, 8));
  EXPECT_EQ(b.rows(), 101);
  EXPECT_EQ(b.width(), 8);
  for (const complex_t z : b.span()) EXPECT_EQ(z, complex_t{});

  BlockVector empty;
  EXPECT_FALSE(empty.reshape(4, 2));
  EXPECT_EQ(empty.size(), 8u);
  EXPECT_THROW(empty.reshape(4, 0), contract_error);
}

TEST(BlockOps, ColumnDotsMatchPerColumnDot) {
  const global_index n = 123;
  const int width = 5;
  BlockVector x(n, width), y(n, width);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (global_index i = 0; i < n; ++i) {
    for (int r = 0; r < width; ++r) {
      x(i, r) = {d(rng), d(rng)};
      y(i, r) = {d(rng), d(rng)};
    }
  }
  std::vector<complex_t> dots(width);
  column_dots(x, y, dots);
  aligned_vector<complex_t> xc(static_cast<std::size_t>(n)),
      yc(static_cast<std::size_t>(n));
  for (int r = 0; r < width; ++r) {
    x.extract_column(r, xc);
    y.extract_column(r, yc);
    EXPECT_NEAR(std::abs(dots[static_cast<std::size_t>(r)] - dot(xc, yc)), 0.0,
                1e-12);
  }
}

TEST(BlockOps, ColumnNorms2AreRealPartsOfSelfDots) {
  BlockVector x(64, 3);
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (global_index i = 0; i < 64; ++i)
    for (int r = 0; r < 3; ++r) x(i, r) = {d(rng), d(rng)};
  std::vector<double> n2(3);
  column_norms2(x, n2);
  aligned_vector<complex_t> col(64);
  for (int r = 0; r < 3; ++r) {
    x.extract_column(r, col);
    EXPECT_NEAR(n2[static_cast<std::size_t>(r)], dot_self(col), 1e-12);
  }
}

TEST(BlockOps, BlockAxpyAndScalAndCopy) {
  BlockVector x(32, 2), y(32, 2), z(32, 2);
  for (global_index i = 0; i < 32; ++i) {
    for (int r = 0; r < 2; ++r) {
      x(i, r) = {1.0, 1.0};
      y(i, r) = {2.0, 0.0};
    }
  }
  block_copy(y, z);
  block_axpy({2.0, 0.0}, x, y);  // y = 2x + y = (4, 2)
  EXPECT_EQ(y(5, 1), (complex_t{4.0, 2.0}));
  block_scal({0.5, 0.0}, y);
  EXPECT_EQ(y(5, 1), (complex_t{2.0, 1.0}));
  EXPECT_EQ(z(5, 1), (complex_t{2.0, 0.0}));  // copy unaffected
}

TEST(BlockOps, MaxAbsDiff) {
  BlockVector x(8, 2), y(8, 2);
  y(3, 1) = {0.0, 0.5};
  EXPECT_DOUBLE_EQ(max_abs_diff(x, y), 0.5);
  EXPECT_DOUBLE_EQ(max_abs_diff(x, x), 0.0);
}

TEST(BlockOps, ShapeMismatchThrows) {
  BlockVector x(8, 2), y(8, 3);
  std::vector<complex_t> dots(2);
  EXPECT_THROW(column_dots(x, y, dots), contract_error);
  EXPECT_THROW(block_axpy({1.0, 0.0}, x, y), contract_error);
}

TEST(BlockOps, ColumnDotsColMajorAgreesWithRowMajor) {
  BlockVector x(40, 3), y(40, 3);
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (global_index i = 0; i < 40; ++i) {
    for (int r = 0; r < 3; ++r) {
      x(i, r) = {d(rng), d(rng)};
      y(i, r) = {d(rng), d(rng)};
    }
  }
  std::vector<complex_t> row_dots(3), col_dots(3);
  column_dots(x, y, row_dots);
  const auto xt = x.transposed_layout();
  const auto yt = y.transposed_layout();
  column_dots(xt, yt, col_dots);
  for (int r = 0; r < 3; ++r) {
    EXPECT_NEAR(std::abs(row_dots[static_cast<std::size_t>(r)] -
                         col_dots[static_cast<std::size_t>(r)]),
                0.0, 1e-12);
  }
}

}  // namespace
}  // namespace kpm::blas
