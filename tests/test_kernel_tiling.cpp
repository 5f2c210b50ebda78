// Composition of the partial-sweep kernels and first-touch placement.
//
// Row-interval and run-list sweeps that together cover every row must
// reproduce the one-shot sweep BITWISE in w (the dots agree to round-off,
// since the thread split of each piece differs); a single full-range run is
// the contiguous sweep itself, bit for bit.  Parallel first touch changes
// page placement only, never values.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "blas/block_vector.hpp"
#include "physics/ti_model.hpp"
#include "sparse/crs.hpp"
#include "sparse/kpm_kernels.hpp"
#include "util/check.hpp"

namespace kpm {
namespace {

const sparse::CrsMatrix& matrix() {
  static const sparse::CrsMatrix m = [] {
    physics::TIParams p;
    p.nx = 8;
    p.ny = 8;
    p.nz = 6;
    return physics::build_ti_hamiltonian(p);
  }();
  return m;
}

blas::BlockVector block(global_index n, int width, double shift) {
  blas::BlockVector b(n, width);
  for (global_index i = 0; i < n; ++i) {
    for (int r = 0; r < width; ++r) {
      b(i, r) = {1.0 / (1.0 + static_cast<double>(i) + shift * r),
                 0.25 - 0.001 * r};
    }
  }
  return b;
}

bool bitwise_equal(const blas::BlockVector& a, const blas::BlockVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(complex_t)) == 0;
}

bool bitwise_equal(const std::vector<complex_t>& a,
                   const std::vector<complex_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(complex_t)) == 0;
}

struct SweepOutput {
  blas::BlockVector w;
  std::vector<complex_t> dvv;
  std::vector<complex_t> dwv;
};

/// One full fused sweep with the on-the-fly dots.
template <typename Matrix>
SweepOutput run_sweep(const Matrix& a, int width) {
  SweepOutput out{block(a.nrows(), width, 0.5),
                  std::vector<complex_t>(static_cast<std::size_t>(width)),
                  std::vector<complex_t>(static_cast<std::size_t>(width))};
  const auto v = block(a.ncols(), width, 0.0);
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  sparse::aug_spmmv(a, rec, v, out.w, out.dvv, out.dwv);
  return out;
}

/// The one-run list [begin, end): a partial sweep over one row interval.
std::array<IndexRange<global_index>, 1> one_run(global_index begin,
                                                global_index end) {
  return {{{begin, end}}};
}

TEST(KernelTiling, RowIntervalsComposeUnderTiling) {
  // One-run calls over disjoint bands must reproduce the one-shot sweep.
  const auto& a = matrix();
  const int width = 32;
  const auto full = run_sweep(a, width);
  SweepOutput split{block(a.nrows(), width, 0.5),
                    std::vector<complex_t>(width),
                    std::vector<complex_t>(width)};
  const auto v = block(a.ncols(), width, 0.0);
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  const global_index cut1 = a.nrows() / 3;
  const global_index cut2 = 2 * a.nrows() / 3;
  sparse::aug_spmmv_runs(a, rec, v, split.w, one_run(0, cut1), split.dvv,
                         split.dwv);
  sparse::aug_spmmv_runs(a, rec, v, split.w, one_run(cut1, cut2), split.dvv,
                         split.dwv);
  sparse::aug_spmmv_runs(a, rec, v, split.w, one_run(cut2, a.nrows()),
                         split.dvv, split.dwv);
  EXPECT_TRUE(bitwise_equal(full.w, split.w));
  for (int r = 0; r < width; ++r) {
    EXPECT_NEAR(std::abs(full.dvv[r] - split.dvv[r]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(full.dwv[r] - split.dwv[r]), 0.0, 1e-12);
  }
}

TEST(KernelTiling, FirstTouchVectorsMatchSerialOnes) {
  // FirstTouch::parallel only changes page placement, never values.
  blas::BlockVector serial(257, 8, blas::Layout::row_major,
                           blas::FirstTouch::serial);
  blas::BlockVector parallel(257, 8, blas::Layout::row_major,
                             blas::FirstTouch::parallel);
  EXPECT_TRUE(bitwise_equal(serial, parallel));
  blas::BlockVector col(63, 5, blas::Layout::col_major,
                        blas::FirstTouch::parallel);
  for (global_index i = 0; i < 63; ++i) {
    for (int r = 0; r < 5; ++r) EXPECT_EQ(col(i, r), complex_t{});
  }
}

TEST(KernelTiling, SingleRunMatchesContiguousSweepBitwise) {
  // aug_spmmv_runs with one full-range run is the contiguous sweep: same
  // static thread split, same bits.
  const auto& a = matrix();
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  for (const int width : {3, 16, 32}) {
    const auto ref = run_sweep(a, width);
    SweepOutput runs_out{block(a.nrows(), width, 0.5),
                         std::vector<complex_t>(width),
                         std::vector<complex_t>(width)};
    const auto v = block(a.ncols(), width, 0.0);
    const IndexRange<global_index> all{0, a.nrows()};
    sparse::aug_spmmv_runs(
        a, rec, v, runs_out.w,
        std::span<const IndexRange<global_index>>(&all, 1), runs_out.dvv,
        runs_out.dwv);
    EXPECT_TRUE(bitwise_equal(ref.w, runs_out.w)) << "width " << width;
    EXPECT_TRUE(bitwise_equal(ref.dvv, runs_out.dvv)) << "width " << width;
    EXPECT_TRUE(bitwise_equal(ref.dwv, runs_out.dwv)) << "width " << width;
  }
}

TEST(KernelTiling, InterleavedRunListsComposeUnderTiling) {
  // Complementary interleaved run lists (the overlapped interior/boundary
  // shape) must compose to the one-shot sweep.
  const auto& a = matrix();
  const int width = 32;
  const auto full = run_sweep(a, width);
  SweepOutput split{block(a.nrows(), width, 0.5),
                    std::vector<complex_t>(width),
                    std::vector<complex_t>(width)};
  const auto v = block(a.ncols(), width, 0.0);
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  // Alternate 17-row stripes between the two lists (uneven tail included).
  std::vector<IndexRange<global_index>> evens, odds;
  bool even = true;
  for (global_index b = 0; b < a.nrows(); b += 17, even = !even) {
    const global_index e = std::min<global_index>(b + 17, a.nrows());
    (even ? evens : odds).push_back({b, e});
  }
  ASSERT_GT(odds.size(), 2u);
  sparse::aug_spmmv_runs(a, rec, v, split.w, evens, split.dvv, split.dwv);
  sparse::aug_spmmv_runs(a, rec, v, split.w, odds, split.dvv, split.dwv);
  EXPECT_TRUE(bitwise_equal(full.w, split.w));
  for (int r = 0; r < width; ++r) {
    EXPECT_NEAR(std::abs(full.dvv[r] - split.dvv[r]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(full.dwv[r] - split.dwv[r]), 0.0, 1e-12);
  }
}

TEST(KernelTiling, RunListValidation) {
  const auto& a = matrix();
  const auto rec = sparse::AugScalars::recurrence(0.3, 0.0);
  blas::BlockVector v = block(a.ncols(), 2, 0.0);
  blas::BlockVector w = block(a.nrows(), 2, 0.5);
  std::vector<complex_t> dvv(2), dwv(2);
  const auto run = [&](std::vector<IndexRange<global_index>> runs) {
    sparse::aug_spmmv_runs(a, rec, v, w, runs, dvv, dwv);
  };
  EXPECT_NO_THROW(run({{0, 5}, {5, 9}, {12, 12}, {20, a.nrows()}}));
  EXPECT_THROW(run({{5, 9}, {0, 5}}), contract_error);    // descending
  EXPECT_THROW(run({{0, 9}, {5, 12}}), contract_error);   // overlapping
  EXPECT_THROW(run({{9, 5}}), contract_error);            // inverted
  EXPECT_THROW(run({{0, a.nrows() + 1}}), contract_error);  // out of bounds
}

}  // namespace
}  // namespace kpm
