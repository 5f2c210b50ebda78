// Lane-width contract and determinism of the fused block kernels.
//
// Every block kernel runs one pass per row over all lanes of the block; the
// width only picks the compile-time (FixedWidth<N>) or runtime-width body,
// and both perform the same split-complex arithmetic per lane.  So lane r of
// a width-W sweep must be BITWISE equal to that lane swept alone at width 1
// — its w column and both of its dots — for every format, every width (in
// and out of the fixed-width table) and every sweep shape (full, row
// intervals, run lists), on the TI operators and on the same operators
// rotated to general complex entries (so a body that fused the other
// product of a complex multiply into its FMA would show up on every
// format).  The padded per-thread dot reductions merge
// partials in a fixed thread order, so repeated runs at a fixed thread
// count must agree exactly as well.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <array>
#include <complex>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "blas/block_vector.hpp"
#include "core/moments.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/stencil_models.hpp"
#include "physics/ti_model.hpp"
#include "sparse/bsr.hpp"
#include "sparse/crs.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/sell.hpp"
#include "sparse/stencil.hpp"
#include "util/check.hpp"

namespace kpm {
namespace {

physics::TIParams ti_params() {
  physics::TIParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 6;
  return p;
}

const sparse::CrsMatrix& matrix() {
  static const sparse::CrsMatrix m = physics::build_ti_hamiltonian(ti_params());
  return m;
}

const sparse::SellMatrix& sell_matrix() {
  static const sparse::SellMatrix m(matrix(), 8, 32);
  return m;
}

const sparse::BsrMatrix& bsr2_matrix() {
  static const sparse::BsrMatrix m(matrix(), 2);
  return m;
}

const sparse::BsrMatrix& bsr_matrix() {
  static const sparse::BsrMatrix m(matrix(), 4);
  return m;
}

const sparse::BsrMatrix& bsr_matrix_f32() {
  static const sparse::BsrMatrix m(matrix(), 4, sparse::MatrixPrecision::f32);
  return m;
}

/// TI stencil with an on-site potential, so the lanes run through the
/// streamed-diagonal interior path as well as the open-z boundary rows.
const sparse::StencilOperator& stencil_operator() {
  static const sparse::StencilOperator m = [] {
    auto p = ti_params();
    p.potential = [](const physics::Site& s) {
      return 0.3 * static_cast<double>((s.x + 2 * s.y + 3 * s.z) % 5) - 0.6;
    };
    return physics::make_ti_stencil(p);
  }();
  return m;
}

// The same operators rotated by a fixed phase e^{i theta}.  Every TI entry
// is purely real or purely imaginary, so one of the two products of each
// complex multiply is exactly zero and a kernel contracting the other
// product into its FMA still gives the same bits; rotated entries are
// general complex numbers, whose lanes see which product is fused.
const complex_t kRotation = std::polar(1.0, 0.7);

const sparse::CrsMatrix& rotated_matrix() {
  static const sparse::CrsMatrix m = [] {
    const sparse::CrsMatrix& a = matrix();
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    aligned_vector<complex_t> val(a.values().begin(), a.values().end());
    for (auto& z : val) z *= kRotation;
    return sparse::CrsMatrix(a.nrows(), a.ncols(),
                             aligned_vector<global_index>(rp.begin(), rp.end()),
                             aligned_vector<local_index>(ci.begin(), ci.end()),
                             std::move(val));
  }();
  return m;
}

const sparse::BsrMatrix& rotated_bsr_matrix() {
  static const sparse::BsrMatrix m(rotated_matrix(), 4);
  return m;
}

const sparse::BsrMatrix& rotated_bsr_matrix_f32() {
  static const sparse::BsrMatrix m(rotated_matrix(), 4,
                                   sparse::MatrixPrecision::f32);
  return m;
}

/// The TI stencil with rotated coefficient blocks (the real on-site
/// potential still merges into the rotated on-site block), over the TI
/// lattice: periodic in x and y, open in z, so the open-z rows take the
/// boundary walk.
const sparse::StencilOperator& rotated_stencil_operator() {
  static const sparse::StencilOperator m = [] {
    const sparse::StencilOperator& a = stencil_operator();
    std::vector<sparse::StencilOperator::Term> terms(a.terms().begin(),
                                                     a.terms().end());
    for (auto& t : terms) {
      for (auto& z : t.coeff) z *= kRotation;
    }
    const auto p = ti_params();
    auto neighbor = [p](global_index s, std::size_t term) -> global_index {
      static constexpr int axis[7] = {2, 1, 0, -1, 0, 1, 2};
      static constexpr int dir[7] = {-1, -1, -1, 0, +1, +1, +1};
      if (axis[term] < 0) return s;
      int c[3] = {static_cast<int>(s % p.nx),
                  static_cast<int>((s / p.nx) % p.ny),
                  static_cast<int>(s / (static_cast<global_index>(p.nx) * p.ny))};
      const int ext[3] = {p.nx, p.ny, p.nz};
      int& v = c[axis[term]];
      v += dir[term];
      if (v < 0 || v >= ext[axis[term]]) {
        if (axis[term] == 2) return -1;  // open z
        v = (v + ext[axis[term]]) % ext[axis[term]];
      }
      return c[0] + static_cast<global_index>(p.nx) *
                        (c[1] + static_cast<global_index>(p.ny) * c[2]);
    };
    return sparse::StencilOperator(
        "ti-rotated", a.block_dim(), a.nrows() / a.block_dim(),
        std::move(terms), std::vector<double>(a.diag().begin(), a.diag().end()),
        neighbor);
  }();
  return m;
}

/// Entry (i, lane) of a test block: a function of the row and the lane's
/// *identity*, not of the block width, so a lane has the same input whether
/// it is swept inside a wide block or alone.
complex_t entry(global_index i, int lane, double shift) {
  return {1.0 / (1.0 + static_cast<double>(i) + shift * lane),
          0.25 - 0.001 * lane};
}

blas::BlockVector block(global_index n, int width, double shift) {
  blas::BlockVector b(n, width);
  for (global_index i = 0; i < n; ++i) {
    for (int r = 0; r < width; ++r) b(i, r) = entry(i, r, shift);
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

bool bitwise_equal(complex_t a, complex_t b) {
  return std::memcmp(&a, &b, sizeof(complex_t)) == 0;
}

/// The one-run list [begin, end): a partial sweep over one row interval.
std::array<IndexRange<global_index>, 1> one_run(global_index begin,
                                                global_index end) {
  return {{{begin, end}}};
}

// ---------------------------------------------------------------------------
// The lane-width contract.

enum class Shape { full, rows, runs };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::full: return "full";
    case Shape::rows: return "rows";
    case Shape::runs: return "runs";
  }
  return "?";
}

/// Complementary 17-row stripes (uneven tail included): the interleaved
/// interior/boundary shape of the overlapped halo exchange.
std::vector<std::vector<IndexRange<global_index>>> stripes(global_index n) {
  std::vector<std::vector<IndexRange<global_index>>> lists(2);
  for (global_index b = 0, k = 0; b < n; b += 17, ++k) {
    lists[static_cast<std::size_t>(k % 2)].push_back(
        {b, std::min<global_index>(b + 17, n)});
  }
  return lists;
}

/// Formats with an aug_spmmv_runs overload (the SELL layouts sweep whole
/// chunks and have none).
template <class Matrix>
concept HasRowKernels =
    requires(const Matrix& a, const blas::BlockVector& v, blas::BlockVector& w,
             std::span<const IndexRange<global_index>> runs,
             std::span<complex_t> d) {
      sparse::aug_spmmv_runs(a, sparse::AugScalars{}, v, w, runs, d, d);
    };

/// One sweep w <- aug(A) v of the given shape: `rows` is three one-run
/// calls over consecutive row intervals, `runs` two calls over interleaved
/// stripes.  The partial shapes zero the dots first and accumulate across
/// their calls, as the distributed solvers do.
template <class Matrix>
void sweep(const Matrix& a, Shape shape, const blas::BlockVector& v,
           blas::BlockVector& w, std::span<complex_t> dvv,
           std::span<complex_t> dwv) {
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  if (shape == Shape::full) {
    sparse::aug_spmmv(a, rec, v, w, dvv, dwv);
    return;
  }
  if constexpr (HasRowKernels<Matrix>) {
    std::fill(dvv.begin(), dvv.end(), complex_t{});
    std::fill(dwv.begin(), dwv.end(), complex_t{});
    const global_index n = a.nrows();
    if (shape == Shape::rows) {
      const global_index cut1 = n / 3, cut2 = 2 * n / 3;
      sparse::aug_spmmv_runs(a, rec, v, w, one_run(0, cut1), dvv, dwv);
      sparse::aug_spmmv_runs(a, rec, v, w, one_run(cut1, cut2), dvv, dwv);
      sparse::aug_spmmv_runs(a, rec, v, w, one_run(cut2, n), dvv, dwv);
    } else {
      for (const auto& runs : stripes(n)) {
        sparse::aug_spmmv_runs(a, rec, v, w, runs, dvv, dwv);
      }
    }
  } else {
    FAIL() << "format has no row-interval kernels";
  }
}

struct Format {
  std::string name;
  bool row_kernels;
  global_index nrows;
  global_index ncols;
  std::function<void(Shape, const blas::BlockVector&, blas::BlockVector&,
                     std::span<complex_t>, std::span<complex_t>)>
      run;
};

template <class Matrix>
Format make_format(std::string name, const Matrix& a) {
  return {std::move(name), HasRowKernels<Matrix>, a.nrows(), a.ncols(),
          [&a](Shape shape, const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dvv, std::span<complex_t> dwv) {
            sweep(a, shape, v, w, dvv, dwv);
          }};
}

const std::vector<Format>& formats() {
  static const std::vector<Format> all{
      make_format("crs", matrix()),
      make_format("sell", sell_matrix()),
      make_format("bsr2", bsr2_matrix()),
      make_format("bsr4", bsr_matrix()),
      make_format("bsr4_f32", bsr_matrix_f32()),
      make_format("stencil", stencil_operator()),
      make_format("crs_rot", rotated_matrix()),
      make_format("bsr4_rot", rotated_bsr_matrix()),
      make_format("bsr4_f32_rot", rotated_bsr_matrix_f32()),
      make_format("stencil_rot", rotated_stencil_operator()),
  };
  return all;
}

struct LaneCase {
  std::size_t format;  ///< index into formats()
  int width;
  Shape shape;
};

std::string case_name(const LaneCase& c) {
  return formats()[c.format].name + "_w" + std::to_string(c.width) + "_" +
         shape_name(c.shape);
}

// Test ids print the parameter: by name, so they are stable across builds.
void PrintTo(const LaneCase& c, std::ostream* os) { *os << case_name(c); }

std::vector<LaneCase> lane_cases() {
  std::vector<LaneCase> out;
  for (std::size_t f = 0; f < formats().size(); ++f) {
    for (const int width : {1, 3, 4, 5, 8, 16, 17, 31, 32, 33, 64}) {
      for (const Shape shape : {Shape::full, Shape::rows, Shape::runs}) {
        if (shape != Shape::full && !formats()[f].row_kernels) continue;
        out.push_back({f, width, shape});
      }
    }
  }
  return out;
}

class LaneWidth : public ::testing::TestWithParam<LaneCase> {};

TEST_P(LaneWidth, EachLaneMatchesItsSoloSweepBitwise) {
  const LaneCase c = GetParam();
  const Format& fmt = formats()[c.format];
  const int width = c.width;
  const auto v = block(fmt.ncols, width, 0.0);
  auto w = block(fmt.nrows, width, 0.5);
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));
  fmt.run(c.shape, v, w, dvv, dwv);

  for (int lane = 0; lane < width; ++lane) {
    blas::BlockVector v1(fmt.ncols, 1), w1(fmt.nrows, 1);
    for (global_index i = 0; i < fmt.ncols; ++i) v1(i, 0) = entry(i, lane, 0.0);
    for (global_index i = 0; i < fmt.nrows; ++i) w1(i, 0) = entry(i, lane, 0.5);
    std::vector<complex_t> dvv1(1), dwv1(1);
    fmt.run(c.shape, v1, w1, dvv1, dwv1);

    bool column_equal = true;
    for (global_index i = 0; i < fmt.nrows && column_equal; ++i) {
      column_equal = bitwise_equal(w(i, lane), w1(i, 0));
    }
    const auto l = static_cast<std::size_t>(lane);
    EXPECT_TRUE(column_equal) << "w, lane " << lane;
    EXPECT_TRUE(bitwise_equal(dvv[l], dvv1[0])) << "<v|v>, lane " << lane;
    EXPECT_TRUE(bitwise_equal(dwv[l], dwv1[0])) << "<w|v>, lane " << lane;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, LaneWidth, ::testing::ValuesIn(lane_cases()),
    [](const ::testing::TestParamInfo<LaneCase>& info) {
      return case_name(info.param);
    });

// ---------------------------------------------------------------------------
// Edges of the wide CRS body (widths >= 8: register accumulators and the
// v-row prefetch kPrefetchAhead = 16 entries ahead, clamped to the pass's
// last entry).  A hand-built matrix puts every edge in reach: empty rows
// (first, inner, runs of them), rows shorter and longer than the prefetch
// distance, a short last row, and entries whose real or imaginary part is
// +0.0 or -0.0.  col_idx is allocated at exactly nnz entries, a multiple of
// 16 so the 64-byte allocation has no padding: a prefetch index read past
// the pass's last entry is a heap overflow under AddressSanitizer.  Each
// lane must equal its solo width-1 sweep bit for bit, for the full sweep
// and for run lists with gaps that end at and before the last row, at 1, 2
// and 3 threads, so the passes end at different rows.

sparse::CrsMatrix edge_matrix() {
  const global_index n = 61;
  std::vector<global_index> len(static_cast<std::size_t>(n));
  const int pattern[] = {0, 3, 17, 0, 0, 1, 16, 2, 31, 0, 5, 15};
  for (global_index i = 0; i < n; ++i) {
    len[static_cast<std::size_t>(i)] = pattern[i % 12];
  }
  len.back() = 3;  // the last pass ends inside the prefetch distance
  global_index nnz = 0;
  for (const global_index l : len) nnz += l;
  len[8] += (16 - nnz % 16) % 16;
  nnz += (16 - nnz % 16) % 16;

  aligned_vector<global_index> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  aligned_vector<local_index> col(static_cast<std::size_t>(nnz));
  aligned_vector<complex_t> val(static_cast<std::size_t>(nnz));
  const complex_t parts[] = {{0.0, 0.7},  {-0.0, -1.3}, {0.9, 0.0},
                             {-1.1, -0.0}, {-0.0, 0.0}, {0.6, -0.45},
                             {0.0, -0.0}, {-0.35, 1.7}};
  global_index k = 0;
  for (global_index i = 0; i < n; ++i) {
    for (global_index e = 0; e < len[static_cast<std::size_t>(i)]; ++e, ++k) {
      const auto ku = static_cast<std::size_t>(k);
      col[ku] = static_cast<local_index>((i * 7 + e * 13) % n);
      val[ku] = parts[ku % 8];
      if (ku % 3 == 0) val[ku] *= 1.0 + 0.01 * static_cast<double>(e);
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = k;
  }
  return sparse::CrsMatrix(n, n, std::move(row_ptr), std::move(col),
                           std::move(val));
}

/// Input entry with +-0.0 parts on some rows, a function of the lane's
/// identity only (as entry() above).
complex_t edge_entry(global_index i, int lane, double shift) {
  const double re = i % 5 == 0 ? -0.0 : 1.0 / (1.0 + i + shift + 0.1 * lane);
  const double im = i % 7 == 0 ? 0.0 : 0.25 - 0.001 * lane - shift;
  return {re, im};
}

struct WideCase {
  int width;
  int threads;
};

std::string wide_name(const WideCase& c) {
  return "w" + std::to_string(c.width) + "_t" + std::to_string(c.threads);
}

void PrintTo(const WideCase& c, std::ostream* os) { *os << wide_name(c); }

class WideBody : public ::testing::TestWithParam<WideCase> {};

TEST_P(WideBody, EdgeRowsMatchSoloSweepsBitwise) {
  const WideCase c = GetParam();
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(c.threads);
#endif
  static const sparse::CrsMatrix a = edge_matrix();
  const global_index n = a.nrows();
  const std::vector<std::vector<IndexRange<global_index>>> shapes{
      {{0, n}},                       // full range as one run
      {{0, 7}, {12, 30}, {33, n}},    // gaps, ends at the last row
      {{1, 2}, {9, 10}, {20, n - 4}}, // gaps, ends before the last rows
  };
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  const auto sweep_shape = [&](int shape, int width, int lane0,
                               blas::BlockVector& w, std::span<complex_t> dvv,
                               std::span<complex_t> dwv) {
    blas::BlockVector v(n, width);
    for (global_index i = 0; i < n; ++i) {
      for (int r = 0; r < width; ++r) {
        v(i, r) = edge_entry(i, lane0 + r, 0.0);
        w(i, r) = edge_entry(i, lane0 + r, 0.5);
      }
    }
    if (shape < 0) {
      sparse::aug_spmmv(a, rec, v, w, dvv, dwv);
      return;
    }
    std::fill(dvv.begin(), dvv.end(), complex_t{});
    std::fill(dwv.begin(), dwv.end(), complex_t{});
    sparse::aug_spmmv_runs(a, rec, v, w, shapes[static_cast<std::size_t>(shape)],
                           dvv, dwv);
  };
  for (int shape = -1; shape < static_cast<int>(shapes.size()); ++shape) {
    blas::BlockVector w(n, c.width);
    std::vector<complex_t> dvv(static_cast<std::size_t>(c.width));
    std::vector<complex_t> dwv(static_cast<std::size_t>(c.width));
    sweep_shape(shape, c.width, 0, w, dvv, dwv);
    for (int lane = 0; lane < c.width; ++lane) {
      blas::BlockVector w1(n, 1);
      std::vector<complex_t> dvv1(1), dwv1(1);
      sweep_shape(shape, 1, lane, w1, dvv1, dwv1);
      bool column_equal = true;
      for (global_index i = 0; i < n && column_equal; ++i) {
        column_equal = bitwise_equal(w(i, lane), w1(i, 0));
      }
      const auto l = static_cast<std::size_t>(lane);
      EXPECT_TRUE(column_equal) << "w, shape " << shape << ", lane " << lane;
      EXPECT_TRUE(bitwise_equal(dvv[l], dvv1[0]))
          << "<v|v>, shape " << shape << ", lane " << lane;
      EXPECT_TRUE(bitwise_equal(dwv[l], dwv1[0]))
          << "<w|v>, shape " << shape << ", lane " << lane;
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

std::vector<WideCase> wide_cases() {
  std::vector<WideCase> out;
  for (const int width : {8, 16, 32, 64}) {
    for (const int threads : {1, 2, 3}) out.push_back({width, threads});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    WideLanes, WideBody, ::testing::ValuesIn(wide_cases()),
    [](const ::testing::TestParamInfo<WideCase>& info) {
      return wide_name(info.param);
    });

// ---------------------------------------------------------------------------
// Determinism and composition.

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

TEST(KernelDispatch, BlockKernelsAreBitwiseDeterministic) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  const auto b1 = run_sweep(bsr_matrix(), 8);
  const auto b2 = run_sweep(bsr_matrix(), 8);
  EXPECT_TRUE(bitwise_equal(b1.w, b2.w));
  EXPECT_TRUE(bitwise_equal(b1.dvv, b2.dvv));
  EXPECT_TRUE(bitwise_equal(b1.dwv, b2.dwv));
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(KernelDispatch, RowIntervalKernelComposesToFullSweep) {
  const auto& a = matrix();
  const int width = 8;
  const auto full = run_sweep(a, width);
  // Same sweep split into three row intervals; dots accumulate across calls.
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

TEST(KernelDispatch, WorkClockCountsOnTheInnermostClockOnly) {
  const auto& a = matrix();
  const int width = 8;
  EXPECT_EQ(sparse::KernelWorkClock::current(), nullptr);
  const auto plain = run_sweep(a, width);
  const sparse::KernelWorkClock outer;
  EXPECT_EQ(sparse::KernelWorkClock::current(), &outer);
  {
    const sparse::KernelWorkClock inner;
    EXPECT_EQ(sparse::KernelWorkClock::current(), &inner);
    const auto timed = run_sweep(a, width);
    EXPECT_GT(inner.seconds(), 0.0);
    // Timing does not touch the arithmetic.
    EXPECT_TRUE(bitwise_equal(plain.w, timed.w));
    EXPECT_TRUE(bitwise_equal(plain.dvv, timed.dvv));
    EXPECT_TRUE(bitwise_equal(plain.dwv, timed.dwv));
  }
  EXPECT_EQ(sparse::KernelWorkClock::current(), &outer);
  EXPECT_EQ(outer.seconds(), 0.0);
  // A dot-free partial sweep counts too.
  auto w = block(a.nrows(), width, 0.5);
  sparse::aug_spmmv_runs(a, sparse::AugScalars::recurrence(0.3, 0.0),
                         block(a.ncols(), width, 0.0), w,
                         one_run(0, a.nrows() / 2), {}, {});
  EXPECT_GT(outer.seconds(), 0.0);
}

TEST(KernelDispatch, DotSpansMustNotAliasVectors) {
  const auto& a = matrix();
  const int width = 4;
  auto v = block(a.ncols(), width, 0.0);
  auto w = block(a.nrows(), width, 0.5);
  const auto rec = sparse::AugScalars::recurrence(0.3, 0.0);
  std::span<complex_t> alias_w(w.data(), static_cast<std::size_t>(width));
  std::vector<complex_t> ok(static_cast<std::size_t>(width));
  EXPECT_THROW(sparse::aug_spmmv(a, rec, v, w, alias_w, ok), contract_error);
}

TEST(KernelDispatch, RepeatedSweepsAreBitwiseDeterministic) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  // One fixed-width and one runtime-width body.
  for (const int width : {8, 7}) {
    const auto first = run_sweep(sell_matrix(), width);
    const auto second = run_sweep(sell_matrix(), width);
    EXPECT_TRUE(bitwise_equal(first.w, second.w));
    EXPECT_TRUE(bitwise_equal(first.dvv, second.dvv));
    EXPECT_TRUE(bitwise_equal(first.dwv, second.dwv));
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(KernelDispatch, MomentsAreBitwiseDeterministicAcrossRuns) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  const auto& h = matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 32;
  mp.num_random = 4;
  mp.reduction = core::ReductionMode::per_iteration;  // exercises kernel dots
  const auto a = core::moments_aug_spmmv(h, s, mp);
  const auto b = core::moments_aug_spmmv(h, s, mp);
  ASSERT_EQ(a.mu.size(), b.mu.size());
  for (std::size_t m = 0; m < a.mu.size(); ++m) {
    // Exactly equal, not just close: same schedule, same reduction order.
    EXPECT_EQ(a.mu[m], b.mu[m]) << "moment " << m;
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

}  // namespace
}  // namespace kpm
