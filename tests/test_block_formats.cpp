// Property tests of the block sparse format (DESIGN.md §5f): CRS <-> BSR
// round trips preserve stored values bitwise, the 16-bit delta index stream
// decodes exactly and falls back to 32-bit on overflow, and the
// mixed-precision (f32-value) matrix path stays within its documented error
// bound on the TI / graphene DOS.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "blas/block_vector.hpp"
#include "core/moments.hpp"
#include "core/reconstruct.hpp"
#include "physics/graphene.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "sparse/bsr.hpp"
#include "sparse/coo.hpp"
#include "sparse/crs.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/check.hpp"

namespace kpm {
namespace {

const sparse::CrsMatrix& ti_matrix() {
  static const sparse::CrsMatrix m = [] {
    physics::TIParams p;
    p.nx = 8;
    p.ny = 8;
    p.nz = 6;
    return physics::build_ti_hamiltonian(p);
  }();
  return m;
}

const sparse::CrsMatrix& graphene_matrix() {
  static const sparse::CrsMatrix m = [] {
    physics::GrapheneParams p;
    p.ncells_x = 24;
    p.ncells_y = 24;
    return physics::build_graphene_hamiltonian(p);
  }();
  return m;
}

bool same_crs_bitwise(const sparse::CrsMatrix& a, const sparse::CrsMatrix& b) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols() || a.nnz() != b.nnz()) {
    return false;
  }
  const auto arp = a.row_ptr(), brp = b.row_ptr();
  if (std::memcmp(arp.data(), brp.data(),
                  arp.size() * sizeof(global_index)) != 0) {
    return false;
  }
  const auto ac = a.col_idx(), bc = b.col_idx();
  if (std::memcmp(ac.data(), bc.data(), ac.size() * sizeof(local_index)) !=
      0) {
    return false;
  }
  const auto av = a.values(), bv = b.values();
  return std::memcmp(av.data(), bv.data(), av.size() * sizeof(complex_t)) == 0;
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

struct SweepOutput {
  blas::BlockVector w;
  std::vector<complex_t> dvv;
  std::vector<complex_t> dwv;
};

template <typename Matrix>
SweepOutput run_sweep(const Matrix& a, int width) {
  SweepOutput out{block(a.nrows(), width, 0.5), std::vector<complex_t>(width),
                  std::vector<complex_t>(width)};
  const auto v = block(a.ncols(), width, 0.0);
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  sparse::aug_spmmv(a, rec, v, out.w, out.dvv, out.dwv);
  return out;
}

// --- round trips ------------------------------------------------------------

TEST(BlockFormats, CrsBsrCrsRoundTripBitwise) {
  for (const int b : {2, 4}) {
    const sparse::BsrMatrix bsr(ti_matrix(), b);
    EXPECT_EQ(bsr.nnz(), ti_matrix().nnz()) << "b=" << b;
    EXPECT_TRUE(same_crs_bitwise(bsr.to_crs(), ti_matrix())) << "b=" << b;
  }
  const sparse::BsrMatrix g2(graphene_matrix(), 2);
  EXPECT_TRUE(same_crs_bitwise(g2.to_crs(), graphene_matrix()));
}

TEST(BlockFormats, TiBlockAssemblerMatchesCrsBuild) {
  physics::TIParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 6;
  const auto direct = physics::build_ti_hamiltonian_bsr(p);
  EXPECT_EQ(direct.block_dim(), 4);
  EXPECT_EQ(direct.nnz(), ti_matrix().nnz());
  EXPECT_TRUE(same_crs_bitwise(direct.to_crs(), ti_matrix()));
}

// --- index compression ------------------------------------------------------

TEST(BlockFormats, TiMatrixUses16BitDeltaIndices) {
  const sparse::BsrMatrix bsr(ti_matrix(), 4);
  EXPECT_EQ(bsr.index_bits(), 16);
  EXPECT_EQ(bsr.col_delta16().size(),
            static_cast<std::size_t>(bsr.num_blocks()));
}

TEST(BlockFormats, DeltaOverflowFallsBackTo32Bit) {
  // One row gap of 66000 - 1 > 65535 block columns forces the fallback.
  const global_index far_block = 66000;
  const global_index ncols = 4 * (far_block + 1);
  sparse::CooMatrix coo(8, ncols);
  for (global_index i = 0; i < 8; ++i) {
    coo.add(i, i % 4, complex_t{1.0 + static_cast<double>(i), 0.5});
    coo.add(i, 4 * far_block + (i % 4), complex_t{-2.0, 0.125});
  }
  coo.compress();
  const sparse::CrsMatrix crs(coo);
  const sparse::BsrMatrix bsr(crs, 4);
  EXPECT_EQ(bsr.index_bits(), 32);
  EXPECT_TRUE(bsr.col_delta16().empty());
  EXPECT_TRUE(same_crs_bitwise(bsr.to_crs(), crs));
  // The kernel must agree with CRS on the 32-bit path too.
  const auto a = run_sweep(crs, 4);
  const auto b = run_sweep(bsr, 4);
  for (global_index i = 0; i < crs.nrows(); ++i) {
    for (int r = 0; r < 4; ++r) {
      EXPECT_NEAR(std::abs(a.w(i, r) - b.w(i, r)), 0.0, 1e-13);
    }
  }
  // A nearby matrix without the oversized gap keeps the 16-bit stream.
  sparse::CooMatrix near(8, ncols);
  for (global_index i = 0; i < 8; ++i) near.add(i, i, complex_t{1.0, 0.0});
  near.compress();
  EXPECT_EQ(sparse::BsrMatrix(sparse::CrsMatrix(near), 4).index_bits(), 16);
}

// --- kernel parity across formats -------------------------------------------

TEST(BlockFormats, BsrKernelMatchesCrs) {
  for (const int b : {2, 4}) {
    const sparse::BsrMatrix bsr(ti_matrix(), b);
    for (const int width : {1, 3, 8, 32}) {
      const auto ref = run_sweep(ti_matrix(), width);
      const auto got = run_sweep(bsr, width);
      double max_err = 0.0;
      for (global_index i = 0; i < ti_matrix().nrows(); ++i) {
        for (int r = 0; r < width; ++r) {
          max_err = std::max(max_err, std::abs(ref.w(i, r) - got.w(i, r)));
        }
      }
      EXPECT_LT(max_err, 1e-12) << "b=" << b << " width=" << width;
      for (int r = 0; r < width; ++r) {
        EXPECT_NEAR(std::abs(ref.dvv[r] - got.dvv[r]), 0.0, 1e-10);
        EXPECT_NEAR(std::abs(ref.dwv[r] - got.dwv[r]), 0.0, 1e-10);
      }
    }
  }
}

/// The one-run list [begin, end): a partial sweep over one row interval.
std::array<IndexRange<global_index>, 1> one_run(global_index begin,
                                                global_index end) {
  return {{{begin, end}}};
}

TEST(BlockFormats, BsrRowsAndRunsComposeToFullSweep) {
  const sparse::BsrMatrix bsr(ti_matrix(), 4);
  const int width = 8;
  const auto full = run_sweep(bsr, width);

  const auto v = block(bsr.ncols(), width, 0.0);
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  // Block-aligned split as two one-run calls.
  SweepOutput split{block(bsr.nrows(), width, 0.5),
                    std::vector<complex_t>(width),
                    std::vector<complex_t>(width)};
  const global_index cut = (bsr.nrows() / 2 / 4) * 4;
  sparse::aug_spmmv_runs(bsr, rec, v, split.w, one_run(0, cut), split.dvv,
                         split.dwv);
  sparse::aug_spmmv_runs(bsr, rec, v, split.w, one_run(cut, bsr.nrows()),
                         split.dvv, split.dwv);
  EXPECT_EQ(std::memcmp(full.w.data(), split.w.data(),
                        full.w.size() * sizeof(complex_t)),
            0);
  // Same split as a run list.
  SweepOutput runs_out{block(bsr.nrows(), width, 0.5),
                       std::vector<complex_t>(width),
                       std::vector<complex_t>(width)};
  const IndexRange<global_index> runs[] = {{0, cut}, {cut, bsr.nrows()}};
  sparse::aug_spmmv_runs(bsr, rec, v, runs_out.w, runs, runs_out.dvv,
                         runs_out.dwv);
  for (int r = 0; r < width; ++r) {
    EXPECT_NEAR(std::abs(full.dvv[r] - split.dvv[r]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(full.dvv[r] - runs_out.dvv[r]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(full.dwv[r] - runs_out.dwv[r]), 0.0, 1e-12);
  }
  // Bounds are scalar rows since the stencil refactor: a mid-block split
  // composes to the same bits as the aligned one (the kernel re-derives
  // (block row, intra-block row) per scalar row).
  SweepOutput mid{block(bsr.nrows(), width, 0.5),
                  std::vector<complex_t>(width), std::vector<complex_t>(width)};
  sparse::aug_spmmv_runs(bsr, rec, v, mid.w, one_run(0, cut + 2), mid.dvv,
                         mid.dwv);
  sparse::aug_spmmv_runs(bsr, rec, v, mid.w, one_run(cut + 2, bsr.nrows()),
                         mid.dvv, mid.dwv);
  EXPECT_EQ(std::memcmp(full.w.data(), mid.w.data(),
                        full.w.size() * sizeof(complex_t)),
            0);
}

TEST(BlockFormats, RectangularHaloShapedBsr) {
  // A distributed partition owns nrows rows but reads a halo-extended input
  // of ncols entries; BSR must accept that shape when both are block
  // multiples.
  sparse::CooMatrix coo(8, 16);
  for (global_index i = 0; i < 8; ++i) {
    coo.add(i, i, complex_t{2.0, 0.0});
    coo.add(i, 8 + (i + 3) % 8, complex_t{0.5, -0.25});
  }
  coo.compress();
  const sparse::CrsMatrix crs(coo);
  const sparse::BsrMatrix bsr(crs, 4);
  EXPECT_EQ(bsr.nrows(), 8);
  EXPECT_EQ(bsr.ncols(), 16);
  const auto ref = run_sweep(crs, 4);
  const auto got = run_sweep(bsr, 4);
  for (global_index i = 0; i < crs.nrows(); ++i) {
    for (int r = 0; r < 4; ++r) {
      EXPECT_NEAR(std::abs(ref.w(i, r) - got.w(i, r)), 0.0, 1e-13);
    }
  }
}

// --- block-structure stats --------------------------------------------------

TEST(BlockFormats, BlockFillStatsMatchFormatFill) {
  const auto stats = sparse::analyze(ti_matrix());
  const sparse::BsrMatrix b4(ti_matrix(), 4);
  const sparse::BsrMatrix b2(ti_matrix(), 2);
  EXPECT_NEAR(stats.block_fill4, b4.fill_ratio(), 1e-12);
  EXPECT_NEAR(stats.block_fill2, b2.fill_ratio(), 1e-12);
  // TI gamma blocks are roughly half dense: the onsite block is diagonal,
  // hopping blocks carry 8 of 16 entries.
  EXPECT_GT(stats.block_fill4, 0.4);
  EXPECT_LT(stats.block_fill4, 0.6);
  EXPECT_GT(stats.block_fill4, stats.block_fill8);
}

// --- mixed precision --------------------------------------------------------

TEST(BlockFormats, MixedPrecisionMomentsErrorBound) {
  const auto& h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 64;
  mp.num_random = 4;

  const auto ref = core::moments_aug_spmmv(h, s, mp);
  const sparse::BsrMatrix b32(h, 4, sparse::MatrixPrecision::f32);
  EXPECT_EQ(b32.precision(), sparse::MatrixPrecision::f32);
  EXPECT_TRUE(b32.values().empty());
  const auto mixed = core::moments_aug_spmmv(b32, s, mp);

  ASSERT_EQ(ref.mu.size(), mixed.mu.size());
  // Documented bound (DESIGN §5f): relative moment error < 1e-5 (mu_0 = 1
  // sets the scale; |mu_m| <= 1).
  for (std::size_t m = 0; m < ref.mu.size(); ++m) {
    EXPECT_LT(std::abs(ref.mu[m] - mixed.mu[m]), 1e-5) << "moment " << m;
  }
  // And on the reconstructed DOS, relative to its peak.
  core::ReconstructParams rp;
  rp.num_points = 256;
  const auto d_ref = core::reconstruct_density(ref.mu, s, rp);
  const auto d_mix = core::reconstruct_density(mixed.mu, s, rp);
  double peak = 0.0, max_err = 0.0;
  for (std::size_t i = 0; i < d_ref.density.size(); ++i) {
    peak = std::max(peak, std::abs(d_ref.density[i]));
    max_err = std::max(max_err,
                       std::abs(d_ref.density[i] - d_mix.density[i]));
  }
  EXPECT_LT(max_err, 1e-5 * peak);
}

TEST(BlockFormats, MixedPrecisionGrapheneDos) {
  const auto& h = graphene_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 64;
  mp.num_random = 2;
  const auto ref = core::moments_aug_spmmv(h, s, mp);
  const auto mixed = core::moments_aug_spmmv(
      sparse::BsrMatrix(h, 2, sparse::MatrixPrecision::f32), s, mp);
  for (std::size_t m = 0; m < ref.mu.size(); ++m) {
    EXPECT_LT(std::abs(ref.mu[m] - mixed.mu[m]), 1e-5) << "moment " << m;
  }
}

// --- storage accounting -----------------------------------------------------

TEST(BlockFormats, StorageBytesOrdering) {
  const sparse::BsrMatrix f64(ti_matrix(), 4);
  const sparse::BsrMatrix f32(ti_matrix(), 4, sparse::MatrixPrecision::f32);
  // Half-dense blocks make f64 BSR *larger* than scalar CRS — the honest
  // outcome the block-fill stat records; f32 + u16 indices must undercut
  // CRS (that is the whole point of the mixed-precision path).
  EXPECT_GT(f64.storage_bytes(), ti_matrix().storage_bytes());
  EXPECT_LT(f32.storage_bytes(), ti_matrix().storage_bytes());
  EXPECT_NEAR(f32.storage_bytes() + 8.0 * f64.stored_values(),
              f64.storage_bytes(), 1.0);
}

}  // namespace
}  // namespace kpm
