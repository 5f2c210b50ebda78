// Tests for the extension features: GPU format-comparison models,
// distributed time propagation, stochastic error estimation, and Matrix
// Market I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/statistics.hpp"
#include "gpusim/formats.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "runtime/dist_propagator.hpp"
#include "sparse/matrix_market.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace kpm {
namespace {

sparse::CrsMatrix small_ti() {
  physics::TIParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 4;
  return physics::build_ti_hamiltonian(p);
}

// ---------------------------------------------------------------- gpu formats
TEST(GpuFormats, Sell32BeatsScalarCrsForSpmv) {
  // The raison d'etre of SELL-C-sigma: coalesced matrix access for SpMV.
  const auto h = small_ti();
  auto h1 = memsim::make_k20m_hierarchy();
  const auto scalar = gpusim::trace_gpu_spmv_format(
      h, gpusim::GpuMatrixFormat::crs_scalar, h1);
  auto h2 = memsim::make_k20m_hierarchy();
  const auto sell = gpusim::trace_gpu_spmv_format(
      h, gpusim::GpuMatrixFormat::sell_warp, h2);
  // Coalescing cuts the transaction count for the matrix data sharply.
  EXPECT_LT(sell.load_transactions, scalar.load_transactions * 2 / 3);
  // Texture-side traffic also shrinks (32 B lines are fully used).
  EXPECT_LE(sell.tex_bytes, scalar.tex_bytes);
  EXPECT_DOUBLE_EQ(sell.flops, scalar.flops);
}

TEST(GpuFormats, BlockRowMappingBeatsSell32ForSpmmv) {
  // Paper Sec. IV-A: for SpMMV the CRS/SELL-1 block-row mapping wins —
  // the SELL-32-style row-per-lane mapping scatters the block vector reads.
  const auto h = small_ti();
  const int width = 32;
  auto h1 = memsim::make_k20m_hierarchy();
  const auto blockrow = gpusim::trace_gpu_spmmv_format(
      h, width, gpusim::GpuMatrixFormat::crs_scalar, h1);
  auto h2 = memsim::make_k20m_hierarchy();
  const auto rowlane = gpusim::trace_gpu_spmmv_format(
      h, width, gpusim::GpuMatrixFormat::sell_warp, h2);
  EXPECT_LT(blockrow.load_transactions, rowlane.load_transactions);
  EXPECT_DOUBLE_EQ(blockrow.flops, rowlane.flops);
}

TEST(GpuFormats, Names) {
  EXPECT_STREQ(gpusim::format_name(gpusim::GpuMatrixFormat::crs_scalar),
               "CRS(scalar)");
  EXPECT_STREQ(gpusim::format_name(gpusim::GpuMatrixFormat::sell_warp),
               "SELL-32");
}

// ------------------------------------------------------ distributed propagate
TEST(DistPropagator, MatchesSerialPropagator) {
  const auto h = small_ti();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const int width = 3;
  blas::BlockVector in(h.nrows(), width);
  RandomVectorSource rng(11);
  aligned_vector<complex_t> col(static_cast<std::size_t>(h.nrows()));
  for (int r = 0; r < width; ++r) {
    rng.fill(col);
    in.set_column(r, col);
  }
  core::PropagatorParams p;
  p.time = 1.5;
  blas::BlockVector serial(h.nrows(), width);
  core::propagate(h, s, p, in, serial);

  for (int nranks : {1, 2, 4}) {
    const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
    std::vector<complex_t> assembled(
        static_cast<std::size_t>(h.nrows()) * width);
    runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
      runtime::DistributedMatrix dist(c, h, part);
      const auto begin = part.begin(c.rank());
      blas::BlockVector local_in(dist.local_rows(), width);
      for (global_index i = 0; i < dist.local_rows(); ++i) {
        for (int r = 0; r < width; ++r) local_in(i, r) = in(begin + i, r);
      }
      blas::BlockVector local_out(dist.local_rows(), width);
      runtime::distributed_propagate(c, dist, s, p, local_in, local_out);
      for (global_index i = 0; i < dist.local_rows(); ++i) {
        for (int r = 0; r < width; ++r) {
          assembled[static_cast<std::size_t>(begin + i) * width +
                    static_cast<std::size_t>(r)] = local_out(i, r);
        }
      }
    });
    for (global_index i = 0; i < h.nrows(); ++i) {
      for (int r = 0; r < width; ++r) {
        EXPECT_NEAR(
            std::abs(serial(i, r) -
                     assembled[static_cast<std::size_t>(i) * width +
                               static_cast<std::size_t>(r)]),
            0.0, 1e-9)
            << "ranks=" << nranks;
      }
    }
  }
}

TEST(DistPropagator, PreservesNormAcrossRanks) {
  const auto h = small_ti();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto part = runtime::RowPartition::uniform(h.nrows(), 3);
  runtime::run_ranks(3, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix dist(c, h, part);
    blas::BlockVector in(dist.local_rows(), 1), out(dist.local_rows(), 1);
    // Globally normalized start vector (same stream on all ranks).
    RandomVectorSource rng(12);
    aligned_vector<complex_t> full(static_cast<std::size_t>(h.nrows()));
    rng.fill(full);
    const auto begin = part.begin(c.rank());
    for (global_index i = 0; i < dist.local_rows(); ++i) {
      in(i, 0) = full[static_cast<std::size_t>(begin + i)];
    }
    core::PropagatorParams p;
    p.time = 4.0;
    runtime::distributed_propagate(c, dist, s, p, in, out);
    std::vector<double> norm2 = {0.0};
    for (global_index i = 0; i < dist.local_rows(); ++i) {
      norm2[0] += std::norm(out(i, 0));
    }
    c.allreduce_sum(norm2);
    EXPECT_NEAR(norm2[0], 1.0, 1e-10);
  });
}

// ----------------------------------------------------------------- statistics
TEST(Statistics, ErrorShrinksWithMoreVectors) {
  const auto h = small_ti();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams p;
  p.num_moments = 32;
  auto worst_at = [&](int r) {
    p.num_random = r;
    const auto res = core::moments_aug_spmmv(h, s, p);
    return core::moment_statistics(res).worst_error();
  };
  const double e4 = worst_at(4);
  const double e64 = worst_at(64);
  // ~1/sqrt(R): a factor 16 in R gives ~4x smaller error; allow slack.
  EXPECT_LT(e64, e4 / 2.0);
  EXPECT_GT(e64, 0.0);
}

TEST(Statistics, Mu0HasZeroVariance) {
  const auto h = small_ti();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams p;
  p.num_moments = 16;
  p.num_random = 8;
  const auto stats = core::moment_statistics(core::moments_aug_spmmv(h, s, p));
  EXPECT_NEAR(stats.standard_error[0], 0.0, 1e-12);  // mu_0 = 1 exactly
  EXPECT_EQ(stats.num_random, 8);
}

TEST(Statistics, ErrorBandCoversExactDensityMostly) {
  const auto h = small_ti();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 64;
  mp.num_random = 16;
  const auto res_a = core::moments_aug_spmmv(h, s, mp);
  mp.seed = 999;  // independent second estimate
  const auto res_b = core::moments_aug_spmmv(h, s, mp);
  core::ReconstructParams rp;
  rp.num_points = 128;
  const auto band = core::reconstruct_with_errors(res_a, s, rp);
  const auto other = core::reconstruct_with_errors(res_b, s, rp);
  // Both estimate the same density independently, so their difference has
  // standard error sqrt(sigma_A^2 + sigma_B^2); its 4-sigma band must cover
  // the difference at almost all points.
  int covered = 0;
  for (std::size_t k = 0; k < band.mean.density.size(); ++k) {
    const double sigma_diff = std::hypot(band.sigma[k], other.sigma[k]);
    if (std::abs(band.mean.density[k] - other.mean.density[k]) <=
        4.0 * sigma_diff + 1e-9) {
      ++covered;
    }
  }
  EXPECT_GT(covered, static_cast<int>(0.9 * band.mean.density.size()));
}

TEST(Statistics, RequiresPerVectorColumns) {
  core::MomentsResult empty;
  empty.mu = {1.0};
  EXPECT_THROW(core::moment_statistics(empty), contract_error);
}

// -------------------------------------------------------------- matrix market
TEST(MatrixMarket, RoundTripPreservesMatrix) {
  const auto h = small_ti();
  std::stringstream buffer;
  sparse::write_matrix_market(buffer, h);
  const auto back = sparse::read_matrix_market(buffer);
  ASSERT_EQ(back.nrows(), h.nrows());
  ASSERT_EQ(back.nnz(), h.nnz());
  for (global_index i = 0; i < h.nrows(); i += 7) {
    const auto cols = h.row_cols(i);
    for (const auto c : cols) {
      EXPECT_NEAR(std::abs(back.at(i, c) - h.at(i, c)), 0.0, 1e-15);
    }
  }
}

TEST(MatrixMarket, ReadsHermitianLowerTriangle) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate complex hermitian\n"
      "% comment line\n"
      "2 2 2\n"
      "1 1 1.0 0.0\n"
      "2 1 0.5 -0.25\n");
  const auto a = sparse::read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 3);  // mirrored off-diagonal
  EXPECT_NEAR(std::abs(a.at(0, 1) - complex_t{0.5, 0.25}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(a.at(1, 0) - complex_t{0.5, -0.25}), 0.0, 1e-15);
}

TEST(MatrixMarket, ReadsRealGeneral) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 3 2\n"
      "1 3 2.5\n"
      "2 1 -1.0\n");
  const auto a = sparse::read_matrix_market(in);
  EXPECT_EQ(a.nrows(), 2);
  EXPECT_EQ(a.ncols(), 3);
  EXPECT_NEAR(a.at(0, 2).real(), 2.5, 1e-15);
  EXPECT_NEAR(a.at(1, 0).real(), -1.0, 1e-15);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  {
    std::stringstream in("not a matrix market file\n");
    EXPECT_THROW(sparse::read_matrix_market(in), sparse::matrix_market_error);
  }
  {
    std::stringstream in("%%MatrixMarket matrix array real general\n2 2\n");
    EXPECT_THROW(sparse::read_matrix_market(in), sparse::matrix_market_error);
  }
  {
    std::stringstream in(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
    EXPECT_THROW(sparse::read_matrix_market(in),
                 sparse::matrix_market_error);  // truncated
  }
  {
    std::stringstream in(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
    EXPECT_THROW(sparse::read_matrix_market(in),
                 sparse::matrix_market_error);  // index out of range
  }
}

}  // namespace
}  // namespace kpm
