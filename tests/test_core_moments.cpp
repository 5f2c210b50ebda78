// Tests for the moment computation: the three optimization stages must
// produce identical moment sequences; moments must match the exact
// tr[T_m(H~)]/N computed from dense eigenvalues.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/moments.hpp"
#include "core/sweep_session.hpp"
#include "physics/anderson.hpp"
#include "physics/dense_eigen.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "sparse/sell.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace kpm::core {
namespace {

sparse::CrsMatrix small_ti() {
  physics::TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 3;
  return physics::build_ti_hamiltonian(p);
}

physics::Scaling scaling_for(const sparse::CrsMatrix& h) {
  return physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
}

TEST(Moments, StagesProduceIdenticalMoments) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  MomentParams p;
  p.num_moments = 64;
  p.num_random = 4;
  p.seed = 11;
  const auto naive = moments_naive(h, s, p);
  const auto stage1 = moments_aug_spmv(h, s, p);
  const auto stage2 = moments_aug_spmmv(h, s, p);
  ASSERT_EQ(naive.mu.size(), 64u);
  ASSERT_EQ(stage1.mu.size(), 64u);
  ASSERT_EQ(stage2.mu.size(), 64u);
  for (std::size_t m = 0; m < naive.mu.size(); ++m) {
    EXPECT_NEAR(naive.mu[m], stage1.mu[m], 1e-10) << "m=" << m;
    EXPECT_NEAR(naive.mu[m], stage2.mu[m], 1e-10) << "m=" << m;
  }
}

TEST(Moments, SellStagesMatchCrsStages) {
  const auto h = small_ti();
  const sparse::SellMatrix sell(h, 8, 32);
  const auto s = scaling_for(h);
  MomentParams p;
  p.num_moments = 48;
  p.num_random = 3;
  p.seed = 21;
  const auto crs1 = moments_aug_spmv(h, s, p);
  const auto sell1 = moments_aug_spmv(sell, s, p);
  const auto crs2 = moments_aug_spmmv(h, s, p);
  const auto sell2 = moments_aug_spmmv(sell, s, p);
  for (std::size_t m = 0; m < crs1.mu.size(); ++m) {
    EXPECT_NEAR(crs1.mu[m], sell1.mu[m], 1e-10) << "m=" << m;
    EXPECT_NEAR(crs2.mu[m], sell2.mu[m], 1e-10) << "m=" << m;
  }
}

TEST(Moments, FirstMomentsAreExact) {
  // mu_0 = 1 (normalized vectors) for every stage and every seed.
  const auto h = small_ti();
  const auto s = scaling_for(h);
  MomentParams p;
  p.num_moments = 8;
  p.num_random = 5;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    p.seed = seed;
    const auto res = moments_aug_spmmv(h, s, p);
    EXPECT_NEAR(res.mu[0], 1.0, 1e-12);
    for (const auto& col : res.per_vector) {
      EXPECT_NEAR(col[0], 1.0, 1e-12);
    }
  }
}

TEST(Moments, MatchExactChebyshevTraces) {
  // mu_m averaged over many random vectors converges to tr[T_m(H~)]/N; with
  // the full basis (R = N deterministic unit vectors) it is exact, so here
  // we check against the dense spectrum with a generous stochastic margin.
  physics::AndersonParams ap;
  ap.nx = 4;
  ap.ny = 4;
  ap.nz = 4;
  ap.disorder = 1.0;
  const auto h = physics::build_anderson_hamiltonian(ap);
  const auto s = scaling_for(h);
  const auto evals = physics::sparse_eigenvalues(h);

  MomentParams p;
  p.num_moments = 16;
  p.num_random = 64;
  p.seed = 31;
  const auto res = moments_aug_spmmv(h, s, p);

  for (int m = 0; m < p.num_moments; ++m) {
    double exact = 0.0;
    for (const double e : evals) {
      exact += std::cos(m * std::acos(std::clamp(s.to_unit(e), -1.0, 1.0)));
    }
    exact /= static_cast<double>(evals.size());
    EXPECT_NEAR(res.mu[static_cast<std::size_t>(m)], exact, 0.05)
        << "m=" << m;
  }
}

TEST(Moments, SingleVectorMomentsMatchDefinition) {
  // For |v0> = |i> the moments are the diagonal elements <i|T_m(H~)|i>;
  // validate against the dense spectral decomposition... using the full
  // trace identity: sum_i <i|T_m|i> = sum_k T_m(lambda_k).
  physics::AndersonParams ap;
  ap.nx = 3;
  ap.ny = 3;
  ap.nz = 3;
  ap.disorder = 0.8;
  const auto h = physics::build_anderson_hamiltonian(ap);
  const auto s = scaling_for(h);
  const auto evals = physics::sparse_eigenvalues(h);
  const int num_m = 12;
  std::vector<double> sum_mu(static_cast<std::size_t>(num_m), 0.0);
  aligned_vector<complex_t> e_i(static_cast<std::size_t>(h.nrows()));
  for (global_index i = 0; i < h.nrows(); ++i) {
    std::fill(e_i.begin(), e_i.end(), complex_t{});
    e_i[static_cast<std::size_t>(i)] = {1.0, 0.0};
    const auto mu = moments_of_vector(h, s, e_i, num_m);
    for (int m = 0; m < num_m; ++m) sum_mu[static_cast<std::size_t>(m)] += mu[static_cast<std::size_t>(m)];
  }
  for (int m = 0; m < num_m; ++m) {
    double exact = 0.0;
    for (const double e : evals) {
      exact += std::cos(m * std::acos(std::clamp(s.to_unit(e), -1.0, 1.0)));
    }
    EXPECT_NEAR(sum_mu[static_cast<std::size_t>(m)], exact, 1e-7) << "m=" << m;
  }
}

TEST(Moments, BlockMomentsMatchSingleVectorMoments) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  const int width = 6;
  blas::BlockVector v0(h.nrows(), width);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (global_index i = 0; i < h.nrows(); ++i)
    for (int r = 0; r < width; ++r) v0(i, r) = {d(rng), d(rng)};
  const auto block_mu = moments_of_block(h, s, v0, 32);
  aligned_vector<complex_t> col(static_cast<std::size_t>(h.nrows()));
  for (int r = 0; r < width; ++r) {
    v0.extract_column(r, col);
    const auto single = moments_of_vector(h, s, col, 32);
    for (std::size_t m = 0; m < single.size(); ++m) {
      EXPECT_NEAR(block_mu[static_cast<std::size_t>(r)][m], single[m], 1e-9);
    }
  }
}

TEST(Moments, SessionFromMovedBlockMatchesSessionFromCopy) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  const int width = 5;
  blas::BlockVector v0(h.nrows(), width);
  RandomVectorSource(17).fill_block(v0.span(), width, 0, width);
  const blas::BlockVector keep = v0;

  SweepSession copied(h, s, v0, 40);  // lvalue: the session copies
  copied.advance_all();
  SweepSession moved(h, s, std::move(v0), 40);
  moved.advance_all();
  for (int r = 0; r < width; ++r) {
    const auto a = copied.mu(r);
    const auto b = moved.mu(r);
    ASSERT_EQ(std::vector<double>(a.begin(), a.end()),
              std::vector<double>(b.begin(), b.end()))
        << "lane " << r;
  }
  // The copying constructor left the caller's block intact.
  const auto after = moments_of_block(h, s, keep, 40);
  for (int r = 0; r < width; ++r) {
    const auto b = moved.mu(r);
    EXPECT_EQ(after[static_cast<std::size_t>(r)],
              std::vector<double>(b.begin(), b.end()));
  }
}

TEST(Moments, BlockedSolverStartsFromSuccessiveFillVectors) {
  // Lane r of the blocked solver starts from the r-th fill() of the seeded
  // stream: building the block column by column gives the same bits.
  const auto h = small_ti();
  const auto s = scaling_for(h);
  MomentParams p;
  p.num_moments = 32;
  p.num_random = 3;
  p.seed = 5;
  blas::BlockVector v0(h.nrows(), p.num_random);
  RandomVectorSource rng(p.seed, p.vector_kind);
  std::vector<complex_t> col(static_cast<std::size_t>(h.nrows()));
  for (int r = 0; r < p.num_random; ++r) {
    rng.fill(col);
    v0.set_column(r, col);
  }
  const auto solver = moments_aug_spmmv(h, s, p);
  EXPECT_EQ(solver.per_vector, moments_of_block(h, s, v0, p.num_moments));
}

TEST(Moments, OpCountersReflectAlgorithm) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  MomentParams p;
  p.num_moments = 32;  // => 1 startup + 15 recurrence steps per vector
  p.num_random = 4;
  const auto naive = moments_naive(h, s, p);
  const auto stage1 = moments_aug_spmv(h, s, p);
  const auto stage2 = moments_aug_spmmv(h, s, p);
  // Every stage applies the operator the same number of times...
  EXPECT_EQ(naive.ops.spmv_equivalents, 4 * 16);
  EXPECT_EQ(stage1.ops.spmv_equivalents, 4 * 16);
  EXPECT_EQ(stage2.ops.spmv_equivalents, 4 * 16);
  // ...but the blocked stage streams the matrix R times less often.
  EXPECT_EQ(naive.ops.matrix_streams, 4 * 16);
  EXPECT_EQ(stage1.ops.matrix_streams, 4 * 16);
  EXPECT_EQ(stage2.ops.matrix_streams, 16);
  // Reductions: naive has 2 per step, stage 1 one per vector, stage 2 one.
  EXPECT_EQ(naive.ops.global_reductions, 4 * 32);
  EXPECT_EQ(stage1.ops.global_reductions, 4);
  EXPECT_EQ(stage2.ops.global_reductions, 1);
}

TEST(Moments, PerIterationReductionModeCountsPerStep) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  MomentParams p;
  p.num_moments = 32;
  p.num_random = 4;
  p.reduction = ReductionMode::per_iteration;
  const auto res = moments_aug_spmmv(h, s, p);
  EXPECT_EQ(res.ops.global_reductions, 16);  // one per Chebyshev step
}

TEST(Moments, InvalidParamsThrow) {
  const auto h = small_ti();
  const auto s = scaling_for(h);
  MomentParams p;
  p.num_moments = 7;  // odd
  EXPECT_THROW(moments_aug_spmmv(h, s, p), contract_error);
  p.num_moments = 0;
  EXPECT_THROW(moments_naive(h, s, p), contract_error);
  p.num_moments = 16;
  p.num_random = 0;
  EXPECT_THROW(moments_aug_spmv(h, s, p), contract_error);
}

TEST(Moments, EvenMomentsOfChebyshevAreBounded) {
  // |mu_m| <= mu_0 = 1 for any Hermitian H~ with spectrum in [-1,1].
  const auto h = small_ti();
  const auto s = scaling_for(h);
  MomentParams p;
  p.num_moments = 128;
  p.num_random = 2;
  const auto res = moments_aug_spmmv(h, s, p);
  for (const double mu : res.mu) {
    EXPECT_LE(std::abs(mu), 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace kpm::core
