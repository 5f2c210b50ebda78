// Parity suite for the matrix-free stencil operator (DESIGN.md §5h): for
// every stencil model the KPM moments must equal the assembled-CRS moments
// BIT FOR BIT — same block widths, same row-window splits — because the
// stencil kernels walk the identical scalar-row / ascending-column order and
// reuse the builders' exact coefficient arithmetic.  Anything weaker would
// fork the numerical identity of every downstream oracle (service cache
// keys, distributed parity, checkpoints).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "blas/block_vector.hpp"
#include "core/moments.hpp"
#include "physics/anderson.hpp"
#include "physics/graphene.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ssh_chain.hpp"
#include "physics/stencil_models.hpp"
#include "physics/ti_model.hpp"
#include "sparse/coo.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/matrix_stats.hpp"
#include "sparse/stencil.hpp"
#include "util/check.hpp"

namespace kpm {
namespace {

physics::TIParams ti_params() {
  physics::TIParams p;
  p.nx = 6;
  p.ny = 6;
  p.nz = 4;
  return p;
}

physics::Scaling scaling_for(const sparse::CrsMatrix& h) {
  return physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
}

void expect_bitwise(const core::MomentsResult& got,
                    const core::MomentsResult& want, const char* what) {
  ASSERT_EQ(got.mu.size(), want.mu.size()) << what;
  for (std::size_t m = 0; m < want.mu.size(); ++m) {
    EXPECT_EQ(got.mu[m], want.mu[m]) << what << " mu[" << m << "]";
  }
  ASSERT_EQ(got.per_vector.size(), want.per_vector.size()) << what;
  for (std::size_t r = 0; r < want.per_vector.size(); ++r) {
    ASSERT_EQ(got.per_vector[r].size(), want.per_vector[r].size()) << what;
    for (std::size_t m = 0; m < want.per_vector[r].size(); ++m) {
      EXPECT_EQ(got.per_vector[r][m], want.per_vector[r][m])
          << what << " lane " << r << " mu[" << m << "]";
    }
  }
}

void expect_moment_parity(const sparse::CrsMatrix& crs,
                          const sparse::StencilOperator& st,
                          const char* what) {
  ASSERT_EQ(st.nrows(), crs.nrows()) << what;
  ASSERT_EQ(st.nnz(), crs.nnz()) << what << " (zero-skip rule diverged)";
  const auto s = scaling_for(crs);
  for (const int width : {1, 4, 32}) {
    core::MomentParams mp;
    mp.num_moments = 16;
    mp.num_random = width;
    mp.seed = 1234 + static_cast<std::uint64_t>(width);
    const auto want = core::moments_aug_spmmv(crs, s, mp);
    const auto got = core::moments_aug_spmmv(st, s, mp);
    expect_bitwise(got, want, what);
  }
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

// --- moment parity, all models ---------------------------------------------

TEST(Stencil, TiMomentsBitwiseMatchAssembledCrs) {
  const auto p = ti_params();
  expect_moment_parity(physics::build_ti_hamiltonian(p),
                       physics::make_ti_stencil(p), "ti");
}

TEST(Stencil, TiWithPotentialStreamsDiagonal) {
  auto p = ti_params();
  p.potential = [](const physics::Site& s) {
    return 0.3 * static_cast<double>((s.x + 2 * s.y + 3 * s.z) % 5) - 0.6;
  };
  const auto st = physics::make_ti_stencil(p);
  EXPECT_TRUE(st.has_diag());
  expect_moment_parity(physics::build_ti_hamiltonian(p), st, "ti+potential");
}

TEST(Stencil, AndersonCleanAndDisorderedMomentsBitwiseMatch) {
  physics::AndersonParams p;
  p.nx = 6;
  p.ny = 6;
  p.nz = 4;
  p.disorder = 0.0;
  expect_moment_parity(physics::build_anderson_hamiltonian(p),
                       physics::make_anderson_stencil(p), "anderson clean");
  p.disorder = 2.5;
  p.seed = 987;
  const auto st = physics::make_anderson_stencil(p);
  // Disorder is the whole point of the diagonal stream: one f64 per row from
  // the same seeded RNG sequence as the assembler.
  EXPECT_TRUE(st.has_diag());
  expect_moment_parity(physics::build_anderson_hamiltonian(p), st,
                       "anderson disordered");
}

TEST(Stencil, GrapheneAndSshMomentsBitwiseMatch) {
  physics::GrapheneParams gp;
  gp.ncells_x = 8;
  gp.ncells_y = 8;
  expect_moment_parity(physics::build_graphene_hamiltonian(gp),
                       physics::make_graphene_stencil(gp), "graphene");
  physics::SshParams sp;
  sp.ncells = 32;
  expect_moment_parity(physics::build_ssh_hamiltonian(sp),
                       physics::make_ssh_stencil(sp), "ssh");
}

// --- kernel-layer properties ------------------------------------------------

/// The one-run list [begin, end): a partial sweep over one row interval.
std::array<IndexRange<global_index>, 1> one_run(global_index begin,
                                                global_index end) {
  return {{{begin, end}}};
}

TEST(Stencil, RowsAndRunsComposeToFullSweep) {
  const auto p = ti_params();
  const auto st = physics::make_ti_stencil(p);
  const int width = 8;
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  const auto v = block(st.ncols(), width, 0.0);

  blas::BlockVector w_full = block(st.nrows(), width, 0.5);
  std::vector<complex_t> dvv(width), dwv(width);
  sparse::aug_spmmv(st, rec, v, w_full, dvv, dwv);

  // Mid-site split: bounds are scalar rows, the kernel re-derives the
  // orbital phase per row, so any cut composes to the same bits.
  blas::BlockVector w_split = block(st.nrows(), width, 0.5);
  std::vector<complex_t> sdvv(width), sdwv(width);
  const global_index cut = st.nrows() / 2 + 2;
  sparse::aug_spmmv_runs(st, rec, v, w_split, one_run(0, cut), sdvv, sdwv);
  sparse::aug_spmmv_runs(st, rec, v, w_split, one_run(cut, st.nrows()), sdvv,
                         sdwv);
  EXPECT_EQ(std::memcmp(w_full.data(), w_split.data(),
                        static_cast<std::size_t>(st.nrows()) * width *
                            sizeof(complex_t)),
            0);

  // Same split as a run list (the overlapped-exchange sweep shape).
  blas::BlockVector w_runs = block(st.nrows(), width, 0.5);
  std::vector<complex_t> rdvv(width), rdwv(width);
  const IndexRange<global_index> runs[] = {{0, cut}, {cut, st.nrows()}};
  sparse::aug_spmmv_runs(st, rec, v, w_runs, runs, rdvv, rdwv);
  EXPECT_EQ(std::memcmp(w_full.data(), w_runs.data(),
                        static_cast<std::size_t>(st.nrows()) * width *
                            sizeof(complex_t)),
            0);
  for (int r = 0; r < width; ++r) {
    EXPECT_NEAR(std::abs(dvv[r] - sdvv[r]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(dvv[r] - rdvv[r]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(dwv[r] - rdwv[r]), 0.0, 1e-12);
  }
}

TEST(Stencil, LocalizedWindowMatchesGlobalRows) {
  const auto p = ti_params();
  const auto crs = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  const int width = 4;
  const auto rec = sparse::AugScalars::recurrence(0.3, -0.05);
  // A mid-site window, the worst case for the orbital phase.
  const global_index r0 = 4 * 13 + 2;
  const global_index r1 = st.nrows() - (4 * 7 + 1);
  // Halo layout: every referenced column outside the window, ascending —
  // the order DistributedMatrix::halo_global_cols() delivers.
  std::vector<global_index> halo;
  for (global_index i = r0; i < r1; ++i) {
    for (const auto c : crs.row_cols(i)) {
      const auto gc = static_cast<global_index>(c);
      if (gc < r0 || gc >= r1) halo.push_back(gc);
    }
  }
  std::sort(halo.begin(), halo.end());
  halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
  const auto local = st.localize(r0, r1, halo);
  ASSERT_EQ(local.nrows(), r1 - r0);
  ASSERT_EQ(local.ncols(),
            r1 - r0 + static_cast<global_index>(halo.size()));

  // The assembled local CRS with the identical column remap — the operator
  // DistributedMatrix::local() would hold for this window.  Its compress()
  // sorts each row by *local* column (owned window columns, then halo
  // slots), which is the order the localized stencil must reproduce.
  sparse::CooMatrix coo(r1 - r0,
                        r1 - r0 + static_cast<global_index>(halo.size()));
  for (global_index i = r0; i < r1; ++i) {
    const auto cols = crs.row_cols(i);
    const auto vals = crs.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto gc = static_cast<global_index>(cols[k]);
      const global_index lc =
          (gc >= r0 && gc < r1)
              ? gc - r0
              : r1 - r0 +
                    static_cast<global_index>(
                        std::lower_bound(halo.begin(), halo.end(), gc) -
                        halo.begin());
      coo.add(i - r0, lc, vals[k]);
    }
  }
  coo.compress();
  const sparse::CrsMatrix local_crs(coo);

  const auto v_global = block(st.ncols(), width, 0.0);
  blas::BlockVector w_global = block(st.nrows(), width, 0.5);
  sparse::aug_spmmv(st, rec, v_global, w_global, {}, {});

  blas::BlockVector v_local(local.ncols(), width);
  for (global_index i = 0; i < r1 - r0; ++i) {
    for (int r = 0; r < width; ++r) v_local(i, r) = v_global(r0 + i, r);
  }
  for (std::size_t k = 0; k < halo.size(); ++k) {
    for (int r = 0; r < width; ++r) {
      v_local(r1 - r0 + static_cast<global_index>(k), r) =
          v_global(halo[k], r);
    }
  }
  auto seed_w = [&] {
    blas::BlockVector w(local.nrows(), width);
    for (global_index i = 0; i < local.nrows(); ++i) {
      for (int r = 0; r < width; ++r) {
        w(i, r) = {1.0 / (1.0 + static_cast<double>(r0 + i) + 0.5 * r),
                   0.25 - 0.001 * r};
      }
    }
    return w;
  };
  blas::BlockVector w_local = seed_w();
  blas::BlockVector w_crs = seed_w();
  sparse::aug_spmmv(local, rec, v_local, w_local, {}, {});
  sparse::aug_spmmv(local_crs, rec, v_local, w_crs, {}, {});
  for (global_index i = 0; i < local.nrows(); ++i) {
    for (int r = 0; r < width; ++r) {
      // Bitwise against the local CRS (same stored-column order) ...
      EXPECT_EQ(w_local(i, r), w_crs(i, r))
          << "row " << r0 + i << " lane " << r;
      // ... and analytically against the global sweep: halo columns below
      // the window accumulate after owned ones locally, so only near.
      EXPECT_NEAR(std::abs(w_local(i, r) - w_global(r0 + i, r)), 0.0, 1e-12)
          << "row " << r0 + i << " lane " << r;
    }
  }
}

// --- construction contracts -------------------------------------------------

TEST(Stencil, DiagRequiresExplicitOnsiteTerm) {
  // Inserting the on-site term implicitly would shift every NeighborFn term
  // index the caller baked into its closure — the ctor refuses instead.
  std::vector<sparse::StencilOperator::Term> terms(1);
  terms[0].delta = 1;
  terms[0].mask = 0x1;
  terms[0].coeff[0] = {1.0, 0.0};
  const auto neighbor = [](global_index site, std::size_t) {
    return site + 1 < 8 ? site + 1 : -1;
  };
  EXPECT_THROW(sparse::StencilOperator("bad", 1, 8, terms,
                                       std::vector<double>(8, 0.5), neighbor),
               contract_error);
  EXPECT_NO_THROW(sparse::StencilOperator("ok", 1, 8, terms, {}, neighbor));
}

TEST(Stencil, TermsMustAscendByDelta) {
  std::vector<sparse::StencilOperator::Term> terms(2);
  terms[0].delta = 1;
  terms[0].mask = 0x1;
  terms[0].coeff[0] = {1.0, 0.0};
  terms[1].delta = -1;
  terms[1].mask = 0x1;
  terms[1].coeff[0] = {1.0, 0.0};
  const auto neighbor = [](global_index site, std::size_t t) {
    const global_index n = t == 0 ? site + 1 : site - 1;
    return n >= 0 && n < 8 ? n : -1;
  };
  EXPECT_THROW(sparse::StencilOperator("bad", 1, 8, terms, {}, neighbor),
               contract_error);
}

// --- storage + stats --------------------------------------------------------

TEST(Stencil, StoredBytesCollapseVersusAssembled) {
  // Interior rows store nothing; only the term table, the diagonal and the
  // open-z / periodic-wrap boundary lists remain, so stored bytes scale
  // with the lattice *surface* while assembled CRS scales with the volume.
  // The tiny parity lattice is boundary-dominated, so assert the ratio
  // instead of an absolute factor there, and check the collapse kicks in
  // once the interior dominates.
  auto ratio_for = [](int nx, int ny, int nz) {
    physics::TIParams p;
    p.nx = nx;
    p.ny = ny;
    p.nz = nz;
    const auto crs = physics::build_ti_hamiltonian(p);
    const auto st = physics::make_ti_stencil(p);
    EXPECT_EQ(st.nnz(), crs.nnz());
    return static_cast<double>(st.stored_bytes()) / crs.storage_bytes();
  };
  const double small = ratio_for(6, 6, 4);
  const double large = ratio_for(16, 16, 8);
  EXPECT_LT(small, 1.0);
  EXPECT_LT(large, 0.5);
  EXPECT_LT(large, small);
}

TEST(Stencil, GershgorinBoundsMatchAssembledCrs) {
  // The matrix-free Gershgorin walk (term-table discs + diagonal stream +
  // boundary lists) must agree with the assembled-CRS bound; only the
  // radius summation order differs, so compare to round-off.
  auto check = [](const sparse::CrsMatrix& crs,
                  const sparse::StencilOperator& st, const char* what) {
    const auto want = physics::gershgorin_bounds(crs);
    const auto got = physics::gershgorin_bounds(st);
    const double tol = 1e-12 * std::max(1.0, std::abs(want.upper));
    EXPECT_NEAR(got.lower, want.lower, tol) << what;
    EXPECT_NEAR(got.upper, want.upper, tol) << what;
  };
  const auto tp = ti_params();
  check(physics::build_ti_hamiltonian(tp), physics::make_ti_stencil(tp),
        "ti");
  physics::AndersonParams ap;
  ap.nx = 6;
  ap.ny = 6;
  ap.nz = 4;
  ap.disorder = 2.5;
  ap.seed = 987;
  check(physics::build_anderson_hamiltonian(ap),
        physics::make_anderson_stencil(ap), "anderson");
}

TEST(Stencil, ExpressibilityStatsSeparateConstantFromDisordered) {
  const auto ti = physics::build_ti_hamiltonian(ti_params());
  // Constant-coefficient on the 4x4 block grid: fully stencil-expressible.
  EXPECT_DOUBLE_EQ(sparse::stencil_expressibility(ti, 4), 1.0);
  physics::AndersonParams ap;
  ap.nx = 6;
  ap.ny = 6;
  ap.nz = 4;
  ap.disorder = 3.0;
  const auto anderson = physics::build_anderson_hamiltonian(ap);
  const double c1 = sparse::stencil_expressibility(anderson, 1);
  // The disordered diagonal (one unique value per row) is the only
  // non-constant class: deficit ~ (N - 1) / nnz.
  EXPECT_LT(c1, 1.0);
  EXPECT_GT(c1, 0.8);
  const auto stats = sparse::analyze(anderson);
  EXPECT_DOUBLE_EQ(stats.stencil_const1, c1);
  EXPECT_GT(stats.stencil_const4, 0.0);
}

TEST(Stencil, KindNamesTheModel) {
  const auto p = ti_params();
  EXPECT_EQ(physics::make_ti_stencil(p).kind(), "ti");
  physics::AndersonParams ap;
  ap.nx = 4;
  ap.ny = 4;
  ap.nz = 4;
  EXPECT_EQ(physics::make_anderson_stencil(ap).kind(), "anderson");
}

}  // namespace
}  // namespace kpm
