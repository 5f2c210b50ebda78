// Unit tests for src/physics: Dirac algebra, Hamiltonian builders, spectral
// bounds and the dense validation eigensolver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "physics/anderson.hpp"
#include "physics/dense_eigen.hpp"
#include "physics/dirac.hpp"
#include "physics/graphene.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "sparse/coo.hpp"
#include "sparse/matrix_stats.hpp"

namespace kpm::physics {
namespace {

TEST(Dirac, CliffordAlgebra) {
  // {Gamma_a, Gamma_b} = 2 delta_ab for a, b in {1..4}.
  for (int a = 1; a <= 4; ++a) {
    for (int b = 1; b <= 4; ++b) {
      const Mat4 anti = anticommutator(gamma(a), gamma(b));
      const Mat4 expected =
          a == b ? scale({2.0, 0.0}, identity4()) : zero4();
      EXPECT_TRUE(approx_equal(anti, expected)) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Dirac, GammasAreHermitian) {
  for (int a = 0; a <= 4; ++a) {
    EXPECT_TRUE(approx_equal(gamma(a), adjoint(gamma(a)))) << "a=" << a;
  }
}

TEST(Dirac, GammasSquareToIdentity) {
  for (int a = 1; a <= 4; ++a) {
    EXPECT_TRUE(approx_equal(multiply(gamma(a), gamma(a)), identity4()));
  }
}

TEST(Dirac, HoppingBlockStructure) {
  // T_j = -t (Gamma1 - i Gamma_{j+1})/2; check the j=1 block explicitly.
  const Mat4 t1 = hopping_block(1, 2.0);
  const Mat4 expected = scale(
      {-1.0, 0.0},
      add(gamma(1), scale({0.0, -1.0}, gamma(2))));
  EXPECT_TRUE(approx_equal(t1, expected));
}

TEST(Dirac, OnsiteBlockIsHermitian) {
  const Mat4 m = onsite_block(0.153, 1.0);
  EXPECT_TRUE(approx_equal(m, adjoint(m)));
}

TEST(TiModel, DimensionAndNnzPerRow) {
  TIParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 4;
  const auto h = build_ti_hamiltonian(p);
  EXPECT_EQ(h.nrows(), 4 * 8 * 8 * 4);
  // Paper: Nnz ~ 13 N (slightly below 13 with an open z boundary).
  EXPECT_GT(h.avg_nnz_per_row(), 11.5);
  EXPECT_LE(h.avg_nnz_per_row(), 13.0);
}

TEST(TiModel, FullyPeriodicHasExactly13PerRow) {
  TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 4;
  p.periodic_z = true;
  const auto h = build_ti_hamiltonian(p);
  EXPECT_DOUBLE_EQ(h.avg_nnz_per_row(), 13.0);
}

TEST(TiModel, HamiltonianIsHermitian) {
  TIParams p;
  p.nx = 5;
  p.ny = 4;
  p.nz = 3;
  p.potential = [](const Site& s) { return 0.05 * s.x - 0.02 * s.y; };
  const auto h = build_ti_hamiltonian(p);
  EXPECT_TRUE(sparse::analyze(h).hermitian);
}

TEST(TiModel, SpectrumMatchesBlochTheory) {
  TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 4;
  p.periodic_z = true;
  const auto h = build_ti_hamiltonian(p);
  const auto exact = exact_ti_spectrum_periodic(p);
  const auto dense = sparse_eigenvalues(h);
  ASSERT_EQ(exact.size(), dense.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(exact[i], dense[i], 1e-8) << "eigenvalue " << i;
  }
}

TEST(TiModel, PotentialShiftsDiagonal) {
  TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 3;
  const double v0 = 0.153;
  p.potential = [v0](const Site&) { return v0; };
  const auto h = build_ti_hamiltonian(p);
  TIParams p0 = p;
  p0.potential = nullptr;
  const auto h0 = build_ti_hamiltonian(p0);
  // H(V) = H(0) + V * Identity => diagonal differs by exactly V.
  for (global_index i = 0; i < h.nrows(); ++i) {
    EXPECT_NEAR((h.at(i, i) - h0.at(i, i)).real(), v0, 1e-14);
  }
}

TEST(TiModel, DotLatticePotentialGeometry) {
  DotLattice dots;
  dots.period = 10.0;
  dots.radius = 2.0;
  dots.depth = 0.5;
  dots.surface_depth = 1;
  EXPECT_DOUBLE_EQ(dots.potential({0, 0, 0}), 0.5);     // dot centre
  EXPECT_DOUBLE_EQ(dots.potential({10, 0, 0}), 0.5);    // next dot centre
  EXPECT_DOUBLE_EQ(dots.potential({1, 1, 0}), 0.5);     // inside radius
  EXPECT_DOUBLE_EQ(dots.potential({5, 5, 0}), 0.0);     // between dots
  EXPECT_DOUBLE_EQ(dots.potential({0, 0, 1}), 0.0);     // below the surface
}

TEST(TiModel, SiteIndexingIsBijective) {
  TIParams p;
  p.nx = 3;
  p.ny = 4;
  p.nz = 2;
  std::vector<bool> seen(static_cast<std::size_t>(p.dimension()), false);
  for (int z = 0; z < p.nz; ++z) {
    for (int y = 0; y < p.ny; ++y) {
      for (int x = 0; x < p.nx; ++x) {
        for (int orb = 0; orb < 4; ++orb) {
          const auto idx = site_index(p, {x, y, z}, orb);
          ASSERT_GE(idx, 0);
          ASSERT_LT(idx, p.dimension());
          EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
          seen[static_cast<std::size_t>(idx)] = true;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Direct CRS assembly against the COO reference it replaced.

/// The triplet assembler build_ti_hamiltonian used before direct assembly:
/// one COO triplet per block entry that does not compare equal to zero,
/// sorted, merged and copied into CRS.
sparse::CrsMatrix coo_reference(const TIParams& p) {
  const global_index dim = p.dimension();
  sparse::CooMatrix coo(dim, dim);
  const std::array<Mat4, 3> hop = {hopping_block(1, p.t), hopping_block(2, p.t),
                                   hopping_block(3, p.t)};
  auto add_block = [&](global_index row_base, global_index col_base,
                       const Mat4& block) {
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        if (block[a][b] != complex_t{}) {
          coo.add(row_base + a, col_base + b, block[a][b]);
        }
      }
    }
  };
  for (int z = 0; z < p.nz; ++z) {
    for (int y = 0; y < p.ny; ++y) {
      for (int x = 0; x < p.nx; ++x) {
        const Site s{x, y, z};
        const global_index base = site_index(p, s, 0);
        const double v = p.potential ? p.potential(s) : 0.0;
        add_block(base, base, onsite_block(v, p.t));
        const std::array<Site, 3> neighbor = {
            Site{x + 1, y, z}, Site{x, y + 1, z}, Site{x, y, z + 1}};
        const std::array<bool, 3> periodic = {p.periodic_x, p.periodic_y,
                                              p.periodic_z};
        const std::array<int, 3> extent = {p.nx, p.ny, p.nz};
        for (int j = 0; j < 3; ++j) {
          Site nb = neighbor[j];
          int& coord = j == 0 ? nb.x : (j == 1 ? nb.y : nb.z);
          if (coord >= extent[j]) {
            if (!periodic[j]) continue;
            coord = 0;
          }
          const global_index nb_base = site_index(p, nb, 0);
          add_block(nb_base, base, hop[j]);
          add_block(base, nb_base, adjoint(hop[j]));
        }
      }
    }
  }
  coo.compress();
  return sparse::CrsMatrix(coo);
}

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

enum class PotentialKind { none, dots, counter };

struct AssemblyCase {
  std::array<bool, 3> periodic;  ///< per axis x, y, z
  PotentialKind potential;
};

std::string case_name(const AssemblyCase& c) {
  std::string out;
  for (int j = 0; j < 3; ++j) {
    out += std::string(1, "xyz"[j]) + (c.periodic[j] ? "_periodic_" : "_open_");
  }
  switch (c.potential) {
    case PotentialKind::none: return out + "none";
    case PotentialKind::dots: return out + "dots";
    case PotentialKind::counter: return out + "counter";
  }
  return out;
}

// Test ids print the parameter: by name, so they are stable across builds.
void PrintTo(const AssemblyCase& c, std::ostream* os) { *os << case_name(c); }

std::vector<AssemblyCase> assembly_cases() {
  std::vector<AssemblyCase> out;
  for (int mask = 0; mask < 8; ++mask) {
    for (const auto kind : {PotentialKind::none, PotentialKind::dots,
                            PotentialKind::counter}) {
      out.push_back(
          {{(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0}, kind});
    }
  }
  return out;
}

/// Fresh parameters for one build.  The counter potential holds state: it
/// returns the next value of a fixed cycle on every call, including -0.0
/// and the +-2t that zero half of the on-site diagonal, and logs each site
/// it is called for in `calls`.
TIParams assembly_params(const AssemblyCase& c, std::array<int, 3> extent,
                         std::vector<Site>* calls) {
  TIParams p;
  p.nx = extent[0];
  p.ny = extent[1];
  p.nz = extent[2];
  p.periodic_x = c.periodic[0];
  p.periodic_y = c.periodic[1];
  p.periodic_z = c.periodic[2];
  if (c.potential == PotentialKind::dots) {
    DotLattice dots;
    dots.period = 3.0;
    dots.radius = 1.0;
    dots.surface_depth = 2;
    p.potential = [dots](const Site& s) { return dots.potential(s); };
  } else if (c.potential == PotentialKind::counter) {
    p.potential = [calls, k = 0](const Site& s) mutable {
      static constexpr std::array<double, 7> cycle = {0.25, -2.0, -0.0, 2.0,
                                                      -0.5, 0.0,  0.125};
      calls->push_back(s);
      return cycle[static_cast<std::size_t>(k++) % cycle.size()];
    };
  }
  return p;
}

class TiModel : public ::testing::TestWithParam<AssemblyCase> {};

TEST_P(TiModel, DirectAssemblyMatchesCooReference) {
  const AssemblyCase c = GetParam();
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  // A periodic axis needs more than two sites.
  auto extents = [&](int j) {
    return c.periodic[j] ? std::vector<int>{3, 4, 7}
                         : std::vector<int>{1, 3, 4, 7};
  };
  for (const int nx : extents(0)) {
    for (const int ny : extents(1)) {
      for (const int nz : extents(2)) {
        std::vector<Site> calls;
        const auto ref =
            coo_reference(assembly_params(c, {nx, ny, nz}, &calls));
        for (const int threads : {1, 2, 4}) {
          SCOPED_TRACE(::testing::Message() << nx << "x" << ny << "x" << nz
                                            << ", " << threads << " threads");
#ifdef _OPENMP
          omp_set_num_threads(threads);
#endif
          calls.clear();
          const auto h =
              build_ti_hamiltonian(assembly_params(c, {nx, ny, nz}, &calls));
          EXPECT_TRUE(same_bytes(h.row_ptr(), ref.row_ptr()));
          EXPECT_TRUE(same_bytes(h.col_idx(), ref.col_idx()));
          EXPECT_TRUE(same_bytes(h.values(), ref.values()));
          if (c.potential != PotentialKind::counter) continue;
          // Exactly once per site, in z-y-x order.
          ASSERT_EQ(calls.size(), static_cast<std::size_t>(nx * ny * nz));
          std::size_t i = 0;
          for (int z = 0; z < nz; ++z) {
            for (int y = 0; y < ny; ++y) {
              for (int x = 0; x < nx; ++x, ++i) {
                EXPECT_TRUE(calls[i].x == x && calls[i].y == y &&
                            calls[i].z == z)
                    << "call " << i;
              }
            }
          }
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Lattices, TiModel, ::testing::ValuesIn(assembly_cases()),
    [](const ::testing::TestParamInfo<AssemblyCase>& info) {
      return case_name(info.param);
    });

TEST(Anderson, CleanSpectrumMatchesBloch) {
  AndersonParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 4;
  const auto h = build_anderson_hamiltonian(p);
  const auto exact = exact_anderson_spectrum_clean(p);
  const auto dense = sparse_eigenvalues(h);
  ASSERT_EQ(exact.size(), dense.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(exact[i], dense[i], 1e-8);
  }
}

TEST(Anderson, DisorderIsHermitianAndBounded) {
  AndersonParams p;
  p.nx = 5;
  p.ny = 5;
  p.nz = 4;
  p.disorder = 2.0;
  p.periodic = false;
  const auto h = build_anderson_hamiltonian(p);
  EXPECT_TRUE(sparse::analyze(h).hermitian);
  for (global_index i = 0; i < h.nrows(); ++i) {
    EXPECT_LE(std::abs(h.at(i, i).real()), 1.0);  // |eps| <= W/2
  }
}

TEST(Anderson, SevenPointStencilPeriodic) {
  AndersonParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 4;
  p.disorder = 1.0;
  const auto h = build_anderson_hamiltonian(p);
  EXPECT_DOUBLE_EQ(h.avg_nnz_per_row(), 7.0);
}

TEST(Graphene, CleanSpectrumMatchesBloch) {
  GrapheneParams p;
  p.ncells_x = 4;
  p.ncells_y = 4;
  const auto h = build_graphene_hamiltonian(p);
  const auto exact = exact_graphene_spectrum_clean(p);
  const auto dense = sparse_eigenvalues(h);
  ASSERT_EQ(exact.size(), dense.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(exact[i], dense[i], 1e-8);
  }
}

TEST(Graphene, ThreeNeighborsPerSitePeriodic) {
  GrapheneParams p;
  p.ncells_x = 6;
  p.ncells_y = 6;
  const auto h = build_graphene_hamiltonian(p);
  EXPECT_DOUBLE_EQ(h.avg_nnz_per_row(), 3.0);
  EXPECT_TRUE(sparse::analyze(h).hermitian);
}

TEST(DenseEigen, DiagonalMatrix) {
  std::vector<complex_t> a = {
      {3.0, 0.0}, {0.0, 0.0}, {0.0, 0.0},
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 0.0},
      {0.0, 0.0}, {0.0, 0.0}, {2.0, 0.0}};
  const auto e = eigenvalues_hermitian(a, 3);
  EXPECT_NEAR(e[0], 1.0, 1e-12);
  EXPECT_NEAR(e[1], 2.0, 1e-12);
  EXPECT_NEAR(e[2], 3.0, 1e-12);
}

TEST(DenseEigen, PauliXEigenvalues) {
  std::vector<complex_t> a = {{0.0, 0.0}, {1.0, 0.0},
                              {1.0, 0.0}, {0.0, 0.0}};
  const auto e = eigenvalues_hermitian(a, 2);
  EXPECT_NEAR(e[0], -1.0, 1e-12);
  EXPECT_NEAR(e[1], 1.0, 1e-12);
}

TEST(DenseEigen, ComplexHermitian2x2) {
  // [[1, i], [-i, 1]] has eigenvalues 0 and 2.
  std::vector<complex_t> a = {{1.0, 0.0}, {0.0, 1.0},
                              {0.0, -1.0}, {1.0, 0.0}};
  const auto e = eigenvalues_hermitian(a, 2);
  EXPECT_NEAR(e[0], 0.0, 1e-12);
  EXPECT_NEAR(e[1], 2.0, 1e-12);
}

TEST(DenseEigen, TraceIsPreserved) {
  AndersonParams p;
  p.nx = 3;
  p.ny = 3;
  p.nz = 3;
  p.disorder = 1.5;
  const auto h = build_anderson_hamiltonian(p);
  const auto e = sparse_eigenvalues(h);
  double trace_direct = 0.0;
  for (global_index i = 0; i < h.nrows(); ++i) trace_direct += h.at(i, i).real();
  double trace_eigs = 0.0;
  for (double x : e) trace_eigs += x;
  EXPECT_NEAR(trace_direct, trace_eigs, 1e-8);
}

TEST(SpectralBounds, GershgorinContainsAllEigenvalues) {
  TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 4;
  p.periodic_z = true;
  const auto h = build_ti_hamiltonian(p);
  const auto iv = gershgorin_bounds(h);
  const auto exact = exact_ti_spectrum_periodic(p);
  EXPECT_LE(iv.lower, exact.front() + 1e-12);
  EXPECT_GE(iv.upper, exact.back() - 1e-12);
}

TEST(SpectralBounds, LanczosApproachesExtremalEigenvalues) {
  AndersonParams p;
  p.nx = 6;
  p.ny = 6;
  p.nz = 6;
  const auto h = build_anderson_hamiltonian(p);
  const auto iv = lanczos_bounds(h, 40);
  // Clean periodic band edges are exactly +-6t.
  EXPECT_NEAR(iv.lower, -6.0, 0.05);
  EXPECT_NEAR(iv.upper, 6.0, 0.05);
  // Lanczos bounds lie inside the exact interval.
  EXPECT_GE(iv.lower, -6.0 - 1e-9);
  EXPECT_LE(iv.upper, 6.0 + 1e-9);
}

TEST(SpectralBounds, MakeScalingMapsIntoUnitInterval) {
  const SpectralInterval iv{-5.0, 3.0};
  const auto s = make_scaling(iv, 0.1);
  EXPECT_NEAR(s.to_unit(iv.lower), -0.95, 1e-12);
  EXPECT_NEAR(s.to_unit(iv.upper), 0.95, 1e-12);
  EXPECT_NEAR(s.to_energy(s.to_unit(1.234)), 1.234, 1e-12);
}

TEST(SpectralBounds, GershgorinWiderThanLanczos) {
  TIParams p;
  p.nx = 6;
  p.ny = 6;
  p.nz = 3;
  const auto h = build_ti_hamiltonian(p);
  const auto g = gershgorin_bounds(h);
  const auto l = lanczos_bounds(h, 30);
  EXPECT_LE(g.lower, l.lower + 1e-9);
  EXPECT_GE(g.upper, l.upper - 1e-9);
}

TEST(SpectralBounds, LanczosStaysInsideExactSpectrumAcrossSeeds) {
  // The three-term recurrence keeps no basis; losing orthogonality must not
  // push the Ritz extremes outside the spectrum, for any start vector.  At
  // 9 x 8 x 7 thirty steps leave the extremes ~1e-8 inside the spectrum (on
  // a cube of even extent they converge to the last bit).
  TIParams p;
  p.nx = 9;
  p.ny = 8;
  p.nz = 7;
  p.periodic_z = true;
  const auto h = build_ti_hamiltonian(p);
  const auto exact = exact_ti_spectrum_periodic(p);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const auto iv = lanczos_bounds(h, 30, seed);
    EXPECT_GE(iv.lower, exact.front() - 1e-9);
    EXPECT_LE(iv.upper, exact.back() + 1e-9);
    // Each exact extreme lies inside the 5 % margin compute_dos adds.
    const auto s = make_scaling(iv, 0.05);
    EXPECT_GE(s.to_unit(exact.front()), -1.0);
    EXPECT_LE(s.to_unit(exact.back()), 1.0);
  }
}

}  // namespace
}  // namespace kpm::physics
