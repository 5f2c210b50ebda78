// Property-style validation sweep (TEST_P): the KPM-DOS pipeline must
// reproduce exact cumulative eigenvalue counts for *every* application model
// in the physics library — clean periodic TI, disordered TI slab, clean and
// disordered Anderson, graphene — at matched stochastic accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/eigcount.hpp"
#include "core/solver.hpp"
#include "physics/anderson.hpp"
#include "physics/dense_eigen.hpp"
#include "physics/graphene.hpp"
#include "physics/ti_model.hpp"

namespace kpm::core {
namespace {

struct ModelCase {
  std::string name;
  std::function<sparse::CrsMatrix()> build;
};

// Without this gtest prints the parameter as a raw byte dump, which holds
// heap and code addresses: the discovered ctest names would change with
// every build and every run under address-space randomisation.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class DosModelSweep : public ::testing::TestWithParam<ModelCase> {};

TEST_P(DosModelSweep, CumulativeCountsMatchExactSpectrum) {
  const auto h = GetParam().build();
  const auto evals = physics::sparse_eigenvalues(h);

  DosParams p;
  p.moments.num_moments = 256;
  p.moments.num_random = 48;
  p.moments.seed = 1234;
  p.reconstruct.num_points = 256;
  const auto res = compute_dos(h, p);

  const double n = static_cast<double>(h.nrows());
  const double lo = res.scaling.to_energy(-1.0);
  // Check the cumulative count at the quartile energies of the exact
  // spectrum — resolution-independent anchors.
  for (double q : {0.25, 0.5, 0.75}) {
    const double e =
        evals[static_cast<std::size_t>(q * (evals.size() - 1))];
    const double exact = static_cast<double>(
        std::upper_bound(evals.begin(), evals.end(), e) - evals.begin());
    const double kpm = eigenvalue_count(res.moments.mu, res.scaling, n, lo, e);
    EXPECT_NEAR(kpm, exact, 0.08 * n)
        << GetParam().name << " quartile " << q;
  }
  // Total states and positivity.
  EXPECT_NEAR(eigenvalue_count(res.moments.mu, res.scaling, n, lo,
                               res.scaling.to_energy(1.0)),
              n, 0.02 * n);
  for (const double d : res.spectrum.density) EXPECT_GE(d, -1e-9);
}

TEST_P(DosModelSweep, MomentsBoundedAndNormalized) {
  const auto h = GetParam().build();
  DosParams p;
  p.moments.num_moments = 64;
  p.moments.num_random = 8;
  const auto res = compute_dos(h, p);
  EXPECT_NEAR(res.moments.mu[0], 1.0, 1e-12);
  for (const double mu : res.moments.mu) EXPECT_LE(std::abs(mu), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Models, DosModelSweep,
    ::testing::Values(
        ModelCase{"ti_periodic",
                  [] {
                    physics::TIParams p;
                    p.nx = 4;
                    p.ny = 4;
                    p.nz = 4;
                    p.periodic_z = true;
                    return physics::build_ti_hamiltonian(p);
                  }},
        ModelCase{"ti_slab_with_dots",
                  [] {
                    physics::TIParams p;
                    p.nx = 6;
                    p.ny = 6;
                    p.nz = 3;
                    physics::DotLattice dots;
                    dots.period = 3.0;
                    dots.radius = 1.0;
                    dots.depth = 0.153;
                    p.potential = [dots](const physics::Site& s) {
                      return dots.potential(s);
                    };
                    return physics::build_ti_hamiltonian(p);
                  }},
        ModelCase{"anderson_clean",
                  [] {
                    physics::AndersonParams p;
                    p.nx = p.ny = p.nz = 5;
                    p.periodic = false;
                    return physics::build_anderson_hamiltonian(p);
                  }},
        ModelCase{"anderson_disordered",
                  [] {
                    physics::AndersonParams p;
                    p.nx = p.ny = p.nz = 5;
                    p.disorder = 4.0;
                    p.periodic = false;
                    return physics::build_anderson_hamiltonian(p);
                  }},
        ModelCase{"graphene",
                  [] {
                    physics::GrapheneParams p;
                    p.ncells_x = 8;
                    p.ncells_y = 8;
                    return physics::build_graphene_hamiltonian(p);
                  }}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace kpm::core
