// Tests for the KPM Green's function and the generic trace-of-function
// estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <numbers>
#include <utility>
#include <vector>

#include "core/greens.hpp"
#include "core/moments.hpp"
#include "core/reconstruct.hpp"
#include "core/trace.hpp"
#include "physics/anderson.hpp"
#include "physics/dense_eigen.hpp"
#include "physics/spectral_bounds.hpp"
#include "util/check.hpp"

namespace kpm::core {
namespace {

struct Setup {
  sparse::CrsMatrix h;
  physics::Scaling s;
  MomentsResult moments;
  std::vector<double> evals;
};

const Setup& setup() {
  static const Setup instance = [] {
    physics::AndersonParams p;
    p.nx = 5;
    p.ny = 5;
    p.nz = 4;
    p.disorder = 1.5;
    p.periodic = false;
    Setup st{physics::build_anderson_hamiltonian(p), {}, {}, {}};
    st.s = physics::make_scaling(physics::gershgorin_bounds(st.h), 0.05);
    MomentParams mp;
    mp.num_moments = 128;
    mp.num_random = 64;
    st.moments = moments_aug_spmmv(st.h, st.s, mp);
    st.evals = physics::sparse_eigenvalues(st.h);
    return st;
  }();
  return instance;
}

TEST(Greens, ImaginaryPartIsMinusPiTimesDos) {
  const auto& st = setup();
  GreensParams gp;
  ReconstructParams rp;
  rp.kernel = DampingKernel::lorentz;
  rp.num_points = 33;
  rp.e_min = st.s.to_energy(-0.9);
  rp.e_max = st.s.to_energy(0.9);
  rp.normalization = 1.0;  // density per state
  const auto dos = reconstruct_density(st.moments.mu, st.s, rp);
  const auto g = greens_function(st.moments.mu, st.s, dos.energy, gp);
  for (std::size_t k = 0; k < dos.energy.size(); ++k) {
    EXPECT_NEAR(g[k].imag(), -pi * dos.density[k],
                1e-9 + 1e-9 * std::abs(g[k].imag()))
        << "E=" << dos.energy[k];
  }
}

TEST(Greens, MatchesExactResolventWithBroadening) {
  // tr[G(E + i eta)]/N with eta matched to the Lorentz kernel broadening
  // (eta = lambda / (a M) in energy units).
  const auto& st = setup();
  GreensParams gp;
  const double eta =
      gp.lorentz_lambda / (st.s.a * static_cast<double>(st.moments.mu.size()));
  for (double e : {-3.0, -1.0, 0.0, 1.5, 3.5}) {
    const auto g = greens_function_at(st.moments.mu, st.s, e, gp);
    complex_t exact{};
    for (const double lambda : st.evals) {
      exact += 1.0 / complex_t{e - lambda, eta};
    }
    exact /= static_cast<double>(st.evals.size());
    // Stochastic trace + kernel-shape differences: generous tolerance.
    EXPECT_NEAR(std::abs(g - exact), 0.0, 0.12 * std::abs(exact) + 0.02)
        << "E=" << e;
  }
}

TEST(Greens, RetardedAndAdvancedAreConjugates) {
  const auto& st = setup();
  GreensParams ret;
  GreensParams adv;
  adv.branch = -1;
  for (double e : {-2.0, 0.3, 2.2}) {
    const auto gr = greens_function_at(st.moments.mu, st.s, e, ret);
    const auto ga = greens_function_at(st.moments.mu, st.s, e, adv);
    EXPECT_NEAR(std::abs(gr - std::conj(ga)), 0.0, 1e-12);
    EXPECT_LE(gr.imag(), 1e-12);  // retarded: Im G <= 0
  }
}

TEST(Greens, RejectsEnergiesOutsideInterval) {
  const auto& st = setup();
  EXPECT_THROW(
      greens_function_at(st.moments.mu, st.s, st.s.to_energy(1.5)),
      contract_error);
}

TEST(Trace, ConstantFunctionCountsStates) {
  const auto& st = setup();
  const double n = static_cast<double>(st.h.nrows());
  const double tr = trace_function(st.moments.mu, st.s, n,
                                   [](double) { return 1.0; });
  EXPECT_NEAR(tr, n, 1e-8 * n);
}

/// The exact moments mu_n = (1/N) sum_k T_n(x_k) at the scaled eigenvalues.
std::vector<double> exact_moments(const Setup& st, int num_moments) {
  std::vector<double> mu(static_cast<std::size_t>(num_moments), 0.0);
  for (const double e : st.evals) {
    const double x = st.s.a * (e - st.s.b);
    double t0 = 1.0, t1 = x;
    for (int n = 0; n < num_moments; ++n) {
      mu[static_cast<std::size_t>(n)] += t0;
      const double t2 = 2.0 * x * t1 - t0;
      t0 = t1;
      t1 = t2;
    }
  }
  for (double& m : mu) m /= static_cast<double>(st.evals.size());
  return mu;
}

double exact_trace(const Setup& st, const std::function<double(double)>& f) {
  double tr = 0.0;
  for (const double e : st.evals) tr += f(e);
  return tr;
}

// The reconstruction claims, on exact moments and without damping: a
// polynomial f of degree < M has a finite Chebyshev expansion, and e^{-beta
// E} converges far below 1e-9 by M = 128, so tr[f(H)] comes back exactly.
TraceParams undamped() {
  TraceParams p;
  p.kernel = DampingKernel::dirichlet;
  return p;
}

TEST(Trace, LinearFunctionGivesTraceOfH) {
  const auto& st = setup();
  const double n = static_cast<double>(st.h.nrows());
  const auto f = [](double e) { return e; };
  EXPECT_NEAR(trace_function(exact_moments(st, 128), st.s, n, f, undamped()),
              exact_trace(st, f), 1e-9 * n);
}

TEST(Trace, QuadraticFunctionGivesFrobeniusNorm) {
  const auto& st = setup();
  const double n = static_cast<double>(st.h.nrows());
  const auto f = [](double e) { return e * e; };
  const double exact = exact_trace(st, f);
  EXPECT_NEAR(trace_function(exact_moments(st, 128), st.s, n, f, undamped()),
              exact, 1e-9 * exact);
}

TEST(Trace, PartitionFunctionMatchesExactSpectrum) {
  const auto& st = setup();
  const double n = static_cast<double>(st.h.nrows());
  const auto mu = exact_moments(st, 128);
  for (double beta : {0.1, 0.5, 1.0}) {
    const double exact =
        exact_trace(st, [beta](double e) { return std::exp(-beta * e); });
    EXPECT_NEAR(partition_function(mu, st.s, n, beta, undamped()), exact,
                1e-9 * exact)
        << "beta=" << beta;
  }
}

// The functions the default-kernel and stochastic tests reconstruct.
std::vector<std::pair<const char*, std::function<double(double)>>>
trace_cases() {
  return {
      {"E", [](double e) { return e; }},
      {"E^2", [](double e) { return e * e; }},
      {"exp(-0.1 E)", [](double e) { return std::exp(-0.1 * e); }},
      {"exp(-0.5 E)", [](double e) { return std::exp(-0.5 * e); }},
      {"exp(-E)", [](double e) { return std::exp(-e); }},
  };
}

TEST(Trace, JacksonReconstructionWithinKernelBias) {
  // The default (Jackson) kernel damps moment m by g_m, and
  // 0 <= 1 - g_m <= (pi m / (M + 1))^2 / 2.  With |mu_m| <= 1 the damped
  // tr[f(H)] = N sum_m (2 - delta_m0) g_m mu_m c_m is therefore within
  // N sum_{m>=1} (pi m / (M + 1))^2 |c_m| of the exact trace.
  const auto& st = setup();
  const int order = 128;
  const double n = static_cast<double>(st.h.nrows());
  const auto mu = exact_moments(st, order);
  for (const auto& [name, f] : trace_cases()) {
    const auto c = chebyshev_coefficients(f, st.s, order);
    double bias = 0.0;
    for (int m = 1; m < order; ++m) {
      const double q = std::numbers::pi * m / (order + 1.0);
      bias += q * q * std::abs(c[static_cast<std::size_t>(m)]);
    }
    const double exact = exact_trace(st, f);
    EXPECT_NEAR(trace_function(mu, st.s, n, f), exact,
                n * bias + 1e-9 * std::abs(exact))
        << name;
  }
}

TEST(Trace, StochasticEstimatesWithinVarianceBoundAcrossSeeds) {
  // With R phase vectors of entries e^{i phi}/sqrt(N), the estimate of
  // tr[A] is (N/R) sum_r <r|A|r>, whose variance is sum_{i!=j} |A_ij|^2 / R
  // (Weisse et al., Sec. II), here with A = f(H) built from the
  // eigensystem.  The reference is the same damped reconstruction from
  // exact moments, so only the stochastic error remains.  Over 40 streams
  // x seeds 1-40 (1,600 estimates per function) the rms deviation was
  // 0.99-1.02 sigma and the largest 4.5 sigma; the test allows 5.
  const auto& st = setup();
  const int n = static_cast<int>(st.h.nrows());
  const auto eig = physics::sparse_eigensystem(st.h);
  const auto exact_mu = exact_moments(st, 128);
  MomentParams mp;
  mp.num_moments = 128;
  mp.num_random = 64;
  std::vector<std::vector<double>> mu_by_seed;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    mp.seed = seed;
    mu_by_seed.push_back(moments_aug_spmmv(st.h, st.s, mp).mu);
  }
  for (const auto& [name, f] : trace_cases()) {
    std::vector<double> f_k;
    for (const double e : eig.eigenvalues) f_k.push_back(f(e));
    double off_diagonal = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        complex_t a_ij{};  // (V f(Lambda) V^dagger)_ij
        for (int k = 0; k < n; ++k) {
          const auto v = eig.vector(k);
          a_ij += v[static_cast<std::size_t>(i)] *
                  f_k[static_cast<std::size_t>(k)] *
                  std::conj(v[static_cast<std::size_t>(j)]);
        }
        off_diagonal += std::norm(a_ij);
      }
    }
    const double sigma = std::sqrt(off_diagonal / mp.num_random);
    const double reference = trace_function(exact_mu, st.s, n, f);
    for (std::size_t k = 0; k < mu_by_seed.size(); ++k) {
      EXPECT_NEAR(trace_function(mu_by_seed[k], st.s, n, f), reference,
                  5.0 * sigma)
          << name << " seed " << k + 1;
    }
  }
}

TEST(Trace, FermiOccupationInterpolatesCounts) {
  const auto& st = setup();
  const double n = static_cast<double>(st.h.nrows());
  // At very low temperature the occupation equals the eigenvalue count
  // below the Fermi level.
  const double e_fermi = 0.5;
  double exact = 0.0;
  for (const double e : st.evals) exact += e < e_fermi ? 1.0 : 0.0;
  const double occ =
      fermi_occupation(st.moments.mu, st.s, n, e_fermi, /*beta=*/50.0);
  EXPECT_NEAR(occ, exact, 0.05 * n);
  // Infinite temperature: half filling of a symmetric band ~ N/2... beta->0
  // limit is exactly N/2 for f = 1/2 everywhere.
  const double occ_hot =
      fermi_occupation(st.moments.mu, st.s, n, 0.0, /*beta=*/1e-9);
  EXPECT_NEAR(occ_hot, n / 2.0, 1e-6 * n);
}

TEST(Trace, ChebyshevCoefficientsOfPolynomials) {
  // f(E) = T_2(x(E)) must give c_2 = 1/2, everything else ~ 0 (the
  // quadrature is exact for polynomials).
  physics::Scaling s{1.0, 0.0};
  const auto c = chebyshev_coefficients(
      [](double e) { return 2.0 * e * e - 1.0; }, s, 6);
  EXPECT_NEAR(c[0], 0.0, 1e-12);
  EXPECT_NEAR(c[1], 0.0, 1e-12);
  EXPECT_NEAR(c[2], 0.5, 1e-12);
  EXPECT_NEAR(c[3], 0.0, 1e-12);
}

TEST(Trace, InvalidInputsThrow) {
  physics::Scaling s{1.0, 0.0};
  EXPECT_THROW(trace_function({}, s, 1.0, [](double) { return 1.0; }),
               contract_error);
  EXPECT_THROW(chebyshev_coefficients([](double) { return 1.0; }, s, 0),
               contract_error);
}

}  // namespace
}  // namespace kpm::core
