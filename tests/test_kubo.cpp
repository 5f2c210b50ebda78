// Tests for the Kubo-Greenwood conductivity module and the dense
// eigensystem solver that validates it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/kubo.hpp"
#include "physics/dense_eigen.hpp"
#include "physics/ti_model.hpp"
#include "physics/spectral_bounds.hpp"
#include "sparse/matrix_stats.hpp"
#include "sparse/spmv.hpp"
#include "util/check.hpp"

namespace kpm::core {
namespace {

physics::AndersonParams chain_params(int extent, double disorder) {
  physics::AndersonParams p;
  p.nx = extent;
  p.ny = 2;
  p.nz = 1;
  p.disorder = disorder;
  p.periodic = false;
  return p;
}

TEST(EigenSystem, ReconstructsTheMatrix) {
  const auto p = chain_params(6, 1.5);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto es = physics::sparse_eigensystem(h);
  const int n = es.n;
  ASSERT_EQ(n, static_cast<int>(h.nrows()));
  // A = sum_j lambda_j |v_j><v_j| reproduces every stored entry.
  for (global_index row = 0; row < h.nrows(); ++row) {
    const auto cols = h.row_cols(row);
    const auto vals = h.row_values(row);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      complex_t rebuilt{};
      for (int j = 0; j < n; ++j) {
        const auto v = es.vector(j);
        rebuilt += es.eigenvalues[static_cast<std::size_t>(j)] *
                   v[static_cast<std::size_t>(row)] *
                   std::conj(v[static_cast<std::size_t>(cols[k])]);
      }
      EXPECT_NEAR(std::abs(rebuilt - vals[k]), 0.0, 1e-8);
    }
  }
}

TEST(EigenSystem, VectorsAreOrthonormal) {
  const auto p = chain_params(5, 0.7);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto es = physics::sparse_eigensystem(h);
  for (int i = 0; i < es.n; ++i) {
    for (int j = i; j < es.n; ++j) {
      complex_t dot{};
      const auto vi = es.vector(i);
      const auto vj = es.vector(j);
      for (int k = 0; k < es.n; ++k) {
        dot += std::conj(vi[static_cast<std::size_t>(k)]) *
               vj[static_cast<std::size_t>(k)];
      }
      EXPECT_NEAR(std::abs(dot - (i == j ? complex_t{1.0, 0.0} : complex_t{})),
                  0.0, 1e-9)
          << i << "," << j;
    }
  }
}

TEST(EigenSystem, SatisfiesEigenEquation) {
  const auto p = chain_params(4, 2.0);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto es = physics::sparse_eigensystem(h);
  aligned_vector<complex_t> x(static_cast<std::size_t>(es.n)),
      hx(static_cast<std::size_t>(es.n));
  for (int j = 0; j < es.n; ++j) {
    const auto v = es.vector(j);
    std::copy(v.begin(), v.end(), x.begin());
    sparse::spmv(h, x, hx);
    for (int k = 0; k < es.n; ++k) {
      EXPECT_NEAR(
          std::abs(hx[static_cast<std::size_t>(k)] -
                   es.eigenvalues[static_cast<std::size_t>(j)] *
                       x[static_cast<std::size_t>(k)]),
          0.0, 1e-8);
    }
  }
}

TEST(EigenSystem, HandlesDegenerateComplexSpectra) {
  // The periodic TI Hamiltonian has doubly degenerate bands — the embedding
  // reduction must still return a complete orthonormal basis.
  physics::TIParams tp;
  tp.nx = 3;
  tp.ny = 4;
  tp.nz = 3;
  tp.periodic_z = true;
  const auto h = physics::build_ti_hamiltonian(tp);
  const auto es = physics::sparse_eigensystem(h);
  EXPECT_EQ(es.n, static_cast<int>(h.nrows()));
  const auto reference = physics::sparse_eigenvalues(h);
  for (std::size_t j = 0; j < reference.size(); ++j) {
    EXPECT_NEAR(es.eigenvalues[j], reference[j], 1e-8);
  }
}

TEST(Kubo, CurrentOperatorIsHermitianTraceless) {
  const auto p = chain_params(8, 0.0);
  const auto j = current_operator_x(p);
  const auto st = sparse::analyze(j);
  EXPECT_TRUE(st.hermitian);
  for (global_index i = 0; i < j.nrows(); ++i) {
    EXPECT_EQ(j.at(i, i), complex_t{});
  }
}

TEST(Kubo, DeterministicMomentsMatchDenseTrace) {
  // mu_nm = (1/N) sum_jk |<j|J|k>|^2 T_n(eps_j) T_m(eps_k), computed from
  // the dense eigensystem, must match the full-basis KPM moments.
  const auto p = chain_params(5, 1.2);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto j = current_operator_x(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);

  KuboParams kp;
  kp.num_moments = 8;
  kp.deterministic_full_trace = true;
  const auto kpm = kubo_moments(h, s, j, kp);

  const auto es = physics::sparse_eigensystem(h);
  const int n = es.n;
  // J in the eigenbasis.
  std::vector<complex_t> jmat(static_cast<std::size_t>(n) * n);
  aligned_vector<complex_t> x(static_cast<std::size_t>(n)),
      jx(static_cast<std::size_t>(n));
  for (int b = 0; b < n; ++b) {
    const auto vb = es.vector(b);
    std::copy(vb.begin(), vb.end(), x.begin());
    sparse::spmv(j, x, jx);
    for (int a = 0; a < n; ++a) {
      const auto va = es.vector(a);
      complex_t dot{};
      for (int k = 0; k < n; ++k) {
        dot += std::conj(va[static_cast<std::size_t>(k)]) *
               jx[static_cast<std::size_t>(k)];
      }
      jmat[static_cast<std::size_t>(a) * n + b] = dot;
    }
  }
  for (int nn = 0; nn < kp.num_moments; ++nn) {
    for (int mm = 0; mm < kp.num_moments; ++mm) {
      double exact = 0.0;
      for (int a = 0; a < n; ++a) {
        const double ta =
            std::cos(nn * std::acos(std::clamp(
                              s.to_unit(es.eigenvalues[static_cast<std::size_t>(a)]),
                              -1.0, 1.0)));
        for (int b = 0; b < n; ++b) {
          const double tb = std::cos(
              mm * std::acos(std::clamp(
                       s.to_unit(es.eigenvalues[static_cast<std::size_t>(b)]),
                       -1.0, 1.0)));
          exact += ta * tb *
                   std::norm(jmat[static_cast<std::size_t>(a) * n + b]);
        }
      }
      exact /= static_cast<double>(n);
      EXPECT_NEAR(kpm.at(nn, mm), exact, 1e-7) << nn << "," << mm;
    }
  }
}

TEST(Kubo, MomentMatrixIsSymmetric) {
  const auto p = chain_params(6, 1.0);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto j = current_operator_x(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  KuboParams kp;
  kp.num_moments = 10;
  kp.deterministic_full_trace = true;
  const auto m = kubo_moments(h, s, j, kp);
  for (int n = 0; n < kp.num_moments; ++n) {
    for (int mm = n + 1; mm < kp.num_moments; ++mm) {
      EXPECT_NEAR(m.at(n, mm), m.at(mm, n), 1e-9);
    }
  }
}

// Dense n x n matrix of `a`, row-major.
std::vector<complex_t> dense(const sparse::CrsMatrix& a) {
  const auto n = static_cast<std::size_t>(a.nrows());
  std::vector<complex_t> d(n * n);
  for (global_index i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      d[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(cols[k])] +=
          vals[k];
    }
  }
  return d;
}

std::vector<complex_t> matmul(const std::vector<complex_t>& x,
                              const std::vector<complex_t>& y, std::size_t n) {
  std::vector<complex_t> z(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        z[i * n + j] += x[i * n + k] * y[k * n + j];
      }
    }
  }
  return z;
}

TEST(Kubo, StochasticConvergesToDeterministic) {
  // One sample of moment (n, m) is Re <r|A|r> with A = T_n(H~) J T_m(H~) J
  // and r_i = e^{i phi_i} / sqrt(N).  Its off-diagonal part is
  // sum_{i<j} Re(B_ij e^{i(phi_j - phi_i)}) / N with B_ij = A_ij + conj(A_ji),
  // whose terms are uncorrelated, so over R vectors
  //   sigma_nm^2 = sum_{i<j} |B_ij|^2 / (2 R N^2),
  // computed here from the dense A.  Over seeds 1-40 every moment stays
  // within 5 sigma_nm, and the rms of the deviations in units of sigma_nm
  // stays near 1, so a several-fold variance regression fails.
  const auto p = chain_params(6, 1.0);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto j = current_operator_x(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  KuboParams det;
  det.num_moments = 6;
  det.deterministic_full_trace = true;
  const auto exact = kubo_moments(h, s, j, det);
  KuboParams sto = det;
  sto.deterministic_full_trace = false;
  sto.num_random = 96;

  const auto n_dim = static_cast<std::size_t>(h.nrows());
  const double nd = static_cast<double>(n_dim);
  auto h_scaled = dense(h);  // H~ = a (H - b)
  for (std::size_t i = 0; i < n_dim; ++i) {
    for (std::size_t k = 0; k < n_dim; ++k) {
      h_scaled[i * n_dim + k] =
          s.a * (h_scaled[i * n_dim + k] - (i == k ? s.b : 0.0));
    }
  }
  const auto j_dense = dense(j);
  std::vector<std::vector<complex_t>> t(
      static_cast<std::size_t>(det.num_moments));
  t[0].assign(n_dim * n_dim, complex_t{});
  for (std::size_t i = 0; i < n_dim; ++i) t[0][i * n_dim + i] = 1.0;
  t[1] = h_scaled;
  for (std::size_t k = 2; k < t.size(); ++k) {
    t[k] = matmul(h_scaled, t[k - 1], n_dim);
    for (std::size_t e = 0; e < t[k].size(); ++e) {
      t[k][e] = 2.0 * t[k][e] - t[k - 2][e];
    }
  }
  std::vector<double> sigma(exact.mu.size());
  for (int n = 0; n < det.num_moments; ++n) {
    for (int m = 0; m < det.num_moments; ++m) {
      const auto a = matmul(
          matmul(t[static_cast<std::size_t>(n)], j_dense, n_dim),
          matmul(t[static_cast<std::size_t>(m)], j_dense, n_dim), n_dim);
      double trace = 0.0, off = 0.0;
      for (std::size_t i = 0; i < n_dim; ++i) {
        trace += a[i * n_dim + i].real();
        for (std::size_t k = i + 1; k < n_dim; ++k) {
          off += std::norm(a[i * n_dim + k] + std::conj(a[k * n_dim + i]));
        }
      }
      // The dense A is the matrix the full trace averages.
      ASSERT_NEAR(trace / nd, exact.at(n, m), 1e-12) << n << "," << m;
      sigma[static_cast<std::size_t>(n * det.num_moments + m)] =
          std::sqrt(off / (2.0 * sto.num_random * nd * nd));
    }
  }

  double sum_sq = 0.0;
  int count = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sto.seed = seed;
    const auto approx = kubo_moments(h, s, j, sto);
    for (std::size_t k = 0; k < sigma.size(); ++k) {
      const double dev = approx.mu[k] - exact.mu[k];
      EXPECT_LE(std::abs(dev), 5.0 * sigma[k] + 1e-12)
          << "moment " << k << " seed " << seed;
      if (sigma[k] > 1e-12) {
        sum_sq += (dev / sigma[k]) * (dev / sigma[k]);
        ++count;
      }
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_LE(std::sqrt(sum_sq / count), 1.5);
}

// The physical claims below are asserted on the exact trace
// (deterministic_full_trace), so they do not depend on a random seed; the
// stochastic estimator is tested against that trace separately.

TEST(Kubo, ConductivityNonNegativeAndPeaksInsideBand) {
  // Clean chain: sigma(E) must be non-negative and larger at the band
  // centre than near the band edges (the exact trace reads 1.735 x).
  const auto p = chain_params(24, 0.0);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto j = current_operator_x(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  KuboParams kp;
  kp.num_moments = 32;
  kp.deterministic_full_trace = true;
  const auto m = kubo_moments(h, s, j, kp);
  ConductivityParams cp;
  cp.num_points = 101;
  const auto curve = kubo_conductivity(m, s, cp);
  double center = 0.0, edge = 0.0;
  for (std::size_t k = 0; k < curve.energy.size(); ++k) {
    EXPECT_GE(curve.sigma[k], 0.0);
    if (std::abs(curve.energy[k]) < 0.5) {
      center = std::max(center, curve.sigma[k]);
    }
    if (curve.energy[k] < s.to_energy(-0.85)) {
      edge = std::max(edge, curve.sigma[k]);
    }
  }
  EXPECT_GT(center, 1.5 * edge);
}

TEST(Kubo, DisorderSuppressesConductivity) {
  // Exact trace: clean / disordered (W = 4) band-centre conductivity reads
  // 1.531 for the default disorder realization and 1.32-2.26 over eight
  // realizations of this 24 x 2 ladder.
  const auto s_params = chain_params(24, 0.0);
  auto run = [&](double disorder) {
    auto p = s_params;
    p.disorder = disorder;
    const auto h = physics::build_anderson_hamiltonian(p);
    const auto j = current_operator_x(p);
    const auto s =
        physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
    KuboParams kp;
    kp.num_moments = 24;
    kp.deterministic_full_trace = true;
    const auto m = kubo_moments(h, s, j, kp);
    ConductivityParams cp;
    cp.num_points = 51;
    const auto curve = kubo_conductivity(m, s, cp);
    double at_center = 0.0;
    for (std::size_t k = 0; k < curve.energy.size(); ++k) {
      if (std::abs(curve.energy[k]) < 0.4) {
        at_center = std::max(at_center, curve.sigma[k]);
      }
    }
    return at_center;
  };
  EXPECT_GT(run(0.0), 1.25 * run(4.0));
}

TEST(Kubo, StochasticMomentsWithinVarianceBoundAcrossSeeds) {
  // With R normalized phase vectors, mu~_nm = (1/R) sum_r <r|A|r> for
  // A = T_n(H~) J T_m(H~) J has variance sum_{i!=j} |A_ij|^2 / (R N^2)
  // <= ||A||^2 / (R N), and ||A|| <= ||J||^2 because |T_n| <= 1 on the
  // scaled spectrum.  So sigma <= ||J||^2 / sqrt(R N), with ||J|| bounded
  // by Gershgorin.  Over seeds 1-40 the largest deviation of any moment is
  // 1.4 sigma-bounds; the test allows 4.
  const auto p = chain_params(24, 0.0);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto j = current_operator_x(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const auto gj = physics::gershgorin_bounds(j);
  const double j_norm = std::max(std::abs(gj.lower), std::abs(gj.upper));
  KuboParams exact_params;
  exact_params.num_moments = 32;
  exact_params.deterministic_full_trace = true;
  const auto exact = kubo_moments(h, s, j, exact_params);

  KuboParams kp = exact_params;
  kp.deterministic_full_trace = false;
  kp.num_random = 16;
  const double sigma_bound =
      j_norm * j_norm /
      std::sqrt(static_cast<double>(kp.num_random) *
                static_cast<double>(h.nrows()));
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    kp.seed = seed;
    const auto m = kubo_moments(h, s, j, kp);
    double worst = 0.0;
    for (std::size_t i = 0; i < m.mu.size(); ++i) {
      worst = std::max(worst, std::abs(m.mu[i] - exact.mu[i]));
    }
    EXPECT_LE(worst, 4.0 * sigma_bound) << "seed " << seed;
  }
}

TEST(Kubo, InvalidInputsThrow) {
  const auto p = chain_params(4, 0.0);
  const auto h = physics::build_anderson_hamiltonian(p);
  const auto j = current_operator_x(p);
  const physics::Scaling s{0.2, 0.0};
  KuboParams kp;
  kp.num_moments = 0;
  EXPECT_THROW(kubo_moments(h, s, j, kp), contract_error);
  KuboMoments empty;
  EXPECT_THROW(kubo_conductivity(empty, s, {}), contract_error);
}

}  // namespace
}  // namespace kpm::core
