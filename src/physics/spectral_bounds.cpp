#include "physics/spectral_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "blas/level1.hpp"
#include "physics/dense_eigen.hpp"
#include "sparse/stencil.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace kpm::physics {
namespace {

/// w = H q and returns the Rayleigh coefficient Re<q|w>, in one pass over
/// the matrix.
double apply_and_project(const sparse::CrsMatrix& h,
                         std::span<const complex_t> q, std::span<complex_t> w) {
  const global_index nrows = h.nrows();
  const auto* __restrict__ row_ptr = h.row_ptr().data();
  const auto* __restrict__ col = h.col_idx().data();
  const auto* __restrict__ val = h.values().data();
  const complex_t* __restrict__ qp = q.data();
  complex_t* __restrict__ wp = w.data();
  double alpha = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : alpha)
  for (global_index i = 0; i < nrows; ++i) {
    double re = 0.0;
    double im = 0.0;
    for (global_index k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const complex_t a = val[k];
      const complex_t x = qp[col[k]];
      re += a.real() * x.real() - a.imag() * x.imag();
      im += a.real() * x.imag() + a.imag() * x.real();
    }
    wp[i] = {re, im};
    alpha += qp[i].real() * re + qp[i].imag() * im;
  }
  return alpha;
}

/// w <- w - alpha q - beta q_prev; returns ||w||.
double orthogonalize(std::span<complex_t> w, double alpha,
                     std::span<const complex_t> q, double beta,
                     std::span<const complex_t> q_prev) {
  const auto n = static_cast<std::int64_t>(w.size());
  complex_t* __restrict__ wp = w.data();
  const complex_t* __restrict__ qp = q.data();
  const complex_t* __restrict__ pp = q_prev.data();
  double norm2 = 0.0;
#pragma omp parallel for simd schedule(static) reduction(+ : norm2)
  for (std::int64_t i = 0; i < n; ++i) {
    const complex_t r = wp[i] - alpha * qp[i] - beta * pp[i];
    wp[i] = r;
    norm2 += std::norm(r);
  }
  return std::sqrt(norm2);
}

}  // namespace

SpectralInterval gershgorin_bounds(const sparse::CrsMatrix& h) {
  require(h.nrows() == h.ncols(), "gershgorin: square matrix required");
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (global_index i = 0; i < h.nrows(); ++i) {
    const auto cols = h.row_cols(i);
    const auto vals = h.row_values(i);
    double center = 0.0;
    double radius = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) {
        // Hermitian => real diagonal.
        center = vals[k].real();
      } else {
        radius += std::abs(vals[k]);
      }
    }
    if (first || center - radius < lo) lo = center - radius;
    if (first || center + radius > hi) hi = center + radius;
    first = false;
  }
  return {lo, hi};
}

SpectralInterval gershgorin_bounds(const sparse::StencilOperator& h) {
  require(h.nrows() == h.ncols(),
          "gershgorin: global-form (square) stencil required");
  const int b = h.block_dim();
  // One disc template per orbital: the interior rows of one ib all share
  // the term-table center/radius and differ only in the diagonal stream.
  std::vector<double> base_center(static_cast<std::size_t>(b), 0.0);
  std::vector<double> base_radius(static_cast<std::size_t>(b), 0.0);
  const auto terms = h.terms();
  for (int ib = 0; ib < b; ++ib) {
    for (std::size_t t = 0; t < terms.size(); ++t) {
      for (int jb = 0; jb < b; ++jb) {
        if ((terms[t].mask >> (jb * b + ib) & 1u) == 0) continue;
        const complex_t c = terms[t].coeff[static_cast<std::size_t>(jb * b + ib)];
        if (static_cast<int>(t) == h.onsite_term() && jb == ib) {
          base_center[static_cast<std::size_t>(ib)] = c.real();
        } else {
          base_radius[static_cast<std::size_t>(ib)] += std::abs(c);
        }
      }
    }
  }
  const auto diag = h.diag();
  const auto bptr = h.boundary_ptr();
  const auto bcol = h.boundary_col();
  const auto bval = h.boundary_val();
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  auto widen = [&](double center, double radius) {
    if (first || center - radius < lo) lo = center - radius;
    if (first || center + radius > hi) hi = center + radius;
    first = false;
  };
  for (const auto& seg : h.segments()) {
    if (seg.interior) {
      for (global_index g = seg.begin; g < seg.end; ++g) {
        const auto ib =
            static_cast<std::size_t>((g + h.row_phase()) % b);
        const double d =
            h.has_diag() ? diag[static_cast<std::size_t>(g)] : 0.0;
        widen(base_center[ib] + d, base_radius[ib]);
      }
    } else {
      for (global_index g = seg.begin; g < seg.end; ++g) {
        const auto r =
            static_cast<std::size_t>(seg.bnd_row0 + (g - seg.begin));
        double center = 0.0;
        double radius = 0.0;
        for (auto k = bptr[r]; k < bptr[r + 1]; ++k) {
          const auto idx = static_cast<std::size_t>(k);
          if (static_cast<global_index>(bcol[idx]) == g) {
            center = bval[idx].real();  // diag stream already merged
          } else {
            radius += std::abs(bval[idx]);
          }
        }
        widen(center, radius);
      }
    }
  }
  return {lo, hi};
}

SpectralInterval lanczos_bounds(const sparse::CrsMatrix& h, int sweeps,
                                std::uint64_t seed) {
  require(h.nrows() == h.ncols(), "lanczos: square matrix required");
  require(sweeps >= 2, "lanczos: need at least 2 sweeps");
  const auto n = static_cast<std::size_t>(h.nrows());
  sweeps = static_cast<int>(
      std::min<global_index>(sweeps, h.nrows()));

  // Three N-vectors and no stored basis.  Without reorthogonalization the
  // basis loses orthogonality once a Ritz value converges; that adds ghost
  // copies of converged values but does not push the extremes outward
  // (Paige), so the result stays an inner estimate.
  aligned_vector<complex_t> q_prev(n, complex_t{});
  aligned_vector<complex_t> q(n);
  aligned_vector<complex_t> w(n);
  RandomVectorSource rng(seed);
  rng.fill(q);

  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples q_j and q_{j+1}

  for (int j = 0; j < sweeps; ++j) {
    alpha.push_back(apply_and_project(h, q, w));
    const double b = orthogonalize(w, alpha.back(), q,
                                   j > 0 ? beta.back() : 0.0, q_prev);
    if (b < 1e-13 || j == sweeps - 1) break;
    beta.push_back(b);
    // (q_prev, q, w) <- (q, w / b, q_prev): the old q_prev is the next w.
    std::swap(q_prev, q);
    std::swap(q, w);
    blas::scal({1.0 / b, 0.0}, q);
  }

  // Eigenvalues of the tridiagonal Rayleigh matrix via the dense solver.
  const int m = static_cast<int>(alpha.size());
  std::vector<double> tri(static_cast<std::size_t>(m) * m, 0.0);
  for (int i = 0; i < m; ++i) {
    tri[static_cast<std::size_t>(i) * m + i] = alpha[static_cast<std::size_t>(i)];
    if (i + 1 < m) {
      tri[static_cast<std::size_t>(i) * m + i + 1] =
          beta[static_cast<std::size_t>(i)];
      tri[static_cast<std::size_t>(i + 1) * m + i] =
          beta[static_cast<std::size_t>(i)];
    }
  }
  const auto ritz = eigenvalues_symmetric(std::move(tri), m);
  return {ritz.front(), ritz.back()};
}

Scaling make_scaling(const SpectralInterval& iv, double epsilon) {
  require(iv.upper > iv.lower, "make_scaling: empty spectral interval");
  require(epsilon > 0.0 && epsilon < 1.0, "make_scaling: epsilon in (0,1)");
  Scaling s;
  s.b = iv.center();
  s.a = (1.0 - epsilon / 2.0) / iv.half_width();
  return s;
}

}  // namespace kpm::physics
