#include "core/moments.hpp"

#include <algorithm>

#include "blas/block_ops.hpp"
#include "blas/level1.hpp"
#include "core/sweep_session.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/spmv.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace kpm::core {
namespace {

void check_params(const MomentParams& p) {
  require(p.num_moments >= 2 && p.num_moments % 2 == 0,
          "moments: num_moments must be even and >= 2");
  require(p.num_random >= 1, "moments: num_random >= 1");
}

/// Converts an eta sequence (eta_0 .. eta_{M-1}) into moments in place:
/// mu_{2m} = 2 eta_{2m} - mu_0, mu_{2m+1} = 2 eta_{2m+1} - mu_1.
void eta_to_mu(std::vector<double>& eta) {
  const double mu0 = eta[0];
  const double mu1 = eta.size() > 1 ? eta[1] : 0.0;
  for (std::size_t m = 2; m < eta.size(); ++m) {
    eta[m] = 2.0 * eta[m] - (m % 2 == 0 ? mu0 : mu1);
  }
}

void average_columns(MomentsResult& out, int num_moments, int num_random) {
  out.mu.assign(static_cast<std::size_t>(num_moments), 0.0);
  for (const auto& col : out.per_vector) {
    for (std::size_t m = 0; m < out.mu.size(); ++m) out.mu[m] += col[m];
  }
  for (auto& x : out.mu) x /= static_cast<double>(num_random);
}

}  // namespace

MomentsResult moments_naive(const sparse::CrsMatrix& h,
                            const physics::Scaling& s, const MomentParams& p) {
  check_params(p);
  const auto n = static_cast<std::size_t>(h.nrows());
  MomentsResult out;
  out.dimension = h.nrows();
  RandomVectorSource rng(p.seed, p.vector_kind);
  aligned_vector<complex_t> v(n), w(n), u(n);

  for (int r = 0; r < p.num_random; ++r) {
    std::vector<double> eta(static_cast<std::size_t>(p.num_moments), 0.0);
    rng.fill(v);
    // Initialization: w = H~ v0 = a(H v0 - b v0), eta_0 = <v0|v0>,
    // eta_1 = <w|v0>; each BLAS call counted as in Table I.
    sparse::spmv(h, v, u);                      // u = H v
    blas::axpy({-s.b, 0.0}, v, u);              // u = u - b v
    blas::set_zero(w);
    blas::axpy({s.a, 0.0}, u, w);               // w = a u
    eta[0] = blas::dot_self(v);                 // nrm2()^2
    out.ops.global_reductions += 1;
    if (p.num_moments > 1) {
      eta[1] = blas::dot(w, v).real();          // dot()
      out.ops.global_reductions += 1;
    }
    out.ops.spmv_equivalents += 1;
    out.ops.matrix_streams += 1;

    // Inner loop, Fig. 3: one SpMV plus five BLAS-1 sweeps per step.
    for (int m = 1; 2 * m + 1 < p.num_moments; ++m) {
      std::swap(v, w);                          // v = v_m, w = v_{m-1}
      sparse::spmv(h, v, u);                    // u = H v        spmv()
      blas::axpy({-s.b, 0.0}, v, u);            // u = u - b v    axpy()
      blas::scal({-1.0, 0.0}, w);               // w = -w         scal()
      blas::axpy({2.0 * s.a, 0.0}, u, w);       // w = w + 2a u   axpy()
      eta[static_cast<std::size_t>(2 * m)] = blas::dot_self(v);      // nrm2()
      eta[static_cast<std::size_t>(2 * m + 1)] =
          blas::dot(w, v).real();                                    // dot()
      out.ops.spmv_equivalents += 1;
      out.ops.matrix_streams += 1;
      out.ops.global_reductions += 2;
    }
    eta_to_mu(eta);
    out.per_vector.push_back(std::move(eta));
  }
  average_columns(out, p.num_moments, p.num_random);
  return out;
}

namespace {

template <class Matrix>
MomentsResult moments_aug_spmv_impl(const Matrix& h, const physics::Scaling& s,
                                    const MomentParams& p, bool permute) {
  check_params(p);
  const auto n = static_cast<std::size_t>(h.nrows());
  MomentsResult out;
  out.dimension = h.nrows();
  RandomVectorSource rng(p.seed, p.vector_kind);
  aligned_vector<complex_t> v(n), w(n), tmp(n);

  for (int r = 0; r < p.num_random; ++r) {
    std::vector<double> eta(static_cast<std::size_t>(p.num_moments), 0.0);
    if (permute) {
      // SELL kernels act in the permuted numbering; generate in original
      // order (same seed stream as CRS) and permute for exact equivalence.
      rng.fill(tmp);
      if constexpr (std::is_same_v<Matrix, sparse::SellMatrix>) {
        h.permute(tmp, v);
      }
    } else {
      rng.fill(v);
    }
    complex_t dvv{}, dwv{};
    // Start-up: w = a(H - b1)v, eta_0/eta_1 on the fly (gamma = 0 makes the
    // kernel ignore the old w contents).
    sparse::aug_spmv(h, sparse::AugScalars::startup(s.a, s.b), v, w, &dvv,
                     &dwv);
    eta[0] = dvv.real();
    if (p.num_moments > 1) eta[1] = dwv.real();
    out.ops.spmv_equivalents += 1;
    out.ops.matrix_streams += 1;

    const auto rec = sparse::AugScalars::recurrence(s.a, s.b);
    for (int m = 1; 2 * m + 1 < p.num_moments; ++m) {
      std::swap(v, w);
      sparse::aug_spmv(h, rec, v, w, &dvv, &dwv);
      eta[static_cast<std::size_t>(2 * m)] = dvv.real();
      eta[static_cast<std::size_t>(2 * m + 1)] = dwv.real();
      out.ops.spmv_equivalents += 1;
      out.ops.matrix_streams += 1;
    }
    // One global reduction per random vector (end of the inner loop).
    out.ops.global_reductions += 1;
    eta_to_mu(eta);
    out.per_vector.push_back(std::move(eta));
  }
  average_columns(out, p.num_moments, p.num_random);
  return out;
}

/// Scalar SELL-C-sigma has no OperatorRef (its kernels are the Fig. 9-10
/// ablation, not a session format), so it keeps its own blocked loop.
MomentsResult moments_aug_spmmv_sell(const sparse::SellMatrix& h,
                                     const physics::Scaling& s,
                                     const MomentParams& p) {
  check_params(p);
  const global_index n = h.nrows();
  const int width = p.num_random;
  MomentsResult out;
  out.dimension = n;

  // Same random streams as every other stage, generated in the original
  // row order and permuted into the SELL numbering.
  blas::BlockVector v(n, width), w(n, width);
  {
    blas::BlockVector start(n, width);
    RandomVectorSource(p.seed, p.vector_kind)
        .fill_block(start.span(), width, 0, width);
    h.permute(start, v);
  }

  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));
  std::vector<std::vector<double>> eta(
      static_cast<std::size_t>(width),
      std::vector<double>(static_cast<std::size_t>(p.num_moments), 0.0));

  sparse::aug_spmmv(h, sparse::AugScalars::startup(s.a, s.b), v, w, dvv, dwv);
  for (int r = 0; r < width; ++r) {
    eta[static_cast<std::size_t>(r)][0] = dvv[static_cast<std::size_t>(r)].real();
    if (p.num_moments > 1) {
      eta[static_cast<std::size_t>(r)][1] =
          dwv[static_cast<std::size_t>(r)].real();
    }
  }
  out.ops.spmv_equivalents += width;
  out.ops.matrix_streams += 1;
  if (p.reduction == ReductionMode::per_iteration) out.ops.global_reductions += 1;

  const auto rec = sparse::AugScalars::recurrence(s.a, s.b);
  for (int m = 1; 2 * m + 1 < p.num_moments; ++m) {
    std::swap(v, w);
    sparse::aug_spmmv(h, rec, v, w, dvv, dwv);
    for (int r = 0; r < width; ++r) {
      eta[static_cast<std::size_t>(r)][static_cast<std::size_t>(2 * m)] =
          dvv[static_cast<std::size_t>(r)].real();
      eta[static_cast<std::size_t>(r)][static_cast<std::size_t>(2 * m + 1)] =
          dwv[static_cast<std::size_t>(r)].real();
    }
    out.ops.spmv_equivalents += width;
    out.ops.matrix_streams += 1;
    if (p.reduction == ReductionMode::per_iteration) {
      out.ops.global_reductions += 1;
    }
  }
  if (p.reduction == ReductionMode::at_end) out.ops.global_reductions += 1;

  for (auto& column : eta) {
    eta_to_mu(column);
    out.per_vector.push_back(std::move(column));
  }
  average_columns(out, p.num_moments, p.num_random);
  return out;
}

}  // namespace

MomentsResult moments_aug_spmv(const sparse::CrsMatrix& h,
                               const physics::Scaling& s,
                               const MomentParams& p) {
  return moments_aug_spmv_impl(h, s, p, /*permute=*/false);
}

MomentsResult moments_aug_spmv(const sparse::SellMatrix& h,
                               const physics::Scaling& s,
                               const MomentParams& p) {
  return moments_aug_spmv_impl(h, s, p, /*permute=*/true);
}

namespace {

// Session-backed stochastic-trace run: the same object the multi-tenant
// service advances chunk by chunk, so "the service path" and "the library
// path" are one code path and bitwise-identical by construction.
MomentsResult moments_via_session(OperatorRef h, const physics::Scaling& s,
                                  const MomentParams& p) {
  check_params(p);
  const global_index n = h.nrows();
  const int width = p.num_random;
  blas::BlockVector v0(n, width, blas::Layout::row_major,
                       blas::FirstTouch::parallel);
  RandomVectorSource(p.seed, p.vector_kind)
      .fill_block(v0.span(), width, 0, width);
  SweepSession session(h, s, std::move(v0), p.num_moments);
  session.advance_all();

  MomentsResult out;
  out.dimension = n;
  for (int r = 0; r < width; ++r) {
    const auto mu = session.mu(r);
    out.per_vector.emplace_back(mu.begin(), mu.end());
  }
  out.ops.spmv_equivalents = session.lanes_swept();
  out.ops.matrix_streams = session.steps();
  out.ops.global_reductions =
      p.reduction == ReductionMode::per_iteration ? session.steps() : 1;
  average_columns(out, p.num_moments, p.num_random);
  return out;
}

}  // namespace

MomentsResult moments_aug_spmmv(const sparse::CrsMatrix& h,
                                const physics::Scaling& s,
                                const MomentParams& p) {
  return moments_via_session(h, s, p);
}

MomentsResult moments_aug_spmmv(const sparse::StencilOperator& h,
                                const physics::Scaling& s,
                                const MomentParams& p) {
  return moments_via_session(h, s, p);
}

MomentsResult moments_aug_spmmv(const sparse::SellMatrix& h,
                                const physics::Scaling& s,
                                const MomentParams& p) {
  return moments_aug_spmmv_sell(h, s, p);
}

MomentsResult moments_aug_spmmv(const sparse::BsrMatrix& h,
                                const physics::Scaling& s,
                                const MomentParams& p) {
  return moments_via_session(h, s, p);
}

MomentsResult moments_aug_spmmv(const sparse::SellBlockMatrix& h,
                                const physics::Scaling& s,
                                const MomentParams& p) {
  return moments_via_session(h, s, p);
}

std::vector<double> moments_of_vector(const sparse::CrsMatrix& h,
                                      const physics::Scaling& s,
                                      std::span<const complex_t> v0,
                                      int num_moments) {
  require(num_moments >= 2 && num_moments % 2 == 0,
          "moments_of_vector: num_moments must be even and >= 2");
  const auto n = static_cast<std::size_t>(h.nrows());
  require(v0.size() == n, "moments_of_vector: size mismatch");
  aligned_vector<complex_t> v(v0.begin(), v0.end());
  aligned_vector<complex_t> w(n);
  std::vector<double> eta(static_cast<std::size_t>(num_moments), 0.0);
  complex_t dvv{}, dwv{};
  sparse::aug_spmv(h, sparse::AugScalars::startup(s.a, s.b), v, w, &dvv, &dwv);
  eta[0] = dvv.real();
  if (num_moments > 1) eta[1] = dwv.real();
  const auto rec = sparse::AugScalars::recurrence(s.a, s.b);
  for (int m = 1; 2 * m + 1 < num_moments; ++m) {
    std::swap(v, w);
    sparse::aug_spmv(h, rec, v, w, &dvv, &dwv);
    eta[static_cast<std::size_t>(2 * m)] = dvv.real();
    eta[static_cast<std::size_t>(2 * m + 1)] = dwv.real();
  }
  eta_to_mu(eta);
  return eta;
}

std::vector<std::vector<double>> moments_of_block(OperatorRef h,
                                                  const physics::Scaling& s,
                                                  const blas::BlockVector& v0,
                                                  int num_moments) {
  // One uninterrupted SweepSession — the reference run every chunked /
  // resumed / coalesced service solve must (and does) match bitwise.
  SweepSession session(h, s, v0, num_moments);
  session.advance_all();
  std::vector<std::vector<double>> out;
  out.reserve(static_cast<std::size_t>(v0.width()));
  for (int r = 0; r < v0.width(); ++r) {
    const auto mu = session.mu(r);
    out.emplace_back(mu.begin(), mu.end());
  }
  return out;
}

}  // namespace kpm::core
