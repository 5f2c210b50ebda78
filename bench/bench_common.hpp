// Shared helpers for the benchmark harness: standard test matrices, a
// best-of-k kernel timer, and host-performance measurement of the KPM
// kernels.
//
// Absolute Gflop/s on this host are NOT expected to match the paper's
// IVB/SNB/K20 numbers (different silicon); every bench therefore prints the
// *model* series for the paper's machines next to the host measurement so
// the shapes can be compared.
#pragma once

#include <cstdio>
#include <cstdlib>

#include "blas/level1.hpp"
#include "core/moments.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/matrix_stats.hpp"
#include "sparse/spmv.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace kpm::bench {

/// Standard node-level test matrix.  The paper uses 100 x 100 x 40
/// (N = 1.6e6); the default here is a quarter-scale slab that keeps every
/// bench under a minute on a laptop core.  Override with env KPM_BENCH_NX
/// etc. for full-scale runs.
inline sparse::CrsMatrix benchmark_matrix(int nx = 0, int ny = 0, int nz = 0) {
  auto env_or = [](const char* name, int fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoi(v) : fallback;
  };
  physics::TIParams p;
  p.nx = nx > 0 ? nx : env_or("KPM_BENCH_NX", 48);
  p.ny = ny > 0 ? ny : env_or("KPM_BENCH_NY", 48);
  p.nz = nz > 0 ? nz : env_or("KPM_BENCH_NZ", 20);
  return physics::build_ti_hamiltonian(p);
}

/// Flops of one fused aug_spmmv sweep at block width R (Table I rates).
inline double sweep_flops(const sparse::CrsMatrix& h, int width) {
  return width * (static_cast<double>(h.nnz()) *
                      (flops_complex_add + flops_complex_mul) +
                  static_cast<double>(h.nrows()) *
                      (7.0 * flops_complex_add / 2.0 +
                       9.0 * flops_complex_mul / 2.0));
}

/// Measures the sustained host Gflop/s of one aug_spmmv sweep at width R.
inline double measure_aug_spmmv_gflops(const sparse::CrsMatrix& h, int width,
                                       double min_seconds = 0.25) {
  blas::BlockVector v(h.nrows(), width), w(h.nrows(), width);
  for (global_index i = 0; i < h.nrows(); ++i) {
    for (int r = 0; r < width; ++r) {
      v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.1};
    }
  }
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));
  const auto rec = sparse::AugScalars::recurrence(0.2, 0.0);
  // Warm-up sweep, then best-of timing.
  sparse::aug_spmmv(h, rec, v, w, dvv, dwv);
  const double best = time_best(
      [&] { sparse::aug_spmmv(h, rec, v, w, dvv, dwv); }, min_seconds, 3);
  return sweep_flops(h, width) / best / 1e9;
}

/// Measures one naive-pipeline iteration (Fig. 3 BLAS chain), Gflop/s.
inline double measure_naive_gflops(const sparse::CrsMatrix& h,
                                   double min_seconds = 0.25) {
  const auto n = static_cast<std::size_t>(h.nrows());
  aligned_vector<complex_t> v(n), w(n), u(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {1.0 / (1.0 + static_cast<double>(i)), 0.1};
  }
  volatile double sink = 0.0;
  auto iteration = [&] {
    sparse::spmv(h, v, u);
    blas::axpy({-0.1, 0.0}, v, u);
    blas::scal({-1.0, 0.0}, w);
    blas::axpy({0.4, 0.0}, u, w);
    sink = sink + blas::dot_self(v) + blas::dot(w, v).real();
  };
  iteration();
  const double best = time_best(iteration, min_seconds, 3);
  return sweep_flops(h, 1) / best / 1e9;
}

/// Standard bench-header line for the matrix's block structure: the block
/// fill ratio beta for b in {2, 4, 8} (DESIGN §5f).  A block format streams
/// (Sd' + Si')/beta bytes per nonzero, so this line is the record of why a
/// BSR run was or wasn't profitable on this matrix.
inline void print_block_structure(const sparse::CrsMatrix& h) {
  std::printf("block structure: beta(2x2) = %.4f, beta(4x4) = %.4f, "
              "beta(8x8) = %.4f\n",
              sparse::block_fill_ratio(h, 2), sparse::block_fill_ratio(h, 4),
              sparse::block_fill_ratio(h, 8));
}

inline void print_host_banner() {
  std::printf("host: %d OpenMP thread(s); absolute rates are host-specific, "
              "compare shapes with the model columns\n",
              max_threads());
}

}  // namespace kpm::bench
