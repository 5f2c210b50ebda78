// Chebyshev moment computation — the three optimization stages of the paper.
//
//   Stage 0  moments_naive()      Fig. 3: SpMV + chain of BLAS-1 calls
//   Stage 1  moments_aug_spmv()   Fig. 4: one fused aug_spmv() per step
//   Stage 2  moments_aug_spmmv()  Fig. 5: blocked aug_spmmv() over all R
//
// All stages compute identical moment sequences (up to floating-point
// round-off); they differ only in data traffic.  The moments are
//   mu_m = (1/R) sum_r <v0_r | T_m(H~) | v0_r>,  H~ = a(H - b·1),
// recovered from the on-the-fly products via the Chebyshev doubling
// identities mu_{2m} = 2 eta_{2m} - mu_0 and mu_{2m+1} = 2 eta_{2m+1} - mu_1
// with eta_{2m} = <v_m|v_m>, eta_{2m+1} = <v_{m+1}|v_m>.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sweep_session.hpp"
#include "physics/spectral_bounds.hpp"
#include "sparse/bsr.hpp"
#include "sparse/crs.hpp"
#include "sparse/sell.hpp"
#include "sparse/stencil.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace kpm::core {

/// When the distributed/blocked solver synchronizes its dot products.
/// `at_end` is the paper's optimal variant (one global reduction after the
/// loop); `per_iteration` is the aug_spmmv* variant of Table III.
enum class ReductionMode { at_end, per_iteration };

struct MomentParams {
  int num_moments = 512;  ///< M (even, >= 2); moments mu_0 .. mu_{M-1}
  int num_random = 8;     ///< R random vectors for the stochastic trace
  std::uint64_t seed = 7;
  RandomVectorKind vector_kind = RandomVectorKind::phase;
  ReductionMode reduction = ReductionMode::at_end;
};

/// Resource counters mirroring the paper's traffic accounting.
struct OpCounters {
  long long spmv_equivalents = 0;   ///< single-vector SpMV applications
  long long matrix_streams = 0;     ///< times the matrix is read end-to-end
  long long global_reductions = 0;  ///< synchronizing reduction events
};

struct MomentsResult {
  std::vector<double> mu;                        ///< averaged, size M
  std::vector<std::vector<double>> per_vector;   ///< R x M (before averaging)
  global_index dimension = 0;
  OpCounters ops;
};

// --- Stage 0: naive pipeline (CRS only; the baseline) -----------------------
[[nodiscard]] MomentsResult moments_naive(const sparse::CrsMatrix& h,
                                          const physics::Scaling& s,
                                          const MomentParams& p);

// --- Stage 1: fused augmented SpMV ------------------------------------------
[[nodiscard]] MomentsResult moments_aug_spmv(const sparse::CrsMatrix& h,
                                             const physics::Scaling& s,
                                             const MomentParams& p);
[[nodiscard]] MomentsResult moments_aug_spmv(const sparse::SellMatrix& h,
                                             const physics::Scaling& s,
                                             const MomentParams& p);

// --- Stage 2: blocked augmented SpMMV ---------------------------------------
[[nodiscard]] MomentsResult moments_aug_spmmv(const sparse::CrsMatrix& h,
                                              const physics::Scaling& s,
                                              const MomentParams& p);
[[nodiscard]] MomentsResult moments_aug_spmmv(const sparse::SellMatrix& h,
                                              const physics::Scaling& s,
                                              const MomentParams& p);
/// Block-format variant (DESIGN.md §5f): same pipeline on BSR storage,
/// including the mixed-precision (f32-value) matrix path — the
/// random-vector streams and accumulator precision are unchanged.
[[nodiscard]] MomentsResult moments_aug_spmmv(const sparse::BsrMatrix& h,
                                              const physics::Scaling& s,
                                              const MomentParams& p);
/// Matrix-free stencil variant (DESIGN.md §5h): runs on the same
/// SweepSession as the CRS overload, so its moments are bitwise identical
/// to the assembled-CRS moments of the same model.
[[nodiscard]] MomentsResult moments_aug_spmmv(const sparse::StencilOperator& h,
                                              const physics::Scaling& s,
                                              const MomentParams& p);

/// Moments <v0|T_m(H~)|v0> of one prescribed start vector (LDOS, spectral
/// function).  `v0` need not be normalized; moments scale with <v0|v0>.
[[nodiscard]] std::vector<double> moments_of_vector(
    const sparse::CrsMatrix& h, const physics::Scaling& s,
    std::span<const complex_t> v0, int num_moments);

/// Block version: one prescribed start vector per block column.  Accepts any
/// sweepable operator (CRS, BSR, stencil) via OperatorRef.
[[nodiscard]] std::vector<std::vector<double>> moments_of_block(
    OperatorRef h, const physics::Scaling& s, const blas::BlockVector& v0,
    int num_moments);

}  // namespace kpm::core
