// Spectral interval estimation for the KPM rescaling H~ = a(H - b·1).
//
// The Chebyshev expansion requires spec(H~) ⊂ [-1, 1].  The paper (Sec. II)
// determines suitable a, b "with Gershgorin's circle theorem or a few
// Lanczos sweeps"; both are provided here.
#pragma once

#include <cstdint>

#include "sparse/crs.hpp"
#include "util/types.hpp"

namespace kpm::sparse {
class StencilOperator;
}

namespace kpm::physics {

struct SpectralInterval {
  double lower = 0.0;
  double upper = 0.0;

  [[nodiscard]] double center() const noexcept { return 0.5 * (lower + upper); }
  [[nodiscard]] double half_width() const noexcept {
    return 0.5 * (upper - lower);
  }
};

/// Scaling pair of H~ = a(H - b·1).
struct Scaling {
  double a = 1.0;  ///< 1 / half-width (with safety margin)
  double b = 0.0;  ///< spectrum centre

  /// Maps an eigenvalue of H to the Chebyshev variable x in [-1, 1].
  [[nodiscard]] double to_unit(double e) const noexcept { return a * (e - b); }
  /// Inverse map.
  [[nodiscard]] double to_energy(double x) const noexcept {
    return x / a + b;
  }
};

/// Gershgorin circle theorem bound: every eigenvalue lies in the union of
/// discs centred at a_ii with radius sum_{j != i} |a_ij|.  Cheap, safe,
/// usually loose by a factor of ~1.3-2 for stencil matrices.
[[nodiscard]] SpectralInterval gershgorin_bounds(const sparse::CrsMatrix& h);

/// Matrix-free Gershgorin bound on a (global-form) stencil operator: the
/// interior disc per orbital comes straight from the term table (one
/// center/radius per ib, plus the per-row diagonal stream), boundary rows
/// from their stored entry lists — no assembled matrix is ever needed, and
/// the result equals gershgorin_bounds() of the assembled CRS.
[[nodiscard]] SpectralInterval gershgorin_bounds(
    const sparse::StencilOperator& h);

/// Extremal eigenvalue estimate from `sweeps` steps of the plain three-term
/// Lanczos recurrence: three N-vectors, O(N) memory, no stored basis and no
/// reorthogonalization.  The extreme Ritz values are an inner estimate of
/// the spectrum (never outside it, up to rounding), so callers should add a
/// safety margin.
[[nodiscard]] SpectralInterval lanczos_bounds(const sparse::CrsMatrix& h,
                                              int sweeps = 30,
                                              std::uint64_t seed = 123);

/// Builds the scaling from an interval, shrinking by `epsilon` (paper
/// convention: a = (1 - eps/2) / half_width keeps the spectrum strictly
/// inside [-1, 1]).
[[nodiscard]] Scaling make_scaling(const SpectralInterval& iv,
                                   double epsilon = 0.01);

}  // namespace kpm::physics
