// 3D topological-insulator Hamiltonian (paper Eq. 1) on a finite
// Nx x Ny x Nz lattice with 4 spin-orbital components per site:
//
//   H = -t sum_n sum_{j=1,2,3} [ Psi^dag_{n+e_j} (Gamma1 - i Gamma_{j+1})/2 Psi_n + H.c. ]
//       + sum_n Psi^dag_n ( V_n Gamma0 + 2 Gamma1 ) Psi_n
//
// Matrix dimension N = 4 Nx Ny Nz, complex Hermitian, Nnz ~ 13 N.  Periodic
// boundary conditions in x and y produce the outlying corner diagonals the
// paper mentions; z is open (a slab) by default.  The external potential
// V_n models a quantum-dot superlattice or on-site disorder.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "sparse/bsr.hpp"
#include "sparse/crs.hpp"
#include "util/types.hpp"

namespace kpm::physics {

/// Lattice site coordinates.
struct Site {
  int x = 0;
  int y = 0;
  int z = 0;
};

/// Quantum-dot superlattice: dots of radius `radius` (in-plane) whose centres
/// form a square grid of period `period` in the x-y plane; inside a dot the
/// potential is `depth` (paper Fig. 2: radius 25, period D = 100,
/// VDot = 0.153).
struct DotLattice {
  double period = 100.0;
  double radius = 25.0;
  double depth = 0.153;
  /// Restrict the dots to the top surface layers z < surface_depth
  /// (set to Nz to fill the whole slab).
  int surface_depth = 1;

  [[nodiscard]] double potential(const Site& s) const;
};

struct TIParams {
  int nx = 10;
  int ny = 10;
  int nz = 4;
  double t = 1.0;
  bool periodic_x = true;
  bool periodic_y = true;
  bool periodic_z = false;
  /// External potential V_n; default none.
  std::function<double(const Site&)> potential;

  [[nodiscard]] global_index dimension() const {
    return 4LL * nx * ny * nz;
  }
};

/// Linear index of (site, orbital): 4*(x + Nx*(y + Ny*z)) + orbital.
[[nodiscard]] global_index site_index(const TIParams& p, const Site& s,
                                      int orbital);

/// Builds the sparse Hamiltonian.  The result is Hermitian by construction.
/// `p.potential` is called exactly once per site, serially, in z-y-x order
/// (it may hold state); the rows are then assembled in parallel.  Block
/// entries that compare equal to zero are not stored.
[[nodiscard]] sparse::CrsMatrix build_ti_hamiltonian(const TIParams& p);

/// Builds the same Hamiltonian in 4x4 block form — one dense site block per
/// (site, neighbour) pair, from the same per-site walk.  The nonzero values
/// are bitwise identical to build_ti_hamiltonian() (f64 precision);
/// MatrixPrecision::f32 narrows the stored values once at assembly.
[[nodiscard]] sparse::BsrMatrix build_ti_hamiltonian_bsr(
    const TIParams& p,
    sparse::MatrixPrecision precision = sparse::MatrixPrecision::f64);

/// Exact Bloch eigenvalues (4 per k point, two doubly-degenerate branches)
/// for the fully periodic, potential-free case — validation only.
/// Returns all N eigenvalues sorted ascending.
[[nodiscard]] std::vector<double> exact_ti_spectrum_periodic(const TIParams& p);

}  // namespace kpm::physics
