#include "physics/ti_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "physics/dirac.hpp"
#include "util/check.hpp"
#include "util/schedule.hpp"

namespace kpm::physics {
namespace {

#ifndef _OPENMP
inline int omp_get_num_threads() { return 1; }
inline int omp_get_thread_num() { return 0; }
#endif

/// One stored 4x4 block of a block row: (block column, block).
struct Block {
  global_index col;
  const Mat4* value;
};

/// The block rows of the TI lattice.  Block row n couples site n to itself
/// (on-site block), to n+e_j via T_j^dag and to n-e_j via T_j (the two
/// halves of each Hermitian hopping pair).  A periodic axis needs more than
/// two sites, so the up to seven block columns of a row are distinct.
class Lattice {
 public:
  explicit Lattice(const TIParams& p)
      : t_(p.t),
        extent_{p.nx, p.ny, p.nz},
        periodic_{p.periodic_x, p.periodic_y, p.periodic_z},
        stride_{1, static_cast<global_index>(p.nx),
                static_cast<global_index>(p.nx) * p.ny},
        hop_{hopping_block(1, p.t), hopping_block(2, p.t),
             hopping_block(3, p.t)},
        hop_adj_{adjoint(hop_[0]), adjoint(hop_[1]), adjoint(hop_[2])} {
    require(p.nx >= 1 && p.ny >= 1 && p.nz >= 1, "TI: lattice extents >= 1");
    require(!p.periodic_x || p.nx > 2, "TI: periodic x needs Nx > 2");
    require(!p.periodic_y || p.ny > 2, "TI: periodic y needs Ny > 2");
    require(!p.periodic_z || p.nz > 2, "TI: periodic z needs Nz > 2");
    // Serially, once per site, in z-y-x order: the callback may hold state.
    if (p.potential) {
      potential_.reserve(static_cast<std::size_t>(sites()));
      for (int z = 0; z < p.nz; ++z) {
        for (int y = 0; y < p.ny; ++y) {
          for (int x = 0; x < p.nx; ++x) {
            potential_.push_back(p.potential(Site{x, y, z}));
          }
        }
      }
    }
  }

  [[nodiscard]] global_index sites() const noexcept {
    return stride_[2] * extent_[2];
  }

  /// Calls f(n, row) for every site n, in parallel over static chunks of
  /// sites; `row` holds the block row of n in ascending column order.
  template <class F>
  void for_each_block_row(F&& f) const {
#pragma omp parallel
    {
      const auto mine = static_chunk<global_index>(
          0, sites(), omp_get_thread_num(), omp_get_num_threads());
      std::array<Block, 7> row;
      for (global_index n = mine.begin; n < mine.end; ++n) {
        const Mat4 onsite = onsite_block(
            potential_.empty() ? 0.0 : potential_[static_cast<std::size_t>(n)],
            t_);
        f(n, block_row(n, onsite, row));
      }
    }
  }

 private:
  std::span<const Block> block_row(global_index n, const Mat4& onsite,
                                   std::array<Block, 7>& row) const {
    const std::array<global_index, 3> coord = {
        n % extent_[0], n / stride_[1] % extent_[1], n / stride_[2]};
    std::size_t len = 0;
    row[len++] = {n, &onsite};
    for (int j = 0; j < 3; ++j) {
      for (const int dir : {+1, -1}) {
        global_index c = coord[j] + dir;
        if (c < 0 || c >= extent_[j]) {
          if (!periodic_[j]) continue;
          c = (c + extent_[j]) % extent_[j];
        }
        row[len++] = {n + (c - coord[j]) * stride_[j],
                      dir > 0 ? &hop_adj_[j] : &hop_[j]};
      }
    }
    std::sort(row.begin(), row.begin() + len,
              [](const Block& a, const Block& b) { return a.col < b.col; });
    return {row.data(), len};
  }

  double t_;
  std::array<global_index, 3> extent_;
  std::array<bool, 3> periodic_;
  std::array<global_index, 3> stride_;
  std::array<Mat4, 3> hop_;
  std::array<Mat4, 3> hop_adj_;
  std::vector<double> potential_;  ///< per site; empty without a potential
};

}  // namespace

double DotLattice::potential(const Site& s) const {
  if (s.z >= surface_depth) return 0.0;
  // Distance to the nearest dot centre of the square superlattice.
  const double cx = std::round(s.x / period) * period;
  const double cy = std::round(s.y / period) * period;
  const double dx = s.x - cx;
  const double dy = s.y - cy;
  return dx * dx + dy * dy <= radius * radius ? depth : 0.0;
}

global_index site_index(const TIParams& p, const Site& s, int orbital) {
  return 4LL * (s.x + static_cast<global_index>(p.nx) *
                          (s.y + static_cast<global_index>(p.ny) * s.z)) +
         orbital;
}

sparse::CrsMatrix build_ti_hamiltonian(const TIParams& p) {
  const Lattice lattice(p);
  const global_index dim = p.dimension();
  require(dim <= std::numeric_limits<local_index>::max(),
          "TI: dimension exceeds local (32-bit) index range");
  // Row 4n+a holds row a of each block of block row n, in column order,
  // without the entries that compare equal to zero.  Count, then fill.
  aligned_vector<global_index> row_ptr(static_cast<std::size_t>(dim) + 1, 0);
  lattice.for_each_block_row([&](global_index n, std::span<const Block> row) {
    for (int a = 0; a < 4; ++a) {
      global_index stored = 0;
      for (const Block& blk : row) {
        for (int b = 0; b < 4; ++b) stored += (*blk.value)[a][b] != complex_t{};
      }
      row_ptr[static_cast<std::size_t>(4 * n + a) + 1] = stored;
    }
  });
  for (std::size_t i = 1; i < row_ptr.size(); ++i) row_ptr[i] += row_ptr[i - 1];

  const auto nnz = static_cast<std::size_t>(row_ptr.back());
  aligned_vector<local_index> col_idx(nnz);
  aligned_vector<complex_t> values(nnz);
  lattice.for_each_block_row([&](global_index n, std::span<const Block> row) {
    for (int a = 0; a < 4; ++a) {
      auto k = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(
          4 * n + a)]);
      for (const Block& blk : row) {
        for (int b = 0; b < 4; ++b) {
          const complex_t v = (*blk.value)[a][b];
          if (v == complex_t{}) continue;
          col_idx[k] = static_cast<local_index>(4 * blk.col + b);
          values[k] = v;
          ++k;
        }
      }
    }
  });
  return sparse::CrsMatrix(dim, dim, std::move(row_ptr), std::move(col_idx),
                           std::move(values));
}

sparse::BsrMatrix build_ti_hamiltonian_bsr(const TIParams& p,
                                           sparse::MatrixPrecision precision) {
  const Lattice lattice(p);
  const global_index dim = p.dimension();
  aligned_vector<global_index> bptr(
      static_cast<std::size_t>(lattice.sites()) + 1, 0);
  lattice.for_each_block_row([&](global_index n, std::span<const Block> row) {
    bptr[static_cast<std::size_t>(n) + 1] =
        static_cast<global_index>(row.size());
  });
  for (std::size_t i = 1; i < bptr.size(); ++i) bptr[i] += bptr[i - 1];

  const auto nblocks = static_cast<std::size_t>(bptr.back());
  aligned_vector<local_index> bcol(nblocks);
  aligned_vector<complex_t> vals(nblocks * 16);
  lattice.for_each_block_row([&](global_index n, std::span<const Block> row) {
    auto k = static_cast<std::size_t>(bptr[static_cast<std::size_t>(n)]);
    for (const Block& blk : row) {
      bcol[k] = static_cast<local_index>(blk.col);
      // Column-major within the 4x4 block (the BsrMatrix layout).
      complex_t* dst = vals.data() + 16 * k;
      for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) dst[4 * b + a] = (*blk.value)[a][b];
      }
      ++k;
    }
  });
  return sparse::BsrMatrix(dim, dim, 4, std::move(bptr), std::move(bcol),
                           std::move(vals), precision);
}

std::vector<double> exact_ti_spectrum_periodic(const TIParams& p) {
  require(p.periodic_x && p.periodic_y && p.periodic_z && !p.potential,
          "exact spectrum: fully periodic, potential-free case only");
  // H(k) = Gamma1 (2t - t sum_j cos k_j) + t sum_j Gamma_{j+1} sin k_j
  // => E(k) = +- sqrt( (2t - t sum cos)^2 + t^2 sum sin^2 ), each twice.
  std::vector<double> evals;
  evals.reserve(static_cast<std::size_t>(p.dimension()));
  for (int ix = 0; ix < p.nx; ++ix) {
    for (int iy = 0; iy < p.ny; ++iy) {
      for (int iz = 0; iz < p.nz; ++iz) {
        const double kx = 2.0 * pi * ix / p.nx;
        const double ky = 2.0 * pi * iy / p.ny;
        const double kz = 2.0 * pi * iz / p.nz;
        const double mass =
            2.0 * p.t - p.t * (std::cos(kx) + std::cos(ky) + std::cos(kz));
        const double kin2 =
            p.t * p.t * (std::sin(kx) * std::sin(kx) +
                         std::sin(ky) * std::sin(ky) +
                         std::sin(kz) * std::sin(kz));
        const double e = std::sqrt(mass * mass + kin2);
        evals.push_back(-e);
        evals.push_back(-e);
        evals.push_back(e);
        evals.push_back(e);
      }
    }
  }
  std::sort(evals.begin(), evals.end());
  return evals;
}

}  // namespace kpm::physics
