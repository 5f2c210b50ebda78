// Tests for the overlapped (split-phase) halo exchange and the run-list
// fused kernel behind it.
#include <gtest/gtest.h>

#include <array>

#include "blas/block_ops.hpp"
#include "core/moments.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"
#include "runtime/dist_kpm.hpp"
#include "sparse/kpm_kernels.hpp"
#include "util/check.hpp"

namespace kpm {
namespace {

sparse::CrsMatrix test_matrix() {
  physics::TIParams p;
  p.nx = 6;
  p.ny = 6;
  p.nz = 6;
  return physics::build_ti_hamiltonian(p);
}

/// The one-run list [begin, end): a partial sweep over one row interval.
std::array<IndexRange<global_index>, 1> one_run(global_index begin,
                                                global_index end) {
  return {{{begin, end}}};
}

TEST(AugSpmmvRows, PartialCallsComposeToFullKernel) {
  const auto h = test_matrix();
  const auto sc = sparse::AugScalars::recurrence(0.3, -0.1);
  const int width = 4;
  blas::BlockVector v(h.nrows(), width);
  blas::BlockVector w_full(h.nrows(), width), w_split(h.nrows(), width);
  for (global_index i = 0; i < h.nrows(); ++i) {
    for (int r = 0; r < width; ++r) {
      v(i, r) = {std::sin(0.1 * static_cast<double>(i + r)), 0.2};
      w_full(i, r) = {0.5, -0.5};
      w_split(i, r) = {0.5, -0.5};
    }
  }
  std::vector<complex_t> vv_full(width), wv_full(width);
  sparse::aug_spmmv(h, sc, v, w_full, vv_full, wv_full);

  std::vector<complex_t> vv_split(width, complex_t{}),
      wv_split(width, complex_t{});
  const global_index cut1 = h.nrows() / 3;
  const global_index cut2 = 2 * h.nrows() / 3;
  sparse::aug_spmmv_runs(h, sc, v, w_split, one_run(cut1, cut2), vv_split,
                         wv_split);
  sparse::aug_spmmv_runs(h, sc, v, w_split, one_run(0, cut1), vv_split,
                         wv_split);
  sparse::aug_spmmv_runs(h, sc, v, w_split, one_run(cut2, h.nrows()), vv_split,
                         wv_split);
  EXPECT_LT(blas::max_abs_diff(w_full, w_split), 1e-12);
  for (int r = 0; r < width; ++r) {
    EXPECT_NEAR(std::abs(vv_full[static_cast<std::size_t>(r)] -
                         vv_split[static_cast<std::size_t>(r)]),
                0.0, 1e-10);
    EXPECT_NEAR(std::abs(wv_full[static_cast<std::size_t>(r)] -
                         wv_split[static_cast<std::size_t>(r)]),
                0.0, 1e-10);
  }
}

TEST(AugSpmmvRows, EmptyAndInvalidRanges) {
  const auto h = test_matrix();
  const auto sc = sparse::AugScalars::recurrence(0.3, 0.0);
  blas::BlockVector v(h.nrows(), 2), w(h.nrows(), 2);
  std::vector<complex_t> vv(2), wv(2);
  // Empty range: no-op.
  sparse::aug_spmmv_runs(h, sc, v, w, one_run(5, 5), vv, wv);
  EXPECT_EQ(vv[0], complex_t{});
  EXPECT_THROW(sparse::aug_spmmv_runs(h, sc, v, w, one_run(10, 5), vv, wv),
               contract_error);
  EXPECT_THROW(
      sparse::aug_spmmv_runs(h, sc, v, w, one_run(0, h.nrows() + 1), vv, wv),
      contract_error);
}

TEST(Overlap, InteriorRowsReferenceNoHalo) {
  // Thick slab: each rank owns several z layers, so the interior (layers
  // not adjacent to a partition boundary) must be a substantial share.
  physics::TIParams tp;
  tp.nx = 6;
  tp.ny = 6;
  tp.nz = 12;
  const auto h = physics::build_ti_hamiltonian(tp);
  for (int nranks : {2, 3}) {
    const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
    runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
      runtime::DistributedMatrix dist(c, h, part);
      const auto& local = dist.local();
      for (global_index i = dist.interior_begin(); i < dist.interior_end();
           ++i) {
        for (const auto col : local.row_cols(i)) {
          ASSERT_LT(col, dist.local_rows())
              << "interior row " << i << " references halo column";
        }
      }
      // The interior must be a substantial share for a slab partition.
      if (dist.local_rows() > 0 && dist.halo_size() > 0) {
        EXPECT_GT(dist.interior_end() - dist.interior_begin(),
                  dist.local_rows() / 4);
      }
    });
  }
}

TEST(Overlap, OverlappedMomentsMatchPlainAndSerial) {
  const auto h = test_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 24;
  mp.num_random = 3;
  const auto serial = core::moments_aug_spmmv(h, s, mp);
  for (int nranks : {1, 2, 4}) {
    const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
    runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
      runtime::DistributedMatrix dist(c, h, part);
      const auto plain = runtime::distributed_moments(c, dist, s, mp);
      const auto overlapped =
          runtime::distributed_moments_overlapped(c, dist, s, mp);
      for (std::size_t m = 0; m < serial.mu.size(); ++m) {
        EXPECT_NEAR(overlapped.mu[m], plain.mu[m], 1e-10)
            << "ranks=" << nranks << " m=" << m;
        EXPECT_NEAR(overlapped.mu[m], serial.mu[m], 1e-9)
            << "ranks=" << nranks << " m=" << m;
      }
      EXPECT_EQ(overlapped.ops.global_reductions, 1);
    });
  }
}

TEST(Overlap, WorksWithWeightedPartitions) {
  const auto h = test_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 16;
  mp.num_random = 2;
  const auto serial = core::moments_aug_spmmv(h, s, mp);
  const std::vector<double> weights = {0.15, 0.55, 0.3};
  const auto part = runtime::RowPartition::weighted(h.nrows(), weights);
  runtime::run_ranks(3, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix dist(c, h, part);
    const auto res = runtime::distributed_moments_overlapped(c, dist, s, mp);
    for (std::size_t m = 0; m < serial.mu.size(); ++m) {
      EXPECT_NEAR(res.mu[m], serial.mu[m], 1e-9);
    }
  });
}

}  // namespace
}  // namespace kpm
