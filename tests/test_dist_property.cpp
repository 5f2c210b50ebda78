// Property tests of the distributed moments path: randomized partitions
// (including empty ranks and halo-free block-diagonal splits) across block
// widths R ∈ {1, 4, 32} and 1–8 ranks must reproduce the serial solver to
// reduction round-off, and the overlapped variant must match the
// non-overlapped one — including on partitions whose boundary rows are
// interleaved with the interior, where the run-list overlap processes
// strictly more rows than the old contiguous-prefix window.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/moments.hpp"
#include "physics/spectral_bounds.hpp"
#include "physics/stencil_models.hpp"
#include "physics/ti_model.hpp"
#include "runtime/dist_kpm.hpp"
#include "runtime/dist_matrix.hpp"
#include "runtime/elastic.hpp"
#include "sparse/coo.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/stencil.hpp"
#include "util/check.hpp"

namespace kpm {
namespace {

physics::TIParams ti_params() {
  physics::TIParams p;
  p.nx = 4;
  p.ny = 4;
  p.nz = 6;
  return p;
}

sparse::CrsMatrix ti_matrix() { return physics::build_ti_hamiltonian(ti_params()); }

/// Block-diagonal matrix: two decoupled tridiagonal blocks of `half` rows.
/// Split between ranks at the block edge there is no halo at all.
sparse::CrsMatrix block_diagonal_matrix(global_index half) {
  sparse::CooMatrix coo(2 * half, 2 * half);
  for (global_index b = 0; b < 2; ++b) {
    const global_index off = b * half;
    for (global_index i = 0; i < half; ++i) {
      coo.add(off + i, off + i, {0.1 * static_cast<double>(i % 7), 0.0});
      if (i + 1 < half) {
        coo.add(off + i, off + i + 1, {1.0, 0.25});
        coo.add(off + i + 1, off + i, {1.0, -0.25});
      }
    }
  }
  coo.compress();
  return sparse::CrsMatrix(coo);
}

/// Matrix whose off-diagonal couplings hit scattered rows: row i couples to
/// row (i + n/2) % n whenever i % 5 == 0, so boundary rows are interleaved
/// with interior rows on every contiguous partition.
sparse::CrsMatrix interleaved_boundary_matrix(global_index n) {
  sparse::CooMatrix coo(n, n);
  for (global_index i = 0; i < n; ++i) {
    coo.add(i, i, {1.0 + 0.01 * static_cast<double>(i % 11), 0.0});
    if (i + 1 < n) {
      coo.add(i, i + 1, {0.5, 0.1});
      coo.add(i + 1, i, {0.5, -0.1});
    }
    if (i % 5 == 0) {
      const global_index j = (i + n / 2) % n;
      if (j > i) {  // add each coupling once; the mirror entry covers j
        coo.add(i, j, {0.25, 0.0});
        coo.add(j, i, {0.25, 0.0});
      }
    }
  }
  coo.compress();
  return sparse::CrsMatrix(coo);
}

void expect_distributed_matches_serial(const sparse::CrsMatrix& h,
                                       const runtime::RowPartition& part,
                                       int width, int nranks,
                                       const char* what) {
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 12;
  mp.num_random = width;
  const auto serial = core::moments_aug_spmmv(h, s, mp);
  runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix dist(c, h, part);
    const auto plain = runtime::distributed_moments(c, dist, s, mp);
    const auto over = runtime::distributed_moments_overlapped(c, dist, s, mp);
    ASSERT_EQ(plain.mu.size(), serial.mu.size());
    for (std::size_t m = 0; m < serial.mu.size(); ++m) {
      EXPECT_NEAR(plain.mu[m], serial.mu[m], 1e-9)
          << what << " plain, R=" << width << " ranks=" << nranks
          << " m=" << m;
      EXPECT_NEAR(over.mu[m], plain.mu[m], 1e-10)
          << what << " overlapped-vs-plain, R=" << width
          << " ranks=" << nranks << " m=" << m;
    }
  });
}

TEST(DistProperty, RandomizedPartitionsMatchSerial) {
  const auto h = ti_matrix();
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> weight(0.05, 1.0);
  for (const int width : {1, 4, 32}) {
    for (const int nranks : {1, 2, 3, 5, 8}) {
      std::vector<double> weights(static_cast<std::size_t>(nranks));
      for (auto& w : weights) w = weight(rng);
      const auto part = runtime::RowPartition::weighted(h.nrows(), weights);
      expect_distributed_matches_serial(h, part, width, nranks, "random");
    }
  }
}

TEST(DistProperty, EmptyRankPartitions) {
  const auto h = ti_matrix();
  // Near-zero weights starve the middle ranks of rows entirely — legal only
  // when the caller opts out of the min_rows floor (weighted() defaults to
  // one row per rank precisely so model-weight skew cannot starve a rank by
  // accident).
  for (const int nranks : {4, 8}) {
    std::vector<double> weights(static_cast<std::size_t>(nranks), 1e-9);
    weights.front() = 1.0;
    weights.back() = 1.0;
    const auto part =
        runtime::RowPartition::weighted(h.nrows(), weights, /*min_rows=*/0);
    bool has_empty = false;
    for (int r = 0; r < nranks; ++r) has_empty |= part.local_rows(r) == 0;
    ASSERT_TRUE(has_empty) << "partition failed to produce an empty rank";
    for (const int width : {1, 4, 32}) {
      expect_distributed_matches_serial(h, part, width, nranks, "empty-rank");
    }
  }
}

TEST(DistProperty, NoHaloPartition) {
  const auto h = block_diagonal_matrix(48);
  const auto part = runtime::RowPartition::uniform(h.nrows(), 2);
  runtime::run_ranks(2, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix dist(c, h, part);
    EXPECT_EQ(dist.halo_size(), 0);
    EXPECT_EQ(dist.boundary_row_count(), 0);
    EXPECT_EQ(dist.interior_row_count(), dist.local_rows());
  });
  for (const int width : {1, 4, 32}) {
    expect_distributed_matches_serial(h, part, width, 2, "no-halo");
  }
}

TEST(DistProperty, InterleavedBoundaryRunsCoverEveryHaloFreeRow) {
  const auto h = interleaved_boundary_matrix(120);
  for (const int nranks : {2, 4}) {
    const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
    runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
      runtime::DistributedMatrix dist(c, h, part);
      const auto& local = dist.local();
      const global_index nlocal = dist.local_rows();
      // Reference classification straight from the local sparsity pattern.
      std::vector<bool> is_boundary(static_cast<std::size_t>(nlocal), false);
      for (global_index i = 0; i < nlocal; ++i) {
        for (const auto col : local.row_cols(i)) {
          if (col >= nlocal) {
            is_boundary[static_cast<std::size_t>(i)] = true;
            break;
          }
        }
      }
      // interior_runs/boundary_runs must partition [0, nlocal) exactly
      // along that classification.
      std::vector<bool> claimed_interior(static_cast<std::size_t>(nlocal),
                                         false);
      global_index interior_rows = 0;
      for (const auto& run : dist.interior_runs()) {
        for (global_index i = run.begin; i < run.end; ++i) {
          EXPECT_FALSE(is_boundary[static_cast<std::size_t>(i)])
              << "row " << i << " listed interior but reads halo";
          claimed_interior[static_cast<std::size_t>(i)] = true;
          ++interior_rows;
        }
      }
      for (const auto& run : dist.boundary_runs()) {
        for (global_index i = run.begin; i < run.end; ++i) {
          EXPECT_TRUE(is_boundary[static_cast<std::size_t>(i)])
              << "row " << i << " listed boundary but is halo-free";
          EXPECT_FALSE(claimed_interior[static_cast<std::size_t>(i)]);
          claimed_interior[static_cast<std::size_t>(i)] = true;
        }
      }
      for (global_index i = 0; i < nlocal; ++i) {
        EXPECT_TRUE(claimed_interior[static_cast<std::size_t>(i)])
            << "row " << i << " missing from both run lists";
      }
      EXPECT_EQ(interior_rows, dist.interior_row_count());
      // The point of run lists: with interleaved boundaries they must cover
      // strictly more rows than the old largest-contiguous-prefix window.
      if (dist.halo_size() > 0) {
        EXPECT_GT(dist.boundary_runs().size(), 1u);
        EXPECT_GT(dist.interior_row_count(),
                  dist.interior_end() - dist.interior_begin())
            << "run lists add nothing over the contiguous window";
      }
    });
    for (const int width : {1, 4}) {
      expect_distributed_matches_serial(h, part, width, nranks,
                                        "interleaved");
    }
  }
}

// --- matrix-free stencil over the same partitions ---------------------------
//
// The stencil overloads localize the global operator to each rank's window
// and reuse the halo plan negotiated from the assembled CRS; every local
// apply is bitwise identical to the local CRS apply, so the distributed
// stencil moments must match the distributed CRS moments BIT FOR BIT on any
// partition — and therefore the serial solver to reduction round-off.
void expect_stencil_matches_crs_distributed(const sparse::CrsMatrix& h,
                                            const sparse::StencilOperator& st,
                                            const runtime::RowPartition& part,
                                            int width, int nranks,
                                            const char* what) {
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 12;
  mp.num_random = width;
  const auto serial = core::moments_aug_spmmv(st, s, mp);
  runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix dist(c, h, part);
    const auto crs_plain = runtime::distributed_moments(c, dist, s, mp);
    const auto crs_over =
        runtime::distributed_moments_overlapped(c, dist, s, mp);
    const auto st_plain = runtime::distributed_moments(c, dist, st, s, mp);
    const auto st_over =
        runtime::distributed_moments_overlapped(c, dist, st, s, mp);
    ASSERT_EQ(st_plain.mu.size(), crs_plain.mu.size());
    for (std::size_t m = 0; m < crs_plain.mu.size(); ++m) {
      EXPECT_EQ(st_plain.mu[m], crs_plain.mu[m])
          << what << " stencil-vs-crs plain, R=" << width
          << " ranks=" << nranks << " m=" << m;
      EXPECT_EQ(st_over.mu[m], crs_over.mu[m])
          << what << " stencil-vs-crs overlapped, R=" << width
          << " ranks=" << nranks << " m=" << m;
      EXPECT_NEAR(st_plain.mu[m], serial.mu[m], 1e-9)
          << what << " stencil-vs-serial, R=" << width
          << " ranks=" << nranks << " m=" << m;
    }
  });
}

TEST(DistProperty, StencilRandomizedPartitionsBitwiseMatchCrs) {
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  std::mt19937 rng(777);
  std::uniform_real_distribution<double> weight(0.05, 1.0);
  for (const int width : {1, 4, 32}) {
    for (const int nranks : {2, 5}) {
      std::vector<double> weights(static_cast<std::size_t>(nranks));
      for (auto& w : weights) w = weight(rng);
      const auto part = runtime::RowPartition::weighted(h.nrows(), weights);
      expect_stencil_matches_crs_distributed(h, st, part, width, nranks,
                                             "stencil-random");
    }
  }
}

TEST(DistProperty, StencilEmptyRankPartitions) {
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  const int nranks = 4;
  std::vector<double> weights(static_cast<std::size_t>(nranks), 1e-9);
  weights.front() = 1.0;
  weights.back() = 1.0;
  const auto part =
      runtime::RowPartition::weighted(h.nrows(), weights, /*min_rows=*/0);
  bool has_empty = false;
  for (int r = 0; r < nranks; ++r) has_empty |= part.local_rows(r) == 0;
  ASSERT_TRUE(has_empty) << "partition failed to produce an empty rank";
  for (const int width : {1, 4, 32}) {
    expect_stencil_matches_crs_distributed(h, st, part, width, nranks,
                                           "stencil-empty-rank");
  }
}

TEST(DistProperty, StencilNoHaloPartition) {
  // Pure on-site stencil: a diagonal operator partitions with no halo at
  // all, so localize() sees an empty halo_global_cols and every local row
  // stays interior.
  const global_index n = 96;
  std::vector<sparse::StencilOperator::Term> terms(1);
  terms[0].delta = 0;
  terms[0].mask = 0x1;
  terms[0].coeff[0] = {0.0, 0.0};
  std::vector<double> diag(static_cast<std::size_t>(n));
  for (global_index i = 0; i < n; ++i) {
    diag[static_cast<std::size_t>(i)] =
        0.1 * static_cast<double>(i % 13) + 0.25;
  }
  const auto neighbor = [](global_index site, std::size_t) { return site; };
  const sparse::StencilOperator st("diag-test", 1, n, terms, diag, neighbor);
  sparse::CooMatrix coo(n, n);
  for (global_index i = 0; i < n; ++i) {
    coo.add(i, i, {diag[static_cast<std::size_t>(i)], 0.0});
  }
  coo.compress();
  const sparse::CrsMatrix h{coo};
  const auto part = runtime::RowPartition::uniform(n, 2);
  runtime::run_ranks(2, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix dist(c, h, part);
    EXPECT_EQ(dist.halo_size(), 0);
    const auto local = st.localize(part.begin(c.rank()), part.end(c.rank()),
                                   dist.halo_global_cols());
    for (const auto& seg : local.segments()) EXPECT_TRUE(seg.interior);
  });
  for (const int width : {1, 4, 32}) {
    expect_stencil_matches_crs_distributed(h, st, part, width, 2,
                                           "stencil-no-halo");
  }
}

TEST(DistProperty, StencilInterleavedBoundaryPartitions) {
  // Periodic x/y wrap scatters boundary rows through every contiguous
  // window, so the run-list sweep of the localized stencil exercises
  // interleaved interior/boundary segments, not one contiguous prefix.
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  for (const int nranks : {2, 4}) {
    const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
    runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
      runtime::DistributedMatrix dist(c, h, part);
      EXPECT_GT(dist.boundary_runs().size(), 0u);
    });
    for (const int width : {1, 4, 32}) {
      expect_stencil_matches_crs_distributed(h, st, part, width, nranks,
                                             "stencil-interleaved");
    }
  }
}

TEST(DistProperty, StencilRejectsAdaptiveBalancing) {
  // A localized stencil cannot migrate rows mid-solve; the options contract
  // rejects the combination instead of silently disabling either feature.
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 8;
  mp.num_random = 4;
  const auto part = runtime::RowPartition::uniform(h.nrows(), 2);
  runtime::run_ranks(2, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix dist(c, h, part);
    runtime::DistKpmOptions opts;
    opts.balance.enabled = true;
    EXPECT_THROW(runtime::distributed_moments(c, dist, st, s, mp, opts),
                 contract_error);
  });
}

// --- fault-injection partition sweep (elastic runtime) ----------------------
//
// Kill a pseudo-randomly chosen rank at a pseudo-randomly chosen recurrence
// step, let the elastic runtime roll back to the last chunk boundary and
// re-run the chunk with a replacement rank on the same partition: the final
// moments must be bitwise equal to the uninterrupted run — for every block
// width R ∈ {1, 4, 32} and on both the assembled-CRS and matrix-free stencil
// paths.  Runs under the tsan preset (dist label), so the commit/rollback
// locking is exercised under the race detector as well.
TEST(DistProperty, FaultInjectionSweepBitwiseMatchesUninterrupted) {
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  const int nranks = 3;
  std::mt19937 rng(20240809);
  for (const int width : {1, 4, 32}) {
    core::MomentParams mp;
    mp.num_moments = 12;
    mp.num_random = width;
    runtime::ElasticOptions base;
    base.chunk_sweeps = 2;
    for (const bool matrix_free : {false, true}) {
      const auto make_runtime = [&](const runtime::ElasticOptions& o) {
        return matrix_free ? runtime::ElasticRuntime(st, h, s, mp, o)
                           : runtime::ElasticRuntime(h, s, mp, o);
      };
      const auto clean = make_runtime(base).run(nranks);
      runtime::ElasticOptions faulty = base;
      runtime::ElasticEvent ev;
      ev.kind = runtime::ElasticEvent::Kind::fail;
      ev.sweep = std::uniform_int_distribution<int>(
          0, mp.num_moments / 2 - 1)(rng);
      ev.rank = std::uniform_int_distribution<int>(0, nranks - 1)(rng);
      faulty.events.push_back(ev);
      const auto healed = make_runtime(faulty).run(nranks);
      EXPECT_EQ(healed.report.failures_recovered, 1)
          << "R=" << width << " stencil=" << matrix_free;
      ASSERT_EQ(healed.mu.size(), clean.mu.size());
      for (std::size_t m = 0; m < clean.mu.size(); ++m) {
        EXPECT_EQ(healed.mu[m], clean.mu[m])
            << "R=" << width << " stencil=" << matrix_free
            << " killed rank " << ev.rank << " at sweep " << ev.sweep
            << " moment " << m;
      }
    }
  }
}

// --- communication-avoiding depth-s sweep (DESIGN §5j) ----------------------
//
// A depth-s ghost-zone plan amortizes ONE fused v+w exchange over s sweeps by
// redundantly advancing a shrinking frontier of ghost rows.  Owned rows keep
// the depth-1 accumulation order and dot partition exactly, so the moments
// must be BITWISE identical to the depth-1 run of the same partition — for
// the assembled CRS and the matrix-free stencil path, plain and overlapped,
// on every partition shape (randomized, empty ranks, periodic wrap).
void expect_sstep_bitwise(const sparse::CrsMatrix& h,
                          const sparse::StencilOperator* st,
                          const runtime::RowPartition& part, int width,
                          int nranks, const char* what) {
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 16;  // 8 sweeps: 2 full rounds at depth 4, ragged at 3
  mp.num_random = width;
  const auto serial = st != nullptr ? core::moments_aug_spmmv(*st, s, mp)
                                    : core::moments_aug_spmmv(h, s, mp);
  const int total_sweeps = mp.num_moments / 2;
  runtime::run_ranks(nranks, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix d1(c, h, part);
    const auto solve = [&](runtime::DistributedMatrix& d, bool over) {
      if (st != nullptr) {
        return over ? runtime::distributed_moments_overlapped(c, d, *st, s, mp)
                    : runtime::distributed_moments(c, d, *st, s, mp);
      }
      return over ? runtime::distributed_moments_overlapped(c, d, s, mp)
                  : runtime::distributed_moments(c, d, s, mp);
    };
    const auto ref_plain = solve(d1, false);
    const auto ref_over = solve(d1, true);
    EXPECT_EQ(ref_plain.message_rounds, total_sweeps);
    for (const int depth : {2, 3, 4}) {
      runtime::DistMatrixOptions o;
      o.halo_depth = depth;
      runtime::DistributedMatrix ds(c, h, part, o);
      EXPECT_EQ(ds.halo_depth(), depth);
      const auto plain = solve(ds, false);
      const auto over = solve(ds, true);
      // One exchange per round of `depth` sweeps (last round may be short).
      EXPECT_EQ(plain.message_rounds, (total_sweeps + depth - 1) / depth)
          << what << " depth=" << depth;
      ASSERT_EQ(plain.mu.size(), ref_plain.mu.size());
      for (std::size_t m = 0; m < ref_plain.mu.size(); ++m) {
        EXPECT_EQ(plain.mu[m], ref_plain.mu[m])
            << what << " plain s=" << depth << " vs s=1, R=" << width
            << " ranks=" << nranks << " m=" << m;
        EXPECT_EQ(over.mu[m], ref_over.mu[m])
            << what << " overlapped s=" << depth << " vs s=1, R=" << width
            << " ranks=" << nranks << " m=" << m;
        EXPECT_NEAR(plain.mu[m], serial.mu[m], 1e-9)
            << what << " s=" << depth << " vs serial, m=" << m;
      }
    }
  });
}

TEST(DistProperty, SStepRandomizedPartitionsBitwiseMatchDepthOne) {
  const auto h = ti_matrix();
  std::mt19937 rng(4242);
  std::uniform_real_distribution<double> weight(0.05, 1.0);
  for (const int width : {1, 4, 32}) {
    for (const int nranks : {2, 5}) {
      std::vector<double> weights(static_cast<std::size_t>(nranks));
      for (auto& w : weights) w = weight(rng);
      const auto part = runtime::RowPartition::weighted(h.nrows(), weights);
      expect_sstep_bitwise(h, nullptr, part, width, nranks, "sstep-random");
    }
  }
}

TEST(DistProperty, SStepEmptyRankPartitions) {
  const auto h = ti_matrix();
  const int nranks = 4;
  std::vector<double> weights(static_cast<std::size_t>(nranks), 1e-9);
  weights.front() = 1.0;
  weights.back() = 1.0;
  const auto part =
      runtime::RowPartition::weighted(h.nrows(), weights, /*min_rows=*/0);
  for (const int width : {1, 4}) {
    expect_sstep_bitwise(h, nullptr, part, width, nranks, "sstep-empty-rank");
  }
}

TEST(DistProperty, SStepStencilPeriodicWrapBitwise) {
  // The TI lattice wraps periodically in x and y, so deep ghost zones reach
  // around the domain; the stencil path builds its layers from term-delta
  // geometry (append_row_pattern) rather than a CRS pattern walk.
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  for (const int nranks : {2, 4}) {
    const auto part = runtime::RowPartition::uniform(h.nrows(), nranks);
    for (const int width : {1, 4, 32}) {
      expect_sstep_bitwise(h, &st, part, width, nranks, "sstep-stencil-wrap");
    }
  }
}

TEST(DistProperty, SStepStagedTransportMatchesPersistent) {
  // The fused round exchange has a persistent-channel and a staged-mailbox
  // body; both must scatter identical bytes.
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 12;
  mp.num_random = 4;
  const auto part = runtime::RowPartition::uniform(h.nrows(), 3);
  runtime::run_ranks(3, [&](runtime::Communicator& c) {
    runtime::DistMatrixOptions po;
    po.halo_depth = 3;
    runtime::DistributedMatrix dp(c, h, part, po);
    runtime::DistMatrixOptions so;
    so.transport = runtime::HaloTransport::staged;
    so.halo_depth = 3;
    runtime::DistributedMatrix dst(c, h, part, so);
    const auto a = runtime::distributed_moments(c, dp, s, mp);
    const auto b = runtime::distributed_moments(c, dst, s, mp);
    ASSERT_EQ(a.mu.size(), b.mu.size());
    for (std::size_t m = 0; m < a.mu.size(); ++m) {
      EXPECT_EQ(a.mu[m], b.mu[m]) << "staged-vs-persistent m=" << m;
    }
  });
}

TEST(DistProperty, SStepFrontierLayersShrinkAndLayerOneMatchesDepthOne) {
  // Structural invariants of the layered plan: layer offsets ascend, the
  // depth-1 prefix of the halo order is exactly the depth-1 plan's order
  // (the owned-column-remap invariance the bitwise contract rests on), and
  // frontier_rows(remaining) clamps to the plan depth.
  const auto h = ti_matrix();
  const auto part = runtime::RowPartition::uniform(h.nrows(), 4);
  runtime::run_ranks(4, [&](runtime::Communicator& c) {
    runtime::DistributedMatrix d1(c, h, part);
    runtime::DistMatrixOptions o;
    o.halo_depth = 3;
    runtime::DistributedMatrix d3(c, h, part, o);
    const auto& off = d3.layer_offsets();
    ASSERT_EQ(off.size(), 4u);  // depth + 1 entries, [0] == 0
    EXPECT_EQ(off.front(), 0);
    for (std::size_t l = 1; l < off.size(); ++l) {
      EXPECT_GE(off[l], off[l - 1]) << "layer " << l;
    }
    // Layer 1 of the deep plan == the whole depth-1 halo, same order.
    ASSERT_EQ(off[1], d1.halo_size());
    for (global_index j = 0; j < off[1]; ++j) {
      EXPECT_EQ(d3.halo_global_cols()[static_cast<std::size_t>(j)],
                d1.halo_global_cols()[static_cast<std::size_t>(j)])
          << "slot " << j;
    }
    EXPECT_EQ(d3.frontier_rows(0), 0);
    EXPECT_EQ(d3.frontier_rows(1), off[1]);
    EXPECT_EQ(d3.frontier_rows(2), off[2]);
    EXPECT_EQ(d3.frontier_rows(99), off[2]);  // clamps to depth - 1 layers
    // The frontier operator covers exactly the first depth-1 layers.
    EXPECT_EQ(d3.frontier().nrows(), d3.local_rows() + off[2]);
    EXPECT_EQ(d3.frontier().ncols(), d3.local_rows() + d3.halo_size());
  });
}

TEST(DistProperty, SStepElasticKillReplaceBitwise) {
  // Elastic recovery under a depth-2 plan: kill + same-partition replacement
  // must reproduce the uninterrupted depth-2 run bitwise, and the depth-2
  // uninterrupted run must match depth-1 bitwise (owned rows are depth-
  // invariant, and chunk commits land on round boundaries).
  const auto p = ti_params();
  const auto h = physics::build_ti_hamiltonian(p);
  const auto st = physics::make_ti_stencil(p);
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 16;
  mp.num_random = 4;
  for (const bool matrix_free : {false, true}) {
    const auto make_runtime = [&](const runtime::ElasticOptions& o) {
      return matrix_free ? runtime::ElasticRuntime(st, h, s, mp, o)
                         : runtime::ElasticRuntime(h, s, mp, o);
    };
    runtime::ElasticOptions base;
    base.chunk_sweeps = 4;
    const auto d1 = make_runtime(base).run(3);
    runtime::ElasticOptions deep = base;
    deep.halo_depth = 2;
    const auto d2 = make_runtime(deep).run(3);
    ASSERT_EQ(d2.mu.size(), d1.mu.size());
    for (std::size_t m = 0; m < d1.mu.size(); ++m) {
      EXPECT_EQ(d2.mu[m], d1.mu[m])
          << "depth-2 vs depth-1 clean, stencil=" << matrix_free
          << " m=" << m;
    }
    runtime::ElasticOptions faulty = deep;
    runtime::ElasticEvent ev;
    ev.kind = runtime::ElasticEvent::Kind::fail;
    ev.sweep = 5;  // mid-chunk AND mid-round of the depth-2 schedule
    ev.rank = 1;
    faulty.events.push_back(ev);
    const auto healed = make_runtime(faulty).run(3);
    EXPECT_EQ(healed.report.failures_recovered, 1);
    ASSERT_EQ(healed.mu.size(), d2.mu.size());
    for (std::size_t m = 0; m < d2.mu.size(); ++m) {
      EXPECT_EQ(healed.mu[m], d2.mu[m])
          << "healed depth-2, stencil=" << matrix_free << " m=" << m;
    }
  }
}

TEST(DistProperty, SStepRejectsMisalignedChunks) {
  const auto h = ti_matrix();
  const auto s = physics::make_scaling(physics::gershgorin_bounds(h), 0.05);
  core::MomentParams mp;
  mp.num_moments = 8;
  mp.num_random = 1;
  runtime::ElasticOptions o;
  o.chunk_sweeps = 3;
  o.halo_depth = 2;  // 3 % 2 != 0: commits would split a round
  EXPECT_THROW(runtime::ElasticRuntime(h, s, mp, o), contract_error);
}

}  // namespace
}  // namespace kpm
