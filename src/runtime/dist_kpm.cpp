#include "runtime/dist_kpm.hpp"

#include <array>
#include <optional>

#include "runtime/autotune.hpp"
#include "sparse/kpm_kernels.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace kpm::runtime {

namespace {

DistMomentsResult distributed_moments_impl(
    Communicator& comm, DistributedMatrix& dist,
    const sparse::StencilOperator* stencil, const physics::Scaling& s,
    const core::MomentParams& p, const DistKpmOptions& opts, bool overlapped) {
  require(p.num_moments >= 2 && p.num_moments % 2 == 0,
          "distributed_moments: num_moments must be even and >= 2");
  require(p.num_random >= 1, "distributed_moments: num_random >= 1");
  const int width = p.num_random;
  if (opts.tune_tiles) {
    // Collective lockstep probe: all ranks leave with the same TileConfig
    // installed, so both the full sweeps and the split interior/boundary
    // sweeps below run cache-blocked.
    (void)tune_distributed_tiles(comm, dist, width, TileTuneParams{},
                                 opts.tile_cache_path);
  }
  const global_index nlocal = dist.local_rows();
  const global_index next = dist.extended_rows();
  const global_index row_begin = dist.partition().begin(comm.rank());
  const global_index n_global = dist.partition().total_rows();

  // Matrix-free path: rebind the global stencil to this rank's row window
  // and halo layout once; every sweep below applies it in place of the
  // assembled local matrix.
  std::optional<sparse::StencilOperator> local_stencil;
  if (stencil != nullptr) {
    require(stencil->nrows() == n_global,
            "distributed_moments: stencil shape != partition");
    local_stencil.emplace(stencil->localize(row_begin, row_begin + nlocal,
                                            dist.halo_global_cols()));
  }

  blas::BlockVector v(next, width), w(next, width);
  // Same seed stream as the serial solver: every rank walks the global
  // stream (each lane's norm spans all rows) but stores only its own rows
  // (deterministic, no broadcast).
  RandomVectorSource(p.seed, p.vector_kind)
      .fill_block(v.span(), width, 0, width, {n_global, row_begin, nlocal});

  DistMomentsResult out;

  std::vector<std::vector<double>> eta(
      static_cast<std::size_t>(width),
      std::vector<double>(static_cast<std::size_t>(p.num_moments), 0.0));
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));

  auto store_eta = [&](int even_index) {
    for (int r = 0; r < width; ++r) {
      eta[static_cast<std::size_t>(r)][static_cast<std::size_t>(even_index)] =
          dvv[static_cast<std::size_t>(r)].real();
      if (even_index + 1 < p.num_moments) {
        eta[static_cast<std::size_t>(r)]
           [static_cast<std::size_t>(even_index + 1)] =
               dwv[static_cast<std::size_t>(r)].real();
      }
    }
  };
  auto reduce_now = [&] {
    comm.allreduce_sum(std::span<complex_t>(dvv));
    comm.allreduce_sum(std::span<complex_t>(dwv));
    out.ops.global_reductions += 1;
  };

  // One fused sweep of the whole local partition; the overlapped variant
  // hides the halo transfer behind the interior rows.
  auto fused_step = [&](const sparse::AugScalars& scalars) {
    if (!overlapped) {
      dist.exchange_halo(comm, v);
      if (local_stencil) {
        sparse::aug_spmmv(*local_stencil, scalars, v, w, dvv, dwv);
      } else {
        sparse::aug_spmmv(dist.local(), scalars, v, w, dvv, dwv);
      }
      return;
    }
    dist.start_halo_exchange(comm, v);
    std::fill(dvv.begin(), dvv.end(), complex_t{});
    std::fill(dwv.begin(), dwv.end(), complex_t{});
    // Every halo-free row — scattered or not — is processed while the
    // messages are in flight; only the boundary rows wait for the halo.
    if (local_stencil) {
      sparse::aug_spmmv_runs(*local_stencil, scalars, v, w,
                             dist.interior_runs(), dvv, dwv);
      dist.finish_halo_exchange(comm, v);
      sparse::aug_spmmv_runs(*local_stencil, scalars, v, w,
                             dist.boundary_runs(), dvv, dwv);
      return;
    }
    sparse::aug_spmmv_runs(dist.local(), scalars, v, w, dist.interior_runs(),
                           dvv, dwv);
    dist.finish_halo_exchange(comm, v);
    sparse::aug_spmmv_runs(dist.local(), scalars, v, w, dist.boundary_runs(),
                           dvv, dwv);
  };

  // Closed-loop balancing: when engaged, every fused sweep is timed
  // (util/timer) and the balancer may live-repartition the matrix between
  // sweeps, migrating the recurrence state |v>, |w> with it.  Moments are
  // invariant to *when* repartitions happen up to reduction round-off (the
  // allreduce is linear over the per-rank partial dots), and bitwise
  // reproducible for a fixed repartition schedule.
  LoadBalancer balancer(opts.balance, comm.size());
  const bool balancing = balancer.engaged() && comm.size() > 1;
  require(!(balancing && local_stencil),
          "distributed_moments: adaptive balancing cannot migrate a "
          "localized stencil — disengage opts.balance");
  auto timed_step = [&](const sparse::AugScalars& scalars, int sweep) {
    if (!balancing) {
      fused_step(scalars);
    } else {
      // Align the ranks before timing: a slow peer's tail from the previous
      // sweep is absorbed here, *outside* the timed region.  The sweep is
      // measured in *thread CPU time*, not wall clock: blocking on a peer's
      // halo message and losing the core to an oversubscribed host both
      // distort wall clock toward the worst rank's time, destroying the
      // per-rank rate signal the balancer feeds on (util/timer.hpp).
      comm.barrier();
      const double t0 = Timer::thread_cpu_now();
      fused_step(scalars);
      balancer.record_sweep(comm.rank(), Timer::thread_cpu_now() - t0);
    }
    out.halo_bytes_sent += dist.send_bytes_per_exchange(width);
    out.message_rounds += 1;
    out.ops.spmv_equivalents += width;
    out.ops.matrix_streams += 1;
    if (p.reduction == core::ReductionMode::per_iteration) reduce_now();
    if (balancing) {
      RowPartition next;
      if (balancer.decide(comm, dist.partition(), sweep, &next)) {
        dist.repartition(comm, next, {&v, &w});
        balancer.note_repartition(sweep, next);
      }
    }
  };

  const auto startup = sparse::AugScalars::startup(s.a, s.b);
  const auto rec = sparse::AugScalars::recurrence(s.a, s.b);
  const int depth = dist.halo_depth();
  const int total_sweeps = p.num_moments / 2;

  if (depth == 1) {
    timed_step(startup, 0);
    store_eta(0);
    for (int m = 1; 2 * m + 1 < p.num_moments; ++m) {
      std::swap(v, w);
      timed_step(rec, m);
      store_eta(2 * m);
    }
  } else {
    // Communication-avoiding s-step rounds (DESIGN §5j).  Each round opens
    // with ONE fused exchange of v and w over all `depth` halo layers, then
    // advances k <= depth sweeps purely locally: every sweep processes the
    // owned rows exactly as the depth-1 path does (same run lists, same dot
    // accumulation — bitwise-identical owned moments) plus a shrinking
    // frontier of ghost rows (layers 1..remaining) with the dots skipped.
    //
    // Validity chain: sweep t of a round reads v on owned+layers
    // 1..(k-t) — computed by sweep t-1 — and w (the state two sweeps back)
    // on the rows it computes, which the round exchange covered.
    std::array<IndexRange<global_index>, 1> owned_run{};
    std::array<IndexRange<global_index>, 1> frontier_run{};
    // Owned sweep in the depth-1 accumulation order; the frontier sweep is
    // separate so owned dots never see ghost contributions.
    auto owned_sweep = [&](const sparse::AugScalars& scalars, bool first) {
      std::fill(dvv.begin(), dvv.end(), complex_t{});
      std::fill(dwv.begin(), dwv.end(), complex_t{});
      if (!overlapped) {
        if (first) dist.exchange_round_halo(comm, v, w);
        owned_run[0] = {0, dist.local_rows()};
        if (local_stencil) {
          sparse::aug_spmmv_runs(*local_stencil, scalars, v, w, owned_run,
                                 dvv, dwv);
        } else {
          sparse::aug_spmmv_runs(dist.local(), scalars, v, w, owned_run,
                                 dvv, dwv);
        }
        return;
      }
      // Split-phase round opening: interior rows (no halo reads) run while
      // the round's messages are in flight.  Later sweeps of the round keep
      // the same interior-then-boundary order so the dot bits match the
      // depth-1 overlapped path sweep for sweep.
      if (first) dist.start_round_exchange(comm, v, w);
      if (local_stencil) {
        sparse::aug_spmmv_runs(*local_stencil, scalars, v, w,
                               dist.interior_runs(), dvv, dwv);
        if (first) dist.finish_round_exchange(comm, v, w);
        sparse::aug_spmmv_runs(*local_stencil, scalars, v, w,
                               dist.boundary_runs(), dvv, dwv);
        return;
      }
      sparse::aug_spmmv_runs(dist.local(), scalars, v, w,
                             dist.interior_runs(), dvv, dwv);
      if (first) dist.finish_round_exchange(comm, v, w);
      sparse::aug_spmmv_runs(dist.local(), scalars, v, w,
                             dist.boundary_runs(), dvv, dwv);
    };
    int sweep = 0;
    while (sweep < total_sweeps) {
      const int k = std::min(depth, total_sweeps - sweep);
      for (int t = 0; t < k; ++t, ++sweep) {
        if (sweep > 0) std::swap(v, w);
        const auto& sc = sweep == 0 ? startup : rec;
        const global_index nfr = dist.frontier_rows(k - 1 - t);
        auto body = [&] {
          owned_sweep(sc, t == 0);
          if (nfr > 0) {
            frontier_run[0] = {dist.local_rows(), dist.local_rows() + nfr};
            sparse::aug_spmmv_runs(dist.frontier(), sc, v, w, frontier_run,
                                   {}, {});
          }
        };
        if (!balancing) {
          body();
        } else {
          comm.barrier();
          const double t0 = Timer::thread_cpu_now();
          body();
          balancer.record_sweep(comm.rank(), Timer::thread_cpu_now() - t0);
        }
        if (t == 0) {
          out.halo_bytes_sent += dist.send_bytes_per_round(width);
          out.message_rounds += 1;
        }
        out.frontier_rows_computed += nfr;
        out.ops.spmv_equivalents += width;
        out.ops.matrix_streams += 1;
        store_eta(2 * sweep);
        if (p.reduction == core::ReductionMode::per_iteration) reduce_now();
        // Repartitions only at round boundaries: the next round re-exchanges
        // both vectors, so migrated state never needs mid-round frontier
        // validity.  decide() is collective — all ranks gate it identically.
        if (balancing && t == k - 1) {
          RowPartition next_part;
          if (balancer.decide(comm, dist.partition(), sweep, &next_part)) {
            dist.repartition(comm, next_part, {&v, &w});
            balancer.note_repartition(sweep, next_part);
          }
        }
      }
    }
  }

  if (p.reduction == core::ReductionMode::at_end) {
    // The paper's optimal variant: one global reduction over the complete
    // eta table after the inner loop.
    std::vector<double> flat;
    flat.reserve(static_cast<std::size_t>(width) * p.num_moments);
    for (const auto& column : eta) {
      flat.insert(flat.end(), column.begin(), column.end());
    }
    comm.allreduce_sum(std::span<double>(flat));
    out.ops.global_reductions += 1;
    for (int r = 0; r < width; ++r) {
      for (int m = 0; m < p.num_moments; ++m) {
        eta[static_cast<std::size_t>(r)][static_cast<std::size_t>(m)] =
            flat[static_cast<std::size_t>(r) * p.num_moments +
                 static_cast<std::size_t>(m)];
      }
    }
  }

  // eta -> mu (Chebyshev doubling) and average over the block columns.
  out.mu = eta_to_mu_average(std::move(eta));
  // halo_bytes_sent was accumulated per exchange inside timed_step (the
  // per-exchange payload changes across repartitions).
  out.balance = balancer.report();
  return out;
}

}  // namespace

std::vector<double> eta_to_mu_average(std::vector<std::vector<double>> eta) {
  require(!eta.empty() && !eta[0].empty(),
          "eta_to_mu_average: empty moment table");
  const auto width = eta.size();
  std::vector<double> mu(eta[0].size(), 0.0);
  for (auto& column : eta) {
    require(column.size() == mu.size(),
            "eta_to_mu_average: ragged moment table");
    const double mu0 = column[0];
    const double mu1 = column.size() > 1 ? column[1] : 0.0;
    for (std::size_t m = 2; m < column.size(); ++m) {
      column[m] = 2.0 * column[m] - (m % 2 == 0 ? mu0 : mu1);
    }
    for (std::size_t m = 0; m < column.size(); ++m) mu[m] += column[m];
  }
  for (auto& x : mu) x /= static_cast<double>(width);
  return mu;
}

DistMomentsResult distributed_moments(Communicator& comm,
                                      DistributedMatrix& dist,
                                      const physics::Scaling& s,
                                      const core::MomentParams& p,
                                      const DistKpmOptions& opts) {
  return distributed_moments_impl(comm, dist, nullptr, s, p, opts,
                                  /*overlapped=*/false);
}

DistMomentsResult distributed_moments_overlapped(Communicator& comm,
                                                 DistributedMatrix& dist,
                                                 const physics::Scaling& s,
                                                 const core::MomentParams& p,
                                                 const DistKpmOptions& opts) {
  return distributed_moments_impl(comm, dist, nullptr, s, p, opts,
                                  /*overlapped=*/true);
}

DistMomentsResult distributed_moments(Communicator& comm,
                                      DistributedMatrix& dist,
                                      const sparse::StencilOperator& stencil,
                                      const physics::Scaling& s,
                                      const core::MomentParams& p,
                                      const DistKpmOptions& opts) {
  return distributed_moments_impl(comm, dist, &stencil, s, p, opts,
                                  /*overlapped=*/false);
}

DistMomentsResult distributed_moments_overlapped(
    Communicator& comm, DistributedMatrix& dist,
    const sparse::StencilOperator& stencil, const physics::Scaling& s,
    const core::MomentParams& p, const DistKpmOptions& opts) {
  return distributed_moments_impl(comm, dist, &stencil, s, p, opts,
                                  /*overlapped=*/true);
}

}  // namespace kpm::runtime
