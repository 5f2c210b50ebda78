// Distributed blocked KPM-DOS solver (the paper's production configuration:
// data-parallel aug_spmmv over weighted row blocks with halo exchange and a
// single global reduction at the end of the inner loop).
#pragma once

#include "core/moments.hpp"
#include "runtime/balancer.hpp"
#include "runtime/dist_matrix.hpp"

namespace kpm::runtime {

struct DistMomentsResult {
  std::vector<double> mu;  ///< identical on every rank after the reduction
  core::OpCounters ops;    ///< this rank's counters
  std::int64_t halo_bytes_sent = 0;  ///< this rank's halo payload total
  /// Halo exchange rounds this rank started: one per sweep at depth 1, one
  /// per s sweeps under a depth-s plan (DESIGN §5j).
  std::int64_t message_rounds = 0;
  /// Ghost rows redundantly recomputed across all sweeps — the flops the
  /// communication-avoiding scheme trades for the saved message latency.
  std::int64_t frontier_rows_computed = 0;
  /// What the adaptive balancer measured and did (DistKpmOptions::balance);
  /// default-initialized when balancing was not engaged.
  BalanceReport balance;
};

/// Optional performance knobs of the distributed solvers.  Defaults change
/// nothing.
struct DistKpmOptions {
  /// Adaptive measured-rate load balancing (runtime::LoadBalancer): time
  /// every fused sweep, and between measurement windows repartition the
  /// matrix and migrate the in-flight |v>, |w> rows whenever the measured
  /// rates predict a better split (see balancer.hpp for the knobs and the
  /// replay path).  Off by default.
  BalanceOptions balance;
};

/// Finalization shared by distributed_moments and the elastic runtime: the
/// reduced raw-dot table eta[lane][m] is converted in place by the Chebyshev
/// doubling (mu_0/mu_1 raw, later 2*eta - mu_0/mu_1) and averaged over the
/// lanes — byte for byte the arithmetic of the serial eta->mu conversion, so
/// two solvers that reduced identical eta bits return identical mu bits.
[[nodiscard]] std::vector<double> eta_to_mu_average(
    std::vector<std::vector<double>> eta);

/// Collective: computes the blocked KPM moments of the distributed operator.
/// Every rank draws the same random start vectors (same seed stream as the
/// serial solver) and keeps its own rows, so the result matches
/// core::moments_aug_spmmv on the undistributed matrix up to reduction
/// round-off.  `dist` is taken mutable because the adaptive balancer
/// (opts.balance) may live-repartition it mid-solve; with balancing off it
/// is left untouched.
///
/// Communication-avoiding s-step mode (DESIGN §5j): when `dist` was built
/// with halo_depth s > 1, the solver advances in rounds of s sweeps — ONE
/// fused v+w exchange of the depth-s ghost zone per round, then s locally
/// computed sweeps that redundantly advance a shrinking frontier of ghost
/// rows (dist.frontier()).  Owned rows keep the depth-1 accumulation order
/// and dot partition exactly, so the moments are BITWISE identical to the
/// same solver on a depth-1 plan of the same partition — for the assembled,
/// block-format-free and stencil paths alike.
[[nodiscard]] DistMomentsResult distributed_moments(
    Communicator& comm, DistributedMatrix& dist,
    const physics::Scaling& s, const core::MomentParams& p,
    const DistKpmOptions& opts = {});

/// Overlapped variant: every Chebyshev step posts its halo sends, processes
/// ALL interior rows (DistributedMatrix::interior_runs() — every row that
/// references no halo column, wherever it sits in the row order) while the
/// messages are in flight, then receives and finishes the boundary rows —
/// the communication/computation overlap the paper's outlook proposes.
/// Bit-compatible dot products vs the non-overlapped path are NOT
/// guaranteed (summation order differs), but moments agree to reduction
/// round-off.
[[nodiscard]] DistMomentsResult distributed_moments_overlapped(
    Communicator& comm, DistributedMatrix& dist,
    const physics::Scaling& s, const core::MomentParams& p,
    const DistKpmOptions& opts = {});

/// Matrix-free variants (DESIGN.md §5h): `dist` still carries the halo plan
/// (negotiated from the assembled global matrix — the stencil references
/// exactly the same columns), but every sweep applies `stencil` localized to
/// this rank's row window and halo layout instead of streaming dist.local().
/// The localized kernel walks rows in the same order with the same per-row
/// arithmetic, so the moments match the assembled distributed run bit for
/// bit.  Adaptive balancing is rejected (a live repartition would need
/// re-localization mid-solve); leave opts.balance disengaged.
[[nodiscard]] DistMomentsResult distributed_moments(
    Communicator& comm, DistributedMatrix& dist,
    const sparse::StencilOperator& stencil, const physics::Scaling& s,
    const core::MomentParams& p, const DistKpmOptions& opts = {});

[[nodiscard]] DistMomentsResult distributed_moments_overlapped(
    Communicator& comm, DistributedMatrix& dist,
    const sparse::StencilOperator& stencil, const physics::Scaling& s,
    const core::MomentParams& p, const DistKpmOptions& opts = {});

}  // namespace kpm::runtime
