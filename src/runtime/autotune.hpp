// Automatic determination of heterogeneous process weights — the paper's
// first outlook item ("determine the process weights for heterogeneous
// execution automatically and take this burden away from the user").
//
// Strategy: every rank times sweeps of the fused block kernel on an
// equal-size row block (the equal-weight starting partition), and the
// weights follow the measured device speed
//   w_r  <-  sample_rows_r / best_time_r   (rows per second)
// where best_time_r is rank r's best sweep over the iterations so far.  The
// rows are equal, so a per-sweep cost that does not scale with rows cancels
// in the rate ratio instead of compounding from one partition into the next.  Each iteration measures the
// imbalance of the partition the weights build and stops once it is within
// the tolerance.
//
// The probe times the block kernel as it is: sparse/kpm_kernels.hpp has no
// kernel configuration to tune.  tune_halo_depth() below probes the
// communication-avoiding ghost-zone depth (DESIGN §5j).
#pragma once

#include <functional>
#include <vector>

#include "runtime/comm.hpp"
#include "runtime/dist_matrix.hpp"
#include "runtime/partition.hpp"
#include "sparse/crs.hpp"

namespace kpm::runtime {

/// Every probe times single sweeps the way runtime::LoadBalancer does
/// (DESIGN §5e): a barrier first, then the kernel work clock
/// (sparse::KernelWorkClock), keeping the best sweep — so a rank with a
/// descheduled thread or one waiting on a peer is not mistaken for a slow
/// device.
struct AutoTuneParams {
  int block_width = 8;        ///< R used for the probe sweeps
  /// Timed sweeps per probe: per iteration, on the equal-size rate sample
  /// and on the partition built from it.
  int sweeps_per_probe = 2;
  int max_iterations = 8;     ///< rate samples at most
  /// Stop once the imbalance (max-min)/max of the built partition is below
  /// this.  A per-sweep cost that rows cannot balance may keep it above.
  double imbalance_tolerance = 0.05;
  /// Test-only probe clock: maps (rank, rows swept, measured seconds) to the
  /// seconds the probe records, e.g. to model a slower device
  /// deterministically.  Empty = the measured time.
  std::function<double(int rank, global_index rows, double measured)>
      probe_time;
};

struct AutoTuneResult {
  std::vector<double> weights;       ///< normalized to sum 1
  RowPartition partition;            ///< partition built from the weights
  /// (max-min)/max of the per-rank sweep times measured on `partition`
  /// itself.  It can stay above the tolerance when a sweep has a fixed cost
  /// that moving rows cannot balance.
  double imbalance = 0.0;
  int iterations = 0;                ///< rate samples taken
};

/// Collective: measures the per-rank kernel speed on `global` and returns
/// weights proportional to it.  The speed of rank r is rows per second on
/// an equal-size row block, from its best kernel-work sweep time behind a
/// barrier over all iterations run; `imbalance` is measured on the final
/// partition.  Deterministic across ranks (times are allreduced, so every
/// rank selects the same weights).
[[nodiscard]] AutoTuneResult auto_tune_weights(Communicator& comm,
                                               const sparse::CrsMatrix& global,
                                               const AutoTuneParams& p = {});

/// Candidate space of the communication-avoiding depth probe (DESIGN §5j).
struct HaloDepthTuneParams {
  /// Ghost-zone depths probed, ascending; ties go to the smaller depth.
  std::vector<int> candidates{1, 2, 4, 8};
  /// Timed rounds per candidate (each round = one fused exchange + depth
  /// locally computed sweeps); the best round is kept.
  int rounds_per_probe = 3;
  HaloTransport transport = HaloTransport::persistent;
};

struct HaloDepthProbe {
  int depth = 1;
  double seconds_per_sweep = 0.0;  ///< allreduced worst-rank wall time
};

struct HaloDepthTuneResult {
  int depth = 1;                       ///< winning ghost-zone depth
  double seconds_per_sweep = 0.0;      ///< its measured per-sweep time
  std::vector<HaloDepthProbe> probed;  ///< every candidate, probe order
};

/// Collective: probes the communication-avoiding sweep over the candidate
/// ghost-zone depths — each candidate builds a depth-s plan of `global` over
/// `part` and times whole rounds (ONE fused v+w exchange, then s owned +
/// shrinking-frontier sweeps), wall clock, judged by the allreduced
/// worst-rank per-sweep time.  Wall clock, not CPU time: the latency the
/// deeper plans amortize is exactly the blocked wait the CPU clock hides.
/// Every rank returns the same winner.
[[nodiscard]] HaloDepthTuneResult tune_halo_depth(
    Communicator& comm, const sparse::CrsMatrix& global,
    const RowPartition& part, int width, const HaloDepthTuneParams& p = {});

}  // namespace kpm::runtime
