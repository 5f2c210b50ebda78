#include "runtime/autotune.hpp"

#include <algorithm>
#include <array>

#include "blas/block_vector.hpp"
#include "runtime/dist_matrix.hpp"
#include "sparse/kpm_kernels.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace kpm::runtime {
namespace {

/// One timed probe: sweeps of the fused block kernel on this rank's share of
/// `dist`, returning this rank's best seconds per sweep.  Timed like the
/// load balancer (DESIGN §5e): a barrier first, so a peer's tail is absorbed
/// outside the timed region, then the kernel work clock, which counts the
/// slowest team thread's CPU time over its own rows and none of the time a
/// team thread spends descheduled on a loaded host.  Every probe of
/// auto_tune_weights goes through here.
double probe_seconds(Communicator& comm, const DistributedMatrix& dist,
                     const AutoTuneParams& p) {
  blas::BlockVector v(dist.extended_rows(), p.block_width);
  blas::BlockVector w(dist.extended_rows(), p.block_width);
  for (global_index i = 0; i < dist.local_rows(); ++i) {
    for (int r = 0; r < p.block_width; ++r) {
      v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.5};
    }
  }
  std::vector<complex_t> dvv(static_cast<std::size_t>(p.block_width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(p.block_width));
  const auto rec = sparse::AugScalars::recurrence(0.25, 0.0);
  // Warm-up (also fills the halo once so the timed sweeps are pure kernel).
  dist.exchange_halo(comm, v);
  sparse::aug_spmmv(dist.local(), rec, v, w, dvv, dwv);

  comm.barrier();
  double best = 1e300;
  for (int sweep = 0; sweep < p.sweeps_per_probe; ++sweep) {
    const sparse::KernelWorkClock clock;
    sparse::aug_spmmv(dist.local(), rec, v, w, dvv, dwv);
    best = std::min(best, clock.seconds());
  }
  return p.probe_time ? p.probe_time(comm.rank(), dist.local_rows(), best)
                      : best;
}

/// Every rank's probe time, gathered by one allreduce of a one-hot vector
/// (identical on all ranks, so every rank draws the same conclusion).
std::vector<double> rank_seconds(Communicator& comm,
                                 const DistributedMatrix& dist,
                                 const AutoTuneParams& p) {
  std::vector<double> times(static_cast<std::size_t>(comm.size()), 0.0);
  times[static_cast<std::size_t>(comm.rank())] = probe_seconds(comm, dist, p);
  comm.allreduce_sum(times);
  return times;
}

}  // namespace

AutoTuneResult auto_tune_weights(Communicator& comm,
                                 const sparse::CrsMatrix& global,
                                 const AutoTuneParams& p) {
  require(p.block_width >= 1 && p.sweeps_per_probe >= 1 &&
              p.max_iterations >= 1,
          "auto_tune_weights: invalid parameters");
  const int size = comm.size();
  AutoTuneResult out;
  out.weights.assign(static_cast<std::size_t>(size), 1.0 / size);
  out.partition = RowPartition::weighted(global.nrows(), out.weights);
  // The equal-weight starting partition is also the rate sample: every rank
  // times an equal-size row block, so a per-sweep cost that does not scale
  // with rows cancels in the rate ratio instead of feeding back into the
  // next partition.
  const RowPartition sample = out.partition;
  const DistributedMatrix sample_dist(comm, global, sample);

  // Device speed = rows per second on the sample, from each rank's best time
  // over the iterations so far; weights proportional to speed.  The
  // imbalance is then measured on the partition those weights build.
  std::vector<double> best(static_cast<std::size_t>(size), 1e300);
  for (int iter = 0; iter < p.max_iterations; ++iter) {
    out.iterations = iter + 1;
    const std::vector<double> sampled = rank_seconds(comm, sample_dist, p);
    double total = 0.0;
    for (int r = 0; r < size; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      best[ri] = std::min(best[ri], sampled[ri]);
      out.weights[ri] = static_cast<double>(sample.local_rows(r)) /
                        std::max(best[ri], 1e-9);
      total += out.weights[ri];
    }
    for (auto& w : out.weights) w = std::max(w / total, 1e-3);
    out.partition = RowPartition::weighted(global.nrows(), out.weights);

    const bool unchanged = std::ranges::equal(out.partition.offsets(),
                                              sample.offsets());
    const std::vector<double> times =
        unchanged ? sampled
                  : rank_seconds(comm,
                                 DistributedMatrix(comm, global, out.partition),
                                 p);
    const double worst = *std::max_element(times.begin(), times.end());
    const double fastest = *std::min_element(times.begin(), times.end());
    out.imbalance = worst > 0.0 ? (worst - fastest) / worst : 0.0;
    if (out.imbalance < p.imbalance_tolerance) break;
  }
  // Normalize for reporting.
  double total = 0.0;
  for (const double w : out.weights) total += w;
  for (auto& w : out.weights) w /= total;
  return out;
}

HaloDepthTuneResult tune_halo_depth(Communicator& comm,
                                    const sparse::CrsMatrix& global,
                                    const RowPartition& part, int width,
                                    const HaloDepthTuneParams& p) {
  require(width >= 1 && p.rounds_per_probe >= 1 && !p.candidates.empty(),
          "tune_halo_depth: invalid parameters");
  default_omp_affinity();
  HaloDepthTuneResult out;
  const auto rec = sparse::AugScalars::recurrence(0.25, 0.0);
  std::vector<complex_t> dvv(static_cast<std::size_t>(width));
  std::vector<complex_t> dwv(static_cast<std::size_t>(width));

  double best = 1e300;
  for (const int depth : p.candidates) {
    require(depth >= 1, "tune_halo_depth: depths must be >= 1");
    // Build the candidate plan (collective) and time whole rounds: one
    // fused exchange, then `depth` sweeps over owned + shrinking frontier —
    // exactly the production round of distributed_moments (dist_kpm.cpp).
    DistributedMatrix dist(
        comm, global, part,
        DistMatrixOptions{.transport = p.transport, .halo_depth = depth});
    blas::BlockVector v(dist.extended_rows(), width);
    blas::BlockVector w(dist.extended_rows(), width);
    for (global_index i = 0; i < dist.local_rows(); ++i) {
      for (int r = 0; r < width; ++r) {
        v(i, r) = {1.0 / (1.0 + static_cast<double>(i + r)), 0.5};
      }
    }
    const std::array<IndexRange<global_index>, 1> owned{
        {{0, dist.local_rows()}}};
    auto round = [&] {
      for (int t = 0; t < depth; ++t) {
        if (t == 0) {
          if (depth == 1) {
            dist.exchange_halo(comm, v);
          } else {
            dist.exchange_round_halo(comm, v, w);
          }
        }
        std::fill(dvv.begin(), dvv.end(), complex_t{});
        std::fill(dwv.begin(), dwv.end(), complex_t{});
        sparse::aug_spmmv_runs(dist.local(), rec, v, w, owned, dvv, dwv);
        const global_index nfr = dist.frontier_rows(depth - 1 - t);
        if (nfr > 0) {
          const std::array<IndexRange<global_index>, 1> fr{
              {{dist.local_rows(), dist.local_rows() + nfr}}};
          sparse::aug_spmmv_runs(dist.frontier(), rec, v, w, fr, {}, {});
        }
      }
    };
    round();  // warm-up: channels handshaken, caches touched
    double round_best = 1e300;
    Timer t;
    for (int rep = 0; rep < p.rounds_per_probe; ++rep) {
      comm.barrier();
      t.reset();
      t.start();
      round();
      t.stop();
      round_best = std::min(round_best, t.seconds());
    }
    // Worst rank decides (wall clock — the blocked halo wait IS the cost
    // the deeper plans amortize), allreduced so every rank agrees.
    std::vector<double> times(static_cast<std::size_t>(comm.size()), 0.0);
    times[static_cast<std::size_t>(comm.rank())] = round_best;
    comm.allreduce_sum(times);
    const double per_sweep =
        *std::max_element(times.begin(), times.end()) / depth;
    out.probed.push_back({depth, per_sweep});
    if (per_sweep < best) {  // strict: ties keep the shallower earlier plan
      best = per_sweep;
      out.depth = depth;
      out.seconds_per_sweep = per_sweep;
    }
  }
  return out;
}

}  // namespace kpm::runtime
