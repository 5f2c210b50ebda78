// Elastic, fault-tolerant distributed KPM runtime (DESIGN.md §5i).
//
// The paper's large-scale runs assume a fixed set of healthy devices for the
// whole solve.  ElasticRuntime drops that assumption on top of the existing
// MessageHub / DistributedMatrix / LoadBalancer stack: the solve is driven
// in *epochs* of a fixed rank set, each epoch advancing the committed global
// recurrence state chunk by chunk, and the rank set may change between
// epochs — a rank can fail mid-collective (injected or real exception), a
// rank can voluntarily leave, and a new rank can join, all mid-solve.
//
// Three mechanisms, and the exact reproducibility each one preserves:
//
//  1. Distributed checkpoints.  At every chunk boundary the committed state
//     (recurrence vectors |v>, |w>, the reduced eta table, the partition,
//     the balancer's smoothed per-rank rates, and the repartition schedule)
//     is written atomically (tmp + rename) when a checkpoint path is
//     configured.  A restore is fingerprint-checked against the operator
//     + scaling (core::operator_fingerprint) and rejected on mismatch, and
//     a file whose bytes fail its trailing checksum is rejected too; a
//     resumed solve reproduces the uninterrupted moments bit for bit
//     (chunked eta reduction is element-wise over the same fixed tree as
//     one at_end reduction).
//
//  2. Rank leave / join / fail.  Membership changes happen at chunk
//     boundaries as a forced repartition recorded in the replayable
//     RepartitionEvent schedule.  A *failure* (exception mid-chunk, possibly
//     mid-collective) cancels the hub so every peer unwinds (comm.hpp
//     cancellation + RAII channel guards), the uncommitted chunk is rolled
//     back, and the epoch restarts from the last commit — with a
//     replacement rank (same partition) the final moments are bitwise equal
//     to the uninterrupted run; with a changed rank count the partition
//     changes and moments agree to reduction round-off.
//
//  3. Straggler speculation.  Chunk commit times feed a smoothed per-rank
//     rate table; when the slowest rank falls behind the median by more
//     than a threshold, the committer launches a *shadow executor* that
//     re-executes the next chunk for every rank window serially
//     (make_local_plan — the exact per-row arithmetic of each live rank)
//     and combines the partial dots with fixed_tree_sum (the exact
//     allreduce bits).  Whichever copy commits first wins under the state
//     mutex; the loser's identical result is discarded — the arbitration is
//     invisible in the moment bits, so exactly one copy of every row's
//     contribution is reduced by construction.
#pragma once

#include <string>
#include <vector>

#include "blas/block_vector.hpp"
#include "core/moments.hpp"
#include "physics/spectral_bounds.hpp"
#include "runtime/balancer.hpp"
#include "runtime/dist_matrix.hpp"
#include "sparse/crs.hpp"
#include "sparse/stencil.hpp"

namespace kpm::runtime {

/// One injected elasticity event of a run (the test/bench fault plan).
struct ElasticEvent {
  enum class Kind {
    fail,     ///< rank throws at recurrence step `sweep` (mid-chunk)
    leave,    ///< rank leaves at the first chunk boundary >= `sweep`
    join,     ///< one rank joins at the first chunk boundary >= `sweep`
    straggle  ///< rank runs `slowdown`x slower from step `sweep` on
  };
  Kind kind = Kind::fail;
  int sweep = 0;  ///< global recurrence step the event anchors to
  int rank = 0;   ///< target rank (ignored for join)
  /// fail only: a replacement rank rejoins immediately with the SAME
  /// partition — the bitwise-reproducible recovery path.  false shrinks the
  /// rank set like a leave.
  bool replace = true;
  double slowdown = 1.0;  ///< straggle factor (> 1)
};

struct ElasticOptions {
  /// Recurrence steps per chunk (two moments each); commit granularity.
  int chunk_sweeps = 8;
  /// Checkpoint file written atomically at every commit ("" = none).
  std::string checkpoint_path;
  /// Load checkpoint_path before solving (fingerprint-checked) instead of
  /// starting from the seed vectors.
  bool resume = false;
  /// Stop (cleanly, after committing) once this many recurrence steps are
  /// committed; < 0 = run to completion.  For checkpoint/restart tests.
  int stop_after_sweep = -1;
  /// Injected fault plan, any order (anchored by `sweep`).
  std::vector<ElasticEvent> events;
  /// Launch the shadow executor when a straggler is detected.
  bool speculate = true;
  /// Straggler test: median(rates) > threshold * min(rates).
  double straggle_threshold = 2.0;
  /// `smoothing` drives the rate EMA; `enabled` switches membership-change
  /// repartitions from uniform to measured-rate weighted (nondeterministic
  /// partition => moments reproducible only via the recorded schedule).
  BalanceOptions balance;
  HaloTransport transport = HaloTransport::persistent;
  /// Communication-avoiding ghost-zone depth (DESIGN §5j): each chunk runs
  /// in rounds of `halo_depth` sweeps with ONE fused v+w exchange per round.
  /// chunk_sweeps must be a multiple of it so commits align to round
  /// boundaries; checkpoints record it and a resume under a different depth
  /// is rejected.  Owned-row moments are bitwise independent of the depth.
  int halo_depth = 1;
};

struct ElasticReport {
  int epochs = 0;             ///< rank-set instantiations (incl. retries)
  int chunks_committed = 0;   ///< commits (live + shadow)
  int failures_recovered = 0;
  int leaves = 0;
  int joins = 0;
  int speculations = 0;       ///< shadow executors launched
  int speculation_wins = 0;   ///< chunks the shadow committed first
  int checkpoints_written = 0;
  int final_ranks = 0;
  /// Partitions actually used: the initial one plus one entry per
  /// membership change — replayable, and part of every checkpoint.
  std::vector<RepartitionEvent> schedule;
  /// Final smoothed per-rank rates (rows/s); the EMA state the checkpoint
  /// carries and BalanceOptions::initial_rates can be seeded from.
  std::vector<double> rates;
};

struct ElasticResult {
  /// Lane-averaged moments; bitwise equal to distributed_moments() with
  /// ReductionMode::at_end on the same partition sequence.
  std::vector<double> mu;
  ElasticReport report;
};

/// See the file header.  The referenced operator/scaling must outlive the
/// runtime.  run() is a one-shot: construct a fresh runtime per solve.
class ElasticRuntime {
 public:
  /// Assembled operator.
  ElasticRuntime(const sparse::CrsMatrix& h, const physics::Scaling& s,
                 const core::MomentParams& p, ElasticOptions opts = {});
  /// Matrix-free sweeps: `assembled` carries the halo structure and the
  /// checkpoint fingerprint (same pairing as the distributed stencil
  /// solver); every sweep applies `stencil` localized per rank.
  ElasticRuntime(const sparse::StencilOperator& stencil,
                 const sparse::CrsMatrix& assembled, const physics::Scaling& s,
                 const core::MomentParams& p, ElasticOptions opts = {});

  /// Runs the solve on `initial_ranks` threads (ignored on resume: the
  /// checkpoint's partition defines the rank set).  Collective epochs are
  /// spawned internally; the caller is a plain single thread.
  [[nodiscard]] ElasticResult run(int initial_ranks);

 private:
  struct Ctx;
  void solve(Ctx& ctx);
  /// Serializes the committed state to opts_.checkpoint_path (atomic tmp +
  /// rename); no-op when no path is configured.  The caller must hold
  /// Ctx::m.  A member (not a solve()-scope lambda) so the shadow thread
  /// never references stack frames that may unwind underneath it.
  void write_checkpoint_locked(Ctx& ctx) const;
  /// Joins the shadow executor (if any) and rethrows an exception it
  /// captured.  Join gives the happens-before that makes the unlocked read
  /// of Ctx::shadow_error safe.
  static void reap_shadow(Ctx& ctx);

  const sparse::CrsMatrix* global_;
  const sparse::StencilOperator* stencil_ = nullptr;
  physics::Scaling s_;
  core::MomentParams p_;
  ElasticOptions opts_;
};

}  // namespace kpm::runtime
