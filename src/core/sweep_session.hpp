// Resumable, cancellable KPM sweep state — the enabling refactor for the
// batched multi-tenant service (DESIGN.md §5g).
//
// A SweepSession owns the two-term Chebyshev recurrence state of one blocked
// sweep: the |v>, |w> block vectors, the per-lane moment prefixes, and the
// next recurrence step.  It advances in chunks of steps (each step is one
// fused aug_spmmv and yields two moments per lane), so a caller can stream
// partial moments out between chunks, stop early, or checkpoint the whole
// state and finish later.  The step sequence is exactly the one
// moments_of_block() / moments_aug_spmmv() perform — moments_of_block() is
// in fact implemented as "advance a session to completion" — so a chunked,
// resumed, or checkpoint-restored session produces bitwise-identical moments
// to an uninterrupted run.
//
// Lanes.  The block columns ("lanes") of a session are fully independent:
// the fused kernels keep one accumulator per column and the row->thread
// split (util/schedule.hpp) does not depend on the block width, so the
// moment bits of a lane depend only on that lane's start vector — not on
// which other lanes share the sweep or how wide it is.  This is what makes
// multi-tenant coalescing legal: unrelated jobs ride one matrix stream and
// still get the exact bits a solo sweep would have produced.  A lane whose
// consumer is done (early stop, cancellation) can be deactivated; compact()
// then drops the dead lanes from the kernel block so the remaining jobs
// sweep at the narrower width, without perturbing their bits.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "blas/block_vector.hpp"
#include "physics/spectral_bounds.hpp"
#include "sparse/bsr.hpp"
#include "sparse/crs.hpp"
#include "sparse/kpm_kernels.hpp"
#include "sparse/stencil.hpp"
#include "util/types.hpp"

namespace kpm::core {

/// Non-owning reference to any operator the fused block kernels can sweep:
/// assembled CRS, the block formats of DESIGN.md §5f, or the matrix-free
/// stencil of §5h.  Implicitly convertible from each concrete type so the
/// original CRS-only call sites compile unchanged.  The pointee must outlive
/// the reference (sessions and service models hold the operator elsewhere).
class OperatorRef {
 public:
  enum class Kind { crs, bsr, stencil };

  OperatorRef(const sparse::CrsMatrix& m) : kind_(Kind::crs), p_(&m) {}
  OperatorRef(const sparse::BsrMatrix& m) : kind_(Kind::bsr), p_(&m) {}
  OperatorRef(const sparse::StencilOperator& m)
      : kind_(Kind::stencil), p_(&m) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] global_index nrows() const noexcept;
  [[nodiscard]] global_index ncols() const noexcept;
  [[nodiscard]] global_index nnz() const noexcept;

  /// Valid only when kind() matches.
  [[nodiscard]] const sparse::CrsMatrix& crs() const noexcept {
    return *static_cast<const sparse::CrsMatrix*>(p_);
  }
  [[nodiscard]] const sparse::BsrMatrix& bsr() const noexcept {
    return *static_cast<const sparse::BsrMatrix*>(p_);
  }
  [[nodiscard]] const sparse::StencilOperator& stencil() const noexcept {
    return *static_cast<const sparse::StencilOperator*>(p_);
  }

  /// One fused augmented SpMMV on the referenced operator.
  void apply(const sparse::AugScalars& s, const blas::BlockVector& v,
             blas::BlockVector& w, std::span<complex_t> dot_vv,
             std::span<complex_t> dot_wv) const;

 private:
  Kind kind_;
  const void* p_;
};

/// Digest of (operator identity, spectral scaling) used to pair checkpoints
/// with the operator that produced them.  FNV-1a over the operator kind,
/// shape, nnz, the bit patterns of the scaling (a, b), and the FULL stored
/// content of the operator — structure and value bits for every format
/// (CRS rows, BSR block stream, stencil terms/diagonal/boundary) —
/// so two same-shaped operators with different entries always get different
/// prints.  The service's cache keys and the checkpoint restore guards rely
/// on this being a content digest, not just a shape digest.
/// Never returns 0 (0 is the "unknown / legacy checkpoint" sentinel).
[[nodiscard]] std::uint64_t operator_fingerprint(OperatorRef h,
                                                 const physics::Scaling& s);

/// Serializable recurrence state (checkpoint/restart of a SweepSession).
/// The matrix and scaling themselves are not captured, but `fingerprint`
/// records which (operator, scaling) pair produced the state: restoring
/// against anything else is rejected instead of silently producing wrong
/// moments.  fingerprint == 0 marks a legacy checkpoint and is accepted.
struct SweepCheckpoint {
  blas::BlockVector v;                  ///< |v_m> lanes (current width)
  blas::BlockVector w;                  ///< |v_{m+1}> lanes (current width)
  std::vector<std::vector<double>> mu;  ///< per-lane completed moment prefix
  std::vector<int> lane_of_column;      ///< kernel column -> original lane
  std::vector<char> active;             ///< per original lane
  int num_moments = 0;
  int next_step = 0;  ///< 0 = start-up step still pending
  std::uint64_t fingerprint = 0;  ///< operator_fingerprint() of the producer
};

/// The two recurrence blocks of a sweep, as a caller keeps them between
/// sessions: a workspace whose allocations outlive any one session
/// (DESIGN.md §5n).
struct SweepBlocks {
  blas::BlockVector v, w;
};

class SweepSession {
 public:
  /// Starts a fresh sweep: lane r of `v0` is the start vector |v0_r>.
  /// Requires a square operator, a row-major block, v0.rows() == h.nrows(),
  /// and an even num_moments >= 2.  The session takes `v0` over as |v>;
  /// pass an rvalue to hand the block over without a copy.
  ///
  /// `w` is optional storage for |w>, of any shape and contents: it is
  /// reshaped to v0's shape (keeping its allocation when that fits) and
  /// zeroed.  Left empty, the session allocates |w> itself; a session fed
  /// both blocks allocates none.
  SweepSession(OperatorRef h, const physics::Scaling& s, blas::BlockVector v0,
               int num_moments, blas::BlockVector w = {});

  /// Resumes from a checkpoint taken against the same operator + scaling,
  /// with the vectors exactly as checkpoint() captured them.
  SweepSession(OperatorRef h, const physics::Scaling& s,
               SweepCheckpoint state);

  SweepSession(SweepSession&&) = default;
  SweepSession& operator=(SweepSession&&) = default;

  /// Advances up to `max_steps` recurrence steps (one fused sweep each, two
  /// moments per lane) and returns completed().  Stops early when the
  /// session is done().
  int advance(int max_steps);
  int advance_all();

  /// Moments completed per lane so far (0 .. num_moments).
  [[nodiscard]] int completed() const noexcept;
  /// True when every moment is computed or no lane is active anymore.
  [[nodiscard]] bool done() const noexcept;

  [[nodiscard]] int num_moments() const noexcept { return num_moments_; }
  /// Number of lanes the session was started with (stable lane ids).
  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(active_.size());
  }
  [[nodiscard]] int active_lanes() const noexcept;
  /// Width the kernels currently sweep at (shrinks after compact()).
  [[nodiscard]] int sweep_width() const noexcept { return v_.width(); }

  /// Completed moment prefix of `lane` (valid across advance() calls; may
  /// be longer than a consumer's requested M when lanes share a sweep).
  [[nodiscard]] std::span<const double> mu(int lane) const;

  /// Marks a lane as no longer consumed: its moment prefix freezes and the
  /// next compact() drops it from the kernel block.  Idempotent.
  void deactivate_lane(int lane);

  /// Narrows the kernel block to the active lanes, in place: one forward
  /// copy in row order moves each kept entry to its slot at the narrower
  /// width (a destination never lies past its source, so nothing is read
  /// after it is overwritten), and both blocks keep their allocations.
  /// Per-lane moments are unaffected (lane arithmetic is width-independent,
  /// see the header comment).  Returns true if the width changed.  No-op
  /// when every lane is active or none is.
  bool compact();

  /// Hands |v> and |w> back at their current shape, so the caller can feed
  /// the storage to its next session.  The session is spent afterwards.
  [[nodiscard]] SweepBlocks release() &&;

  /// Copies the full recurrence state for a later restore.
  [[nodiscard]] SweepCheckpoint checkpoint() const;

  /// Fused sweeps performed by this session (matrix streams).
  [[nodiscard]] long long steps() const noexcept { return steps_; }
  /// Sum of the sweep width over all performed steps (lane-steps).
  [[nodiscard]] long long lanes_swept() const noexcept { return lanes_swept_; }

 private:
  void record_step(int m);
  [[nodiscard]] std::uint64_t fingerprint() const;

  OperatorRef h_;
  physics::Scaling s_{};
  /// operator_fingerprint(h_, s_), computed on first checkpoint() and cached
  /// (the digest walks the operator's stored content once — O(nnz)).
  mutable std::optional<std::uint64_t> fingerprint_;
  int num_moments_ = 0;
  int next_step_ = 0;
  blas::BlockVector v_, w_;
  std::vector<int> lane_of_column_;
  std::vector<std::vector<double>> mu_;
  std::vector<char> active_;
  std::vector<complex_t> dvv_, dwv_;
  long long steps_ = 0;
  long long lanes_swept_ = 0;
};

}  // namespace kpm::core
