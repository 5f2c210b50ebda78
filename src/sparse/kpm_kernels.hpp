// Augmented (fused) KPM kernels — the paper's central contribution.
//
// Optimization stage 1, aug_spmv() (paper Fig. 4), fuses the whole inner
// iteration into one sweep:
//
//     |w>  <-  alpha * A|v>  +  beta * |v>  +  gamma * |w>
//     eta_even  = <v|v>          (computed on the fly)
//     eta_odd   = <w_new|v>      (computed on the fly)
//
// With alpha = 2a, beta = -2ab, gamma = -1 this is exactly
// |w> = 2a(H - b1)|v> - |w> of the Chebyshev recurrence; the generic scalars
// also cover the start-up step |v1> = a(H - b1)|v0> (gamma = 0).
//
// Optimization stage 2, aug_spmmv() (paper Fig. 5), is the same operation on
// row-major block vectors of width R, turning the R loosely-coupled outer
// iterations into a single matrix read per Chebyshev step.
//
// Passing empty dot spans skips the on-the-fly reductions — that is the
// "augmented SpMMV without dot products" kernel of paper Fig. 10(b).
//
// Kernel dispatch.  Every block kernel (all formats; full, row-interval and
// run-list sweeps) runs one pass per row over all R lanes of the block, the
// single fused row loop of paper Fig. 5.  For R in {1, 2, 4, 8, 16, 32, 64}
// a fixed-width instantiation with stack-resident accumulators and fully
// unrolled SIMD lanes is selected, any other width runs a generic
// runtime-width body with the same arithmetic.  The inner complex
// multiply-accumulate operates on the interleaved (re, im) doubles of the
// complex storage directly, so the compiler emits plain FMA arithmetic
// instead of library complex-multiply calls.  There is no kernel
// configuration; DESIGN.md §5b and §5c give the measurements behind one
// pass per row.
//
// Determinism.  Each lane's arithmetic is independent of the block width,
// so lane r of a width-R sweep is bitwise equal to that lane swept alone.
// All on-the-fly dot reductions use cache-line-padded per-thread partial
// buffers that are combined in ascending thread order — no locks, no
// atomics, no `omp critical`.  The block kernels partition rows with an
// explicit static split (util/schedule.hpp) rather than `omp for`, so the
// row->thread assignment — and therefore every moment bit — is independent
// of the OpenMP implementation.  At a fixed thread count the moments are
// bitwise reproducible run-to-run.
#pragma once

#include <span>

#include "blas/block_vector.hpp"
#include "sparse/bsr.hpp"
#include "sparse/crs.hpp"
#include "sparse/sell.hpp"
#include "sparse/stencil.hpp"
#include "util/schedule.hpp"
#include "util/types.hpp"

namespace kpm::sparse {

/// Scalars of the augmented operation w <- alpha*A*v + beta*v + gamma*w.
struct AugScalars {
  complex_t alpha{1.0, 0.0};
  complex_t beta{0.0, 0.0};
  complex_t gamma{0.0, 0.0};

  /// Chebyshev recurrence step for H~ = a(H - b1): w = 2a(H-b1)v - w.
  [[nodiscard]] static AugScalars recurrence(double a, double b) {
    return {{2.0 * a, 0.0}, {-2.0 * a * b, 0.0}, {-1.0, 0.0}};
  }
  /// Start-up step v1 = a(H - b1)v0.
  [[nodiscard]] static AugScalars startup(double a, double b) {
    return {{a, 0.0}, {-a * b, 0.0}, {0.0, 0.0}};
  }
};

/// Stage-1 fused kernel on a single vector (CRS).  `dot_vv`/`dot_wv`
/// receive <v|v> and <w_new|v>; pass nullptr to skip either reduction
/// (with both nullptr the reduction code is compiled out entirely).
void aug_spmv(const CrsMatrix& a, const AugScalars& s,
              std::span<const complex_t> v, std::span<complex_t> w,
              complex_t* dot_vv, complex_t* dot_wv);

/// Stage-1 fused kernel (SELL-C-sigma, permuted vectors).
void aug_spmv(const SellMatrix& a, const AugScalars& s,
              std::span<const complex_t> v, std::span<complex_t> w,
              complex_t* dot_vv, complex_t* dot_wv);

/// Work clock of the block kernels: the sweep timer of the load balancer,
/// the elastic runtime and the weight probe (DESIGN §5e).  While a clock is
/// alive on a thread, every block-kernel call made from that thread adds
/// the thread-CPU seconds of its slowest team thread over that thread's own
/// rows.  Fork/join, the dot barrier and time a team thread spends
/// descheduled are not counted.  The calling thread's CPU clock around the
/// call would count its spin at the join barrier while a team thread is
/// descheduled, so a loaded host would look like a slow device.  Clocks
/// nest; a call counts on the innermost one.
class KernelWorkClock {
 public:
  KernelWorkClock() noexcept;
  ~KernelWorkClock();
  KernelWorkClock(const KernelWorkClock&) = delete;
  KernelWorkClock& operator=(const KernelWorkClock&) = delete;

  /// Kernel work seconds counted since construction.
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  /// The innermost clock alive on the calling thread, or nullptr.
  [[nodiscard]] static KernelWorkClock* current() noexcept;
  /// Adds one kernel call's slowest-thread seconds (the kernels call this).
  void add(double s) noexcept { seconds_ += s; }

 private:
  KernelWorkClock* outer_;
  double seconds_ = 0.0;
};

// Dot-output contract of the block kernels: the full-sweep aug_spmmv()
// overloads OVERWRITE `dot_vv`/`dot_wv` (they are zero-filled before the
// sweep), whereas the partial-sweep aug_spmmv_runs() ACCUMULATES into them
// so that the split interior/boundary calls of an overlapped halo exchange
// compose — zero the spans before the first partial call of a sweep.  The
// dot spans must not alias the v/w storage (checked).

/// Stage-2 fused block kernel (CRS).  `dot_vv`/`dot_wv` must be empty (skip
/// the on-the-fly dots) or hold one entry per block column; non-empty spans
/// are overwritten with the dots of this sweep.
void aug_spmmv(const CrsMatrix& a, const AugScalars& s,
               const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dot_vv, std::span<complex_t> dot_wv);

/// Stage-2 fused block kernel (SELL-C-sigma, permuted block vectors).
/// Same overwrite contract as the CRS overload.
void aug_spmmv(const SellMatrix& a, const AugScalars& s,
               const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dot_vv, std::span<complex_t> dot_wv);

/// Run-list variant of the CRS blocked kernel: processes the union of the
/// given row intervals, which must be ascending, pairwise disjoint and in
/// bounds, and *adds* its dot contributions to the accumulators (zero them
/// before the first partial call of a sweep).  Threads split the
/// concatenated position space with the same static partition as the full
/// sweep, so the one-run list {0, nrows} is aug_spmmv() bit for bit.  This is
/// how the overlapped halo exchange sweeps *all* halo-free rows — scattered
/// or not — while messages are in flight (DESIGN.md §5d).
void aug_spmmv_runs(const CrsMatrix& a, const AugScalars& s,
                    const blas::BlockVector& v, blas::BlockVector& w,
                    std::span<const IndexRange<global_index>> runs,
                    std::span<complex_t> dot_vv, std::span<complex_t> dot_wv);

// Block-format kernels (DESIGN.md §5f).  The BSR body runs behind the same
// width dispatch as the scalar formats, one output row at a time,
// re-walking a block row's values, indices and v block-rows from L1 for its
// b rows.  Matrix values may be stored float32 (accumulation stays
// double) and block-column indices may stream as 16-bit deltas; both are
// properties of the matrix object, not kernel parameters.  The per-lane
// bitwise contract holds per format: accumulation order within a row is
// independent of the block width and of the fixed or generic body.

/// Stage-2 fused block kernel (BSR).  Same overwrite contract as the CRS
/// overload.
void aug_spmmv(const BsrMatrix& a, const AugScalars& s,
               const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dot_vv, std::span<complex_t> dot_wv);

/// Run-list variant of the BSR kernel over scalar-row runs (accumulate
/// contract, see the CRS run-list kernel).  Bounds are scalar rows and need
/// not align to block_dim(): threads split the scalar row space with the
/// same static partition as the CRS kernels, so BSR moments are bitwise
/// identical to the CRS moments at any thread count and partition.
void aug_spmmv_runs(const BsrMatrix& a, const AugScalars& s,
                    const blas::BlockVector& v, blas::BlockVector& w,
                    std::span<const IndexRange<global_index>> runs,
                    std::span<complex_t> dot_vv, std::span<complex_t> dot_wv);

// Matrix-free stencil kernels (DESIGN.md §5h).  No matrix stream at all:
// interior rows multiply the register/L1-resident coefficient blocks of the
// StencilOperator against branch-free neighbour offsets (plus at most one
// streamed f64 diagonal per row), boundary rows fall back to the operator's
// indexed entries.  Runs behind the same width dispatch, with the same
// static scalar-row split — stencil moments are bitwise identical to the
// assembled-CRS moments.

/// Stage-2 fused matrix-free kernel.  Same overwrite contract as the CRS
/// overload.
void aug_spmmv(const StencilOperator& a, const AugScalars& s,
               const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dot_vv, std::span<complex_t> dot_wv);

/// Run-list variant (accumulate contract): how the overlapped halo exchange
/// sweeps a localized stencil's interior while messages are in flight.
void aug_spmmv_runs(const StencilOperator& a, const AugScalars& s,
                    const blas::BlockVector& v, blas::BlockVector& w,
                    std::span<const IndexRange<global_index>> runs,
                    std::span<complex_t> dot_vv, std::span<complex_t> dot_wv);

}  // namespace kpm::sparse
