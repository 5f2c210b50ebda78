#include "sparse/kpm_kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/schedule.hpp"
#include "util/timer.hpp"

namespace kpm::sparse {
namespace {

thread_local KernelWorkClock* current_work_clock = nullptr;

#ifndef _OPENMP
inline int omp_get_max_threads() { return 1; }
inline int omp_get_num_threads() { return 1; }
inline int omp_get_thread_num() { return 0; }
#endif

// The kernels accept rectangular matrices with ncols >= nrows: a
// distributed-memory partition owns `nrows` rows but reads a halo-extended
// input of `ncols` entries (src/runtime).  Only the first nrows entries of
// v/w enter the on-the-fly dot products — exactly the locally owned rows.
void check_single(const global_index nrows, const global_index ncols,
                  std::span<const complex_t> v, std::span<complex_t> w) {
  require(ncols >= nrows, "aug_spmv: ncols must be >= nrows");
  require(v.size() == static_cast<std::size_t>(ncols) &&
              w.size() >= static_cast<std::size_t>(nrows),
          "aug_spmv: vector sizes must match the matrix shape");
}

bool spans_overlap(std::span<const complex_t> a, std::span<const complex_t> b) {
  if (a.empty() || b.empty()) return false;
  // std::less gives a total pointer order even across unrelated objects.
  const std::less<const complex_t*> lt;
  const auto* a_end = a.data() + a.size();
  const auto* b_end = b.data() + b.size();
  return lt(a.data(), b_end) && lt(b.data(), a_end);
}

void check_runs(std::span<const IndexRange<global_index>> runs,
                global_index nrows) {
  global_index prev = 0;
  for (const auto& r : runs) {
    require(r.begin >= prev && r.begin <= r.end && r.end <= nrows,
            "aug_spmmv_runs: runs must be ascending, disjoint and in bounds");
    prev = r.end;
  }
}

void check_block(const global_index nrows, const global_index ncols,
                 const blas::BlockVector& v, const blas::BlockVector& w,
                 std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  require(ncols >= nrows, "aug_spmmv: ncols must be >= nrows");
  require(v.rows() == ncols && w.rows() >= nrows && v.width() == w.width(),
          "aug_spmmv: shape mismatch");
  require(v.layout() == blas::Layout::row_major &&
              w.layout() == blas::Layout::row_major,
          "aug_spmmv: row-major block vectors required");
  require(dot_vv.empty() || dot_vv.size() == static_cast<std::size_t>(v.width()),
          "aug_spmmv: dot_vv must be empty or match the block width");
  require(dot_wv.empty() || dot_wv.size() == static_cast<std::size_t>(v.width()),
          "aug_spmmv: dot_wv must be empty or match the block width");
  require(dot_vv.empty() == dot_wv.empty(),
          "aug_spmmv: pass both dot outputs or neither");
  require(!spans_overlap(dot_vv, v.span()) && !spans_overlap(dot_vv, w.span()) &&
              !spans_overlap(dot_wv, v.span()) &&
              !spans_overlap(dot_wv, w.span()),
          "aug_spmmv: dot spans must not alias the v/w storage");
}

// ---------------------------------------------------------------------------
// Split-complex views.  complex_t storage is interleaved (re, im) doubles and
// [complex.numbers.general]/4 guarantees array-oriented access through a
// reinterpreted double pointer; computing on the parts directly lets the
// compiler emit FMA arithmetic instead of library complex-multiply calls.
inline const double* re_im(const complex_t* p) noexcept {
  return reinterpret_cast<const double*>(p);
}
inline double* re_im(complex_t* p) noexcept {
  return reinterpret_cast<double*>(p);
}

/// AugScalars hoisted into plain doubles for the split loops.
struct ScalarsRI {
  double ar, ai, br, bi, gr, gi;
  explicit ScalarsRI(const AugScalars& s) noexcept
      : ar(s.alpha.real()),
        ai(s.alpha.imag()),
        br(s.beta.real()),
        bi(s.beta.imag()),
        gr(s.gamma.real()),
        gi(s.gamma.imag()) {}
};

// Lane-count tags of the dispatch layer: FixedWidth<N> makes every lane loop
// a compile-time-constant trip count (register accumulators from N = 8 on,
// see RowAcc), RuntimeWidth is the generic fallback.  The tag describes the
// full block width: every row is one pass over all lanes.
template <int N>
struct FixedWidth {
  static constexpr bool fixed = true;
  static constexpr int compile_width = N;
  constexpr int get() const noexcept { return N; }
};
struct RuntimeWidth {
  static constexpr bool fixed = false;
  static constexpr int compile_width = 1;  // storage bound only; unused
  int w;
  int get() const noexcept { return w; }
};

/// Routes the block width onto a FixedWidth<N> instantiation, or the
/// RuntimeWidth body for untabulated widths.
template <class F>
void dispatch_lanes(int width, F&& f) {
  switch (width) {
    case 1: f(FixedWidth<1>{}); return;
    case 2: f(FixedWidth<2>{}); return;
    case 4: f(FixedWidth<4>{}); return;
    case 8: f(FixedWidth<8>{}); return;
    case 16: f(FixedWidth<16>{}); return;
    case 32: f(FixedWidth<32>{}); return;
    case 64: f(FixedWidth<64>{}); return;
    default: f(RuntimeWidth{width}); return;
  }
}

// ---------------------------------------------------------------------------
// Lock-free deterministic dot reduction.  Each thread accumulates its dot
// partials locally and publishes them once into a cache-line-padded slot of
// this buffer; after a barrier a single thread combines the slots in
// ascending thread order.  With the explicit static row split the
// row->thread assignment is fixed, so the result is bitwise reproducible at
// any fixed thread count — replacing the unordered `omp critical` merges.
class DotPartials {
 public:
  explicit DotPartials(int width)
      : width_(width),
        slot_((3 * static_cast<std::size_t>(width) + 7) / 8 * 8),
        buf_(slot_ * static_cast<std::size_t>(omp_get_max_threads()), 0.0) {}

  /// Publishes one thread's partials (called inside the parallel region).
  void store(const double* vv, const double* wv_re, const double* wv_im) {
    double* slot = buf_.data() + slot_ * omp_get_thread_num();
    for (int r = 0; r < width_; ++r) {
      slot[r] = vv[r];
      slot[width_ + r] = wv_re[r];
      slot[2 * width_ + r] = wv_im[r];
    }
  }

  /// Adds all published partials into the caller's spans, thread 0 first.
  /// Call from one thread only, after a barrier.
  void reduce_into(complex_t* dot_vv, complex_t* dot_wv) const {
    const int nthreads = omp_get_num_threads();
    for (int t = 0; t < nthreads; ++t) {
      const double* slot = buf_.data() + slot_ * t;
      for (int r = 0; r < width_; ++r) {
        dot_vv[r] += complex_t{slot[r], 0.0};
        dot_wv[r] += complex_t{slot[width_ + r], slot[2 * width_ + r]};
      }
    }
  }

 private:
  int width_;
  std::size_t slot_;  // doubles per thread, padded to a 64-byte multiple
  aligned_vector<double> buf_;
};

// ---------------------------------------------------------------------------
// Shared row epilogue: w_i = alpha*acc + beta*v_i + gamma*w_i on split
// parts, plus the on-the-fly |v_i|^2 and conj(w_new)*v_i partials.  Lane r's
// accumulator parts are acc_re[S*r] and acc_im[S*r] (S = 2 reads interleaved
// (re, im) pairs).  `vi` and `wi` point at row i of v and w.
template <class W, bool WithDots, int S>
inline void finish_row(W wt, const ScalarsRI& s,
                       const double* __restrict__ acc_re,
                       const double* __restrict__ acc_im,
                       const double* __restrict__ vi, double* __restrict__ wi,
                       double* __restrict__ lvv, double* __restrict__ lwr,
                       double* __restrict__ lwi) {
  const int lanes = wt.get();
#pragma omp simd
  for (int r = 0; r < lanes; ++r) {
    const double vre = vi[2 * r], vim = vi[2 * r + 1];
    const double wre0 = wi[2 * r], wim0 = wi[2 * r + 1];
    const double sre = acc_re[S * r], sim = acc_im[S * r];
    const double wre = s.ar * sre - s.ai * sim + s.br * vre - s.bi * vim +
                       s.gr * wre0 - s.gi * wim0;
    const double wim = s.ar * sim + s.ai * sre + s.br * vim + s.bi * vre +
                       s.gr * wim0 + s.gi * wre0;
    wi[2 * r] = wre;
    wi[2 * r + 1] = wim;
    if constexpr (WithDots) {
      lvv[r] += vre * vre + vim * vim;
      lwr[r] += wre * vre + wim * vim;  // Re(conj(w_new) * v)
      lwi[r] += wre * vim - wim * vre;  // Im(conj(w_new) * v)
    }
  }
}

// ---------------------------------------------------------------------------
// One output row's accumulators and the lane multiply-accumulate that every
// pass runs per stored entry (DESIGN.md §5m): acc += m * vr over the pass
// lanes, where vr is a row of v.  Two bodies, the same arithmetic per lane:
//
//  * widths of 8 lanes and more keep the accumulators in registers as
//    interleaved (re, im) lane vectors, the layout v and w already use, and
//    form each product as m_re*x + (+-m_im)*swap(x).  Per lane that is
//    exactly the split loop's contracted fmsub / fmadd: the +-1 sign and
//    the swap are exact, and the m_re product is the one contracted into
//    the add in both bodies, so every bit agrees with a width-1 sweep;
//  * narrower and runtime widths keep split re/im arrays (stack for fixed
//    widths, caller-provided heap scratch for runtime widths).

/// Eight doubles: four interleaved (re, im) lanes.
typedef double lane8 __attribute__((vector_size(64)));

template <class W>
inline constexpr bool kWideLanes = W::fixed && W::compile_width >= 8;

template <class W, bool Wide = kWideLanes<W>>
class RowAcc {
 public:
  RowAcc(W wt, double* heap) noexcept : wt_(wt) {
    if constexpr (W::fixed) {
      re_ = stack_.data();
      im_ = stack_.data() + W::compile_width;
      (void)heap;
    } else {
      re_ = heap;
      im_ = heap + wt.get();
    }
  }

  void zero() noexcept {
    const int lanes = wt_.get();
#pragma omp simd
    for (int r = 0; r < lanes; ++r) {
      re_[r] = 0.0;
      im_[r] = 0.0;
    }
  }

  void mac(double mre, double mim, const double* __restrict__ vr) noexcept {
    const int lanes = wt_.get();
    double* __restrict__ acc_re = re_;
    double* __restrict__ acc_im = im_;
#pragma omp simd
    for (int r = 0; r < lanes; ++r) {
      acc_re[r] += mre * vr[2 * r] - mim * vr[2 * r + 1];
      acc_im[r] += mre * vr[2 * r + 1] + mim * vr[2 * r];
    }
  }

  template <bool WithDots>
  void finish(const ScalarsRI& s, const double* vi, double* wi, double* lvv,
              double* lwr, double* lwi) const noexcept {
    finish_row<W, WithDots, 1>(wt_, s, re_, im_, vi, wi, lvv, lwr, lwi);
  }

 private:
  W wt_;
  std::array<double, W::fixed ? 2 * W::compile_width : 1> stack_{};
  double* re_;
  double* im_;
};

template <class W>
class RowAcc<W, true> {
  static constexpr int kLanes = W::compile_width;
  static constexpr int kVecs = 2 * kLanes / 8;

 public:
  RowAcc(W wt, double* /*heap*/) noexcept : wt_(wt) {}

  void zero() noexcept {
#pragma GCC unroll 16
    for (int j = 0; j < kVecs; ++j) av_[j] = lane8{};
  }

  void mac(double mre, double mim, const double* __restrict__ vr) noexcept {
    const lane8 sign = {-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0};
    const lane8 smim = sign * mim;
#pragma GCC unroll 16
    for (int j = 0; j < kVecs; ++j) {
      lane8 x;
      __builtin_memcpy(&x, vr + 8 * j, sizeof x);
      const lane8 xs = __builtin_shufflevector(x, x, 1, 0, 3, 2, 5, 4, 7, 6);
      av_[j] += mre * x + smim * xs;
    }
  }

  template <bool WithDots>
  void finish(const ScalarsRI& s, const double* vi, double* wi, double* lvv,
              double* lwr, double* lwi) const noexcept {
    alignas(64) double acc[2 * kLanes];
    __builtin_memcpy(acc, av_, sizeof acc);
    finish_row<W, WithDots, 2>(wt_, s, acc, acc + 1, vi, wi, lvv, lwr, lwi);
  }

 private:
  W wt_;
  lane8 av_[kVecs]{};
};

/// How many nonzeros ahead the wide CRS body prefetches the |v> row it will
/// gather (DESIGN.md §5m: 4, 8, 16 and 24 measured 1.07, 1.11, 1.23 and
/// 1.20x at width 32).
constexpr global_index kPrefetchAhead = 16;

/// Prefetches the 2N doubles (N/4 cache lines) of one v row.
template <int N>
inline void prefetch_row(const double* vr) noexcept {
#pragma GCC unroll 16
  for (int j = 0; j < 2 * N; j += 8) __builtin_prefetch(vr + j);
}

// The CRS row loop over [row_begin, row_end), all `wt` lanes of each row in
// one pass.  Rows are this thread's only — no worksharing construct, the
// caller did the static split.  The wide body prefetches the v row of the
// entry kPrefetchAhead positions on, clamped to the pass's last entry so
// no index outside the pass is read.
template <class W, bool WithDots>
void crs_pass(const CrsMatrix& a, const ScalarsRI& s,
              const double* __restrict__ vd, double* __restrict__ wd,
              global_index row_begin, global_index row_end, W wt,
              double* __restrict__ lvv, double* __restrict__ lwr,
              double* __restrict__ lwi, double* acc_scratch) {
  const int lanes = wt.get();
  const auto* __restrict__ row_ptr = a.row_ptr().data();
  const auto* __restrict__ col = a.col_idx().data();
  const double* __restrict__ vald = re_im(a.values().data());
  const global_index last = row_ptr[row_end] - 1;
  RowAcc<W> acc(wt, acc_scratch);
  for (global_index i = row_begin; i < row_end; ++i) {
    acc.zero();
    for (global_index k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      if constexpr (kWideLanes<W>) {
        const global_index kp = std::min(k + kPrefetchAhead, last);
        prefetch_row<W::compile_width>(
            vd + 2 * static_cast<std::size_t>(col[kp]) * lanes);
      }
      acc.mac(vald[2 * k], vald[2 * k + 1],
              vd + 2 * static_cast<std::size_t>(col[k]) * lanes);
    }
    const std::size_t base = static_cast<std::size_t>(i) * lanes;
    acc.template finish<WithDots>(s, vd + 2 * base, wd + 2 * base, lvv, lwr,
                                  lwi);
  }
}

// The SELL chunk loop over [chunk_begin, chunk_end).
template <class W, bool WithDots>
void sell_pass(const SellMatrix& a, const ScalarsRI& s,
               const double* __restrict__ vd, double* __restrict__ wd,
               global_index chunk_begin, global_index chunk_end, W wt,
               double* __restrict__ lvv, double* __restrict__ lwr,
               double* __restrict__ lwi, double* acc_scratch) {
  const int lanes = wt.get();
  const int chunk = a.chunk_height();
  const global_index nrows = a.nrows();
  const auto* __restrict__ cptr = a.chunk_ptr().data();
  const auto* __restrict__ clen = a.chunk_len().data();
  const auto* __restrict__ col = a.col_idx().data();
  const double* __restrict__ vald = re_im(a.values().data());
  RowAcc<W> acc(wt, acc_scratch);
  for (global_index c = chunk_begin; c < chunk_end; ++c) {
    const global_index base = cptr[c];
    const int rows_in_chunk =
        static_cast<int>(std::min<global_index>(chunk, nrows - c * chunk));
    for (int lane = 0; lane < rows_in_chunk; ++lane) {
      const global_index i = c * chunk + lane;
      acc.zero();
      for (local_index j = 0; j < clen[c]; ++j) {
        const global_index moff =
            base + static_cast<global_index>(j) * chunk + lane;
        acc.mac(vald[2 * moff], vald[2 * moff + 1],
                vd + 2 * static_cast<std::size_t>(col[moff]) * lanes);
      }
      const std::size_t wbase = static_cast<std::size_t>(i) * lanes;
      acc.template finish<WithDots>(s, vd + 2 * wbase, wd + 2 * wbase, lvv,
                                    lwr, lwi);
    }
  }
}

// ---------------------------------------------------------------------------
// Block-format passes (DESIGN.md §5f).  A b x b block kernel amortizes one
// block-column index over b^2 stored values and keeps a block row's values,
// indices and v block-rows L1-resident while its b output rows are produced;
// VT is the stored value part type (double or float — accumulation is
// always double), D16 selects the 16-bit delta column decode.

template <class VT>
const VT* block_values(const BsrMatrix& a) noexcept {
  if constexpr (std::is_same_v<VT, double>) {
    return re_im(a.values().data());
  } else {
    // [complex.numbers.general]/4 again, for complex<float> storage.
    return reinterpret_cast<const float*>(a.values_f32().data());
  }
}

/// One output row's share of a b x b block multiply-accumulate:
/// acc += blk(ib, jb) * v(bc*B + jb) over the pass lanes, for every jb with
/// entry (ib, jb) nonzero, through the same RowAcc::mac as the scalar
/// formats, so the per-lane contract extends to the block formats.
///
/// Entries that are exactly zero — the explicit fill of a half-dense block
/// (1 - beta of the stored values) — must not execute: a +-0 entry
/// contributes nothing numerically, but the fill would inflate the work by
/// 1/beta (~2.2x on the TI matrix) and push the kernel from bandwidth- to
/// compute-bound.  Instead of testing entries for zero, the walk extracts
/// row ib's bits of the precomputed per-block occupancy word
/// (BsrMatrix::block_mask; bit e = jb*B + ib, column-major) and iterates
/// the survivors with countr_zero — useful entries only.  Ascending set
/// bits give ascending jb, so per output row the multiply-accumulate order
/// is the scalar-CRS column order and the results stay bitwise identical.
template <int B, class VT, class W>
inline void block_mac_row(RowAcc<W>& acc, int lanes,
                          const VT* __restrict__ blk, std::uint16_t mask,
                          int ib, const double* __restrict__ vd,
                          std::size_t vrow0) {
  constexpr std::uint16_t row_bits =
      B == 4 ? 0x1111 : (B == 2 ? 0x5 : 0x1);  // bits jb*B
  std::uint16_t m = static_cast<std::uint16_t>((mask >> ib) & row_bits);
  while (m != 0) {
    const int jb = std::countr_zero(m) / B;
    m = static_cast<std::uint16_t>(m & (m - 1));
    acc.mac(static_cast<double>(blk[2 * (jb * B + ib)]),
            static_cast<double>(blk[2 * (jb * B + ib) + 1]),
            vd + 2 * (vrow0 + static_cast<std::size_t>(jb)) * lanes);
  }
}

/// block_mac_row with the per-row diagonal stream value `d` merged into the
/// jb == ib entry before the multiply: one fused (coeff + d) factor, exactly
/// the assembled diagonal value, so the stencil's bitwise contract holds.
/// Stencil coefficient blocks are complex_t (split re/im via re_im()).
template <int B, class W>
inline void onsite_mac_row(RowAcc<W>& acc, int lanes,
                           const double* __restrict__ blk, std::uint16_t mask,
                           int ib, double d, const double* __restrict__ vd,
                           std::size_t vrow0) {
  constexpr std::uint16_t row_bits = B == 4 ? 0x1111 : (B == 2 ? 0x5 : 0x1);
  std::uint16_t m = static_cast<std::uint16_t>((mask >> ib) & row_bits);
  while (m != 0) {
    const int jb = std::countr_zero(m) / B;
    m = static_cast<std::uint16_t>(m & (m - 1));
    double mre = blk[2 * (jb * B + ib)];
    if (jb == ib) mre += d;
    acc.mac(mre, blk[2 * (jb * B + ib) + 1],
            vd + 2 * (vrow0 + static_cast<std::size_t>(jb)) * lanes);
  }
}


// The BSR loop over the *scalar* rows [row_begin, row_end).
//
// The loop walks scalar rows (block row br = i/B, sub-row ib = i%B) so that
// threads can split the scalar row space with the same static partition as
// the CRS kernels — BSR dot products are then bitwise identical to CRS at
// any thread count and partition.  One row's split accumulators fit in
// registers for the whole block-row walk — the scalar-CRS structure —
// instead of keeping B rows live and pushing every multiply-accumulate
// through L1; the B - 1 re-walks of a block row's values, indices and v
// block-rows hit L1 (a TI block row is ~2 KB).
template <int B, class VT, bool D16, class W, bool WithDots>
void bsr_pass(const BsrMatrix& a, const ScalarsRI& s,
              const double* __restrict__ vd, double* __restrict__ wd,
              global_index row_begin, global_index row_end, W wt,
              double* __restrict__ lvv, double* __restrict__ lwr,
              double* __restrict__ lwi, double* acc_scratch) {
  const int lanes = wt.get();
  const auto* __restrict__ bptr = a.block_ptr().data();
  const auto* __restrict__ bcol = a.block_col().data();
  const auto* __restrict__ first =
      D16 ? a.first_block_col().data() : nullptr;
  const auto* __restrict__ delta = D16 ? a.col_delta16().data() : nullptr;
  const auto* __restrict__ bmask = a.block_mask().data();
  const VT* __restrict__ vald = block_values<VT>(a);
  RowAcc<W> acc(wt, acc_scratch);
  for (global_index i = row_begin; i < row_end; ++i) {
    const global_index br = i / B;
    const int ib = static_cast<int>(i % B);
    const global_index klo = bptr[br];
    const global_index khi = bptr[br + 1];
    acc.zero();
    local_index bc = D16 ? first[br] : 0;
    for (global_index k = klo; k < khi; ++k) {
      if constexpr (D16) {
        bc += static_cast<local_index>(delta[k]);
      } else {
        bc = bcol[k];
      }
      const VT* __restrict__ blk =
          vald + 2 * static_cast<std::size_t>(k) * B * B;
      block_mac_row<B, VT>(acc, lanes, blk, bmask[k], ib, vd,
                           static_cast<std::size_t>(bc) * B);
    }
    const std::size_t base = static_cast<std::size_t>(i) * lanes;
    acc.template finish<WithDots>(s, vd + 2 * base, wd + 2 * base, lvv, lwr,
                                  lwi);
  }
}

// The matrix-free stencil loop over the scalar rows
// [row_begin, row_end) (DESIGN.md §5h).  Interior rows multiply the shared
// Term coefficient blocks (registers/L1) against branch-free neighbour
// offsets — no matrix stream at all except the optional one-f64-per-row
// diagonal (Diag); boundary rows fall back to the operator's CRS-style
// indexed entries.  Per row the multiply-accumulate order is ascending
// delta, ascending jb within a term = the assembled-CRS ascending-column
// order, so results are bitwise identical to the CRS pass.
template <int B, bool Diag, class W, bool WithDots>
void stencil_pass(const StencilOperator& a, const ScalarsRI& s,
                  const double* __restrict__ vd, double* __restrict__ wd,
                  global_index row_begin, global_index row_end, W wt,
                  double* __restrict__ lvv, double* __restrict__ lwr,
                  double* __restrict__ lwi, double* acc_scratch) {
  const int lanes = wt.get();
  const std::span<const StencilOperator::Term> terms = a.terms();
  const int nterms = static_cast<int>(terms.size());
  const int onsite = a.onsite_term();
  const int phase = a.row_phase();
  const double* __restrict__ dg = Diag ? a.diag().data() : nullptr;
  const auto* __restrict__ bptr = a.boundary_ptr().data();
  const auto* __restrict__ bcol = a.boundary_col().data();
  const double* __restrict__ bval = re_im(a.boundary_val().data());
  RowAcc<W> acc(wt, acc_scratch);
  for (const StencilOperator::Segment& seg : a.segments()) {
    const global_index lo = std::max(seg.begin, row_begin);
    const global_index hi = std::min(seg.end, row_end);
    if (lo >= hi) continue;
    if (seg.interior) {
      for (global_index i = lo; i < hi; ++i) {
        const int ib = static_cast<int>((i + phase) % B);
        acc.zero();
        for (int t = 0; t < nterms; ++t) {
          const StencilOperator::Term& tm = terms[static_cast<std::size_t>(t)];
          // First row of the neighbour's block in local indices; interior
          // classification guarantees it lies inside the local vectors.
          const std::size_t vrow0 =
              static_cast<std::size_t>(i - ib + B * tm.delta);
          if constexpr (Diag) {
            if (t == onsite) {
              onsite_mac_row<B>(acc, lanes, re_im(tm.coeff.data()),
                                tm.mask, ib, dg[i], vd, vrow0);
              continue;
            }
          }
          block_mac_row<B, double>(acc, lanes, re_im(tm.coeff.data()),
                                   tm.mask, ib, vd, vrow0);
        }
        const std::size_t base = static_cast<std::size_t>(i) * lanes;
        acc.template finish<WithDots>(s, vd + 2 * base, wd + 2 * base, lvv,
                                      lwr, lwi);
      }
    } else {
      for (global_index i = lo; i < hi; ++i) {
        const global_index q = seg.bnd_row0 + (i - seg.begin);
        acc.zero();
        for (global_index k = bptr[q]; k < bptr[q + 1]; ++k) {
          acc.mac(bval[2 * k], bval[2 * k + 1],
                  vd + 2 * static_cast<std::size_t>(bcol[k]) * lanes);
        }
        const std::size_t base = static_cast<std::size_t>(i) * lanes;
        acc.template finish<WithDots>(s, vd + 2 * base, wd + 2 * base, lvv,
                                      lwr, lwi);
      }
    }
  }
}

/// Routes (block_dim, precision, index_bits) onto the compile-time template
/// parameters of the block passes: f(int_const<B>, type_identity<VT>,
/// bool_const<D16>).
template <class F>
void dispatch_block_format(int block_dim, bool f32, bool d16, F&& f) {
  const auto with_vt = [&](auto bb, auto vt) {
    if (d16) {
      f(bb, vt, std::bool_constant<true>{});
    } else {
      f(bb, vt, std::bool_constant<false>{});
    }
  };
  const auto with_b = [&](auto bb) {
    if (f32) {
      with_vt(bb, std::type_identity<float>{});
    } else {
      with_vt(bb, std::type_identity<double>{});
    }
  };
  if (block_dim == 2) {
    with_b(std::integral_constant<int, 2>{});
  } else {
    with_b(std::integral_constant<int, 4>{});
  }
}

/// Routes (block_dim, has_diag) onto the stencil pass's compile-time
/// parameters: f(int_const<B>, bool_const<Diag>).
template <class F>
void dispatch_stencil(int block_dim, bool diag, F&& f) {
  const auto with_b = [&](auto bb) {
    if (diag) {
      f(bb, std::bool_constant<true>{});
    } else {
      f(bb, std::bool_constant<false>{});
    }
  };
  if (block_dim == 1) {
    with_b(std::integral_constant<int, 1>{});
  } else if (block_dim == 2) {
    with_b(std::integral_constant<int, 2>{});
  } else {
    with_b(std::integral_constant<int, 4>{});
  }
}

// ---------------------------------------------------------------------------
// Parallel orchestration shared by every block kernel: one parallel region;
// each thread takes its static slice of the iteration space and runs the
// format-specific row loop over it, all lanes per row in one pass.  The dot
// partials accumulate across the slice and are published once, so per-lane
// accumulation order (rows ascending within a thread) — and thus every bit
// of the result — depends only on the thread count.
//
// The iteration space is a list of disjoint ascending segments (the
// overlapped halo exchange sweeps scattered interior/boundary run lists).
// Threads split the *position* space — the concatenation of all segments —
// with the same static_chunk() partition the contiguous path uses; since
// static_chunk(begin, end, t, n) == begin + static_chunk(0, end-begin, t, n),
// a single-segment call assigns every row to the same thread as the
// contiguous split and stays bitwise identical.
//
// `run_pass(wt, begin, end, lvv, lwr, lwi, scratch)` executes the
// format-specific loop over [begin, end).
template <bool WithDots, class RunPass>
void run_block_kernel(int width,
                      std::span<const IndexRange<global_index>> segments,
                      complex_t* dot_vv, complex_t* dot_wv, RunPass run_pass) {
  DotPartials partials(WithDots ? width : 0);
  global_index total = 0;
  for (const auto& seg : segments) total += seg.end - seg.begin;
  KernelWorkClock* const clock = KernelWorkClock::current();
  dispatch_lanes(width, [&](auto wt) {
    double slowest = 0.0;
#pragma omp parallel reduction(max : slowest)
    {
      // Heap scratch per thread: runtime-width accumulators (split re/im per
      // lane) + dot partials.
      std::vector<double> scratch(5 * static_cast<std::size_t>(width), 0.0);
      double* acc = scratch.data();
      double* lvv = acc + 2 * static_cast<std::size_t>(width);
      double* lwr = lvv + width;
      double* lwi = lwr + width;

      const auto mine = static_chunk<global_index>(
          0, total, omp_get_thread_num(), omp_get_num_threads());
      const double t0 = clock ? Timer::thread_cpu_now() : 0.0;
      global_index pos = 0;  // running start of this segment in position space
      for (const auto& seg : segments) {
        if (pos >= mine.end) break;
        const global_index len = seg.end - seg.begin;
        const global_index lo = std::max(mine.begin, pos);
        const global_index hi = std::min(mine.end, pos + len);
        pos += len;
        if (lo >= hi) continue;
        run_pass(wt, seg.begin + (lo - (pos - len)),
                 seg.begin + (hi - (pos - len)), lvv, lwr, lwi, acc);
      }
      if (clock) slowest = Timer::thread_cpu_now() - t0;
      if constexpr (WithDots) {
        partials.store(lvv, lwr, lwi);
#pragma omp barrier
#pragma omp master
        partials.reduce_into(dot_vv, dot_wv);
      }
    }
    if (clock) clock->add(slowest);
  });
}

/// Contiguous-range convenience wrapper (the single-segment case).
template <bool WithDots, class RunPass>
void run_block_kernel(int width, global_index begin, global_index end,
                      complex_t* dot_vv, complex_t* dot_wv, RunPass run_pass) {
  const IndexRange<global_index> seg{begin, end};
  run_block_kernel<WithDots>(width,
                             std::span<const IndexRange<global_index>>(&seg, 1),
                             dot_vv, dot_wv, run_pass);
}

template <bool WithDots>
void aug_spmmv_crs_core_runs(const CrsMatrix& a, const AugScalars& scal,
                             const complex_t* v, complex_t* w, int width,
                             std::span<const IndexRange<global_index>> runs,
                             complex_t* dot_vv, complex_t* dot_wv) {
  const ScalarsRI s(scal);
  const double* vd = re_im(v);
  double* wd = re_im(w);
  run_block_kernel<WithDots>(
      width, runs, dot_vv, dot_wv,
      [&](auto wt, global_index b, global_index e, double* lvv, double* lwr,
          double* lwi, double* acc) {
        crs_pass<decltype(wt), WithDots>(a, s, vd, wd, b, e, wt, lvv, lwr,
                                         lwi, acc);
      });
}

template <bool WithDots>
void aug_spmmv_sell_core(const SellMatrix& a, const AugScalars& scal,
                         const complex_t* v, complex_t* w, int width,
                         complex_t* dot_vv, complex_t* dot_wv) {
  const ScalarsRI s(scal);
  const double* vd = re_im(v);
  double* wd = re_im(w);
  run_block_kernel<WithDots>(
      width, 0, a.num_chunks(), dot_vv, dot_wv,
      [&](auto wt, global_index b, global_index e, double* lvv, double* lwr,
          double* lwi, double* acc) {
        sell_pass<decltype(wt), WithDots>(a, s, vd, wd, b, e, wt, lvv, lwr,
                                          lwi, acc);
      });
}

// BSR core over a scalar-row run list: threads split scalar rows with the
// same static partition as the CRS kernels, so BSR dot products — and thus
// moments — are bitwise identical to CRS at any thread count and partition.
template <bool WithDots>
void aug_spmmv_bsr_core_runs(
    const BsrMatrix& a, const AugScalars& scal, const complex_t* v,
    complex_t* w, int width,
    std::span<const IndexRange<global_index>> runs, complex_t* dot_vv,
    complex_t* dot_wv) {
  const ScalarsRI s(scal);
  const double* vd = re_im(v);
  double* wd = re_im(w);
  dispatch_block_format(
      a.block_dim(), a.precision() == MatrixPrecision::f32,
      a.index_bits() == 16, [&](auto bb, auto vt, auto d16) {
        constexpr int B = decltype(bb)::value;
        using VT = typename decltype(vt)::type;
        run_block_kernel<WithDots>(
            width, runs, dot_vv, dot_wv,
            [&](auto wt, global_index rb, global_index re, double* lvv,
                double* lwr, double* lwi, double* acc) {
              bsr_pass<B, VT, decltype(d16)::value, decltype(wt), WithDots>(
                  a, s, vd, wd, rb, re, wt, lvv, lwr, lwi, acc);
            });
      });
}

// Stencil core over a scalar-row run list; same static scalar-row split, so
// stencil moments are bitwise identical to the assembled-CRS moments.
template <bool WithDots>
void aug_spmmv_stencil_core_runs(
    const StencilOperator& a, const AugScalars& scal, const complex_t* v,
    complex_t* w, int width, std::span<const IndexRange<global_index>> runs,
    complex_t* dot_vv, complex_t* dot_wv) {
  const ScalarsRI s(scal);
  const double* vd = re_im(v);
  double* wd = re_im(w);
  dispatch_stencil(a.block_dim(), a.has_diag(), [&](auto bb, auto dg) {
    constexpr int B = decltype(bb)::value;
    run_block_kernel<WithDots>(
        width, runs, dot_vv, dot_wv,
        [&](auto wt, global_index rb, global_index re, double* lvv,
            double* lwr, double* lwi, double* acc) {
          stencil_pass<B, decltype(dg)::value, decltype(wt), WithDots>(
              a, s, vd, wd, rb, re, wt, lvv, lwr, lwi, acc);
        });
  });
}

// ---------------------------------------------------------------------------
// Stage-1 (single-vector) fused kernels, split-complex with the same
// deterministic reduction; WithDots=false compiles the reductions out.
template <bool WithDots>
void aug_spmv_crs_core(const CrsMatrix& a, const AugScalars& scal,
                       const complex_t* v, complex_t* w, complex_t* dot_vv,
                       complex_t* dot_wv) {
  const global_index nrows = a.nrows();
  const auto* __restrict__ row_ptr = a.row_ptr().data();
  const auto* __restrict__ col = a.col_idx().data();
  const double* __restrict__ vald = re_im(a.values().data());
  const double* __restrict__ vd = re_im(v);
  double* __restrict__ wd = re_im(w);
  const ScalarsRI s(scal);
  DotPartials partials(WithDots ? 1 : 0);
#pragma omp parallel
  {
    double lvv = 0.0, lwr = 0.0, lwi = 0.0;
#pragma omp for schedule(static) nowait
    for (global_index i = 0; i < nrows; ++i) {
      double sre = 0.0, sim = 0.0;
      for (global_index k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        const double mre = vald[2 * k], mim = vald[2 * k + 1];
        const std::size_t c = static_cast<std::size_t>(col[k]);
        const double xre = vd[2 * c], xim = vd[2 * c + 1];
        sre += mre * xre - mim * xim;
        sim += mre * xim + mim * xre;
      }
      const double vre = vd[2 * i], vim = vd[2 * i + 1];
      const double wre0 = wd[2 * i], wim0 = wd[2 * i + 1];
      const double wre = s.ar * sre - s.ai * sim + s.br * vre - s.bi * vim +
                         s.gr * wre0 - s.gi * wim0;
      const double wim = s.ar * sim + s.ai * sre + s.br * vim + s.bi * vre +
                         s.gr * wim0 + s.gi * wre0;
      wd[2 * i] = wre;
      wd[2 * i + 1] = wim;
      if constexpr (WithDots) {
        lvv += vre * vre + vim * vim;
        lwr += wre * vre + wim * vim;
        lwi += wre * vim - wim * vre;
      }
    }
    if constexpr (WithDots) {
      partials.store(&lvv, &lwr, &lwi);
#pragma omp barrier
#pragma omp master
      partials.reduce_into(dot_vv, dot_wv);
    }
  }
}

template <bool WithDots>
void aug_spmv_sell_core(const SellMatrix& a, const AugScalars& scal,
                        const complex_t* v, complex_t* w, complex_t* dot_vv,
                        complex_t* dot_wv) {
  const global_index nchunks = a.num_chunks();
  const int chunk = a.chunk_height();
  const global_index nrows = a.nrows();
  const auto* __restrict__ cptr = a.chunk_ptr().data();
  const auto* __restrict__ clen = a.chunk_len().data();
  const auto* __restrict__ col = a.col_idx().data();
  const double* __restrict__ vald = re_im(a.values().data());
  const double* __restrict__ vd = re_im(v);
  double* __restrict__ wd = re_im(w);
  const ScalarsRI s(scal);
  DotPartials partials(WithDots ? 1 : 0);
#pragma omp parallel
  {
    double lvv = 0.0, lwr = 0.0, lwi = 0.0;
#pragma omp for schedule(static) nowait
    for (global_index c = 0; c < nchunks; ++c) {
      const global_index base = cptr[c];
      const int lanes =
          static_cast<int>(std::min<global_index>(chunk, nrows - c * chunk));
      for (int lane = 0; lane < lanes; ++lane) {
        const global_index i = c * chunk + lane;
        double sre = 0.0, sim = 0.0;
        for (local_index j = 0; j < clen[c]; ++j) {
          const global_index off =
              base + static_cast<global_index>(j) * chunk + lane;
          const double mre = vald[2 * off], mim = vald[2 * off + 1];
          const std::size_t cc = static_cast<std::size_t>(col[off]);
          const double xre = vd[2 * cc], xim = vd[2 * cc + 1];
          sre += mre * xre - mim * xim;
          sim += mre * xim + mim * xre;
        }
        const double vre = vd[2 * i], vim = vd[2 * i + 1];
        const double wre0 = wd[2 * i], wim0 = wd[2 * i + 1];
        const double wre = s.ar * sre - s.ai * sim + s.br * vre - s.bi * vim +
                           s.gr * wre0 - s.gi * wim0;
        const double wim = s.ar * sim + s.ai * sre + s.br * vim + s.bi * vre +
                           s.gr * wim0 + s.gi * wre0;
        wd[2 * i] = wre;
        wd[2 * i + 1] = wim;
        if constexpr (WithDots) {
          lvv += vre * vre + vim * vim;
          lwr += wre * vre + wim * vim;
          lwi += wre * vim - wim * vre;
        }
      }
    }
    if constexpr (WithDots) {
      partials.store(&lvv, &lwr, &lwi);
#pragma omp barrier
#pragma omp master
      partials.reduce_into(dot_vv, dot_wv);
    }
  }
}

}  // namespace

KernelWorkClock::KernelWorkClock() noexcept : outer_(current_work_clock) {
  current_work_clock = this;
}

KernelWorkClock::~KernelWorkClock() { current_work_clock = outer_; }

KernelWorkClock* KernelWorkClock::current() noexcept {
  return current_work_clock;
}

void aug_spmv(const CrsMatrix& a, const AugScalars& s,
              std::span<const complex_t> v, std::span<complex_t> w,
              complex_t* dot_vv, complex_t* dot_wv) {
  check_single(a.nrows(), a.ncols(), v, w);
  if (dot_vv == nullptr && dot_wv == nullptr) {
    aug_spmv_crs_core<false>(a, s, v.data(), w.data(), nullptr, nullptr);
    return;
  }
  complex_t vv{}, wv{};
  aug_spmv_crs_core<true>(a, s, v.data(), w.data(), &vv, &wv);
  if (dot_vv != nullptr) *dot_vv = vv;
  if (dot_wv != nullptr) *dot_wv = wv;
}

void aug_spmv(const SellMatrix& a, const AugScalars& s,
              std::span<const complex_t> v, std::span<complex_t> w,
              complex_t* dot_vv, complex_t* dot_wv) {
  check_single(a.nrows(), a.ncols(), v, w);
  if (dot_vv == nullptr && dot_wv == nullptr) {
    aug_spmv_sell_core<false>(a, s, v.data(), w.data(), nullptr, nullptr);
    return;
  }
  complex_t vv{}, wv{};
  aug_spmv_sell_core<true>(a, s, v.data(), w.data(), &vv, &wv);
  if (dot_vv != nullptr) *dot_vv = vv;
  if (dot_wv != nullptr) *dot_wv = wv;
}

void aug_spmmv(const CrsMatrix& a, const AugScalars& s,
               const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  check_block(a.nrows(), a.ncols(), v, w, dot_vv, dot_wv);
  const int width = v.width();
  const IndexRange<global_index> all{0, a.nrows()};
  const std::span<const IndexRange<global_index>> runs(&all, 1);
  if (dot_vv.empty()) {
    aug_spmmv_crs_core_runs<false>(a, s, v.data(), w.data(), width, runs,
                                   nullptr, nullptr);
  } else {
    std::fill(dot_vv.begin(), dot_vv.end(), complex_t{});
    std::fill(dot_wv.begin(), dot_wv.end(), complex_t{});
    aug_spmmv_crs_core_runs<true>(a, s, v.data(), w.data(), width, runs,
                                  dot_vv.data(), dot_wv.data());
  }
}

void aug_spmmv_runs(const CrsMatrix& a, const AugScalars& s,
                    const blas::BlockVector& v, blas::BlockVector& w,
                    std::span<const IndexRange<global_index>> runs,
                    std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  check_block(a.nrows(), a.ncols(), v, w, dot_vv, dot_wv);
  check_runs(runs, a.nrows());
  const int width = v.width();
  if (dot_vv.empty()) {
    aug_spmmv_crs_core_runs<false>(a, s, v.data(), w.data(), width, runs,
                                   nullptr, nullptr);
  } else {
    // Accumulate-only contract (see header): the caller zeroes the dots
    // before the first partial call of a sweep, so split sweeps compose.
    aug_spmmv_crs_core_runs<true>(a, s, v.data(), w.data(), width, runs,
                                  dot_vv.data(), dot_wv.data());
  }
}

void aug_spmmv(const SellMatrix& a, const AugScalars& s,
               const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  check_block(a.nrows(), a.ncols(), v, w, dot_vv, dot_wv);
  const int width = v.width();
  if (dot_vv.empty()) {
    aug_spmmv_sell_core<false>(a, s, v.data(), w.data(), width, nullptr,
                               nullptr);
  } else {
    std::fill(dot_vv.begin(), dot_vv.end(), complex_t{});
    std::fill(dot_wv.begin(), dot_wv.end(), complex_t{});
    aug_spmmv_sell_core<true>(a, s, v.data(), w.data(), width, dot_vv.data(),
                              dot_wv.data());
  }
}

void aug_spmmv(const BsrMatrix& a, const AugScalars& s,
               const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  check_block(a.nrows(), a.ncols(), v, w, dot_vv, dot_wv);
  const int width = v.width();
  const IndexRange<global_index> all{0, a.nrows()};
  const std::span<const IndexRange<global_index>> runs(&all, 1);
  if (dot_vv.empty()) {
    aug_spmmv_bsr_core_runs<false>(a, s, v.data(), w.data(), width, runs,
                                   nullptr, nullptr);
  } else {
    std::fill(dot_vv.begin(), dot_vv.end(), complex_t{});
    std::fill(dot_wv.begin(), dot_wv.end(), complex_t{});
    aug_spmmv_bsr_core_runs<true>(a, s, v.data(), w.data(), width, runs,
                                  dot_vv.data(), dot_wv.data());
  }
}

void aug_spmmv_runs(const BsrMatrix& a, const AugScalars& s,
                    const blas::BlockVector& v, blas::BlockVector& w,
                    std::span<const IndexRange<global_index>> runs,
                    std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  check_block(a.nrows(), a.ncols(), v, w, dot_vv, dot_wv);
  check_runs(runs, a.nrows());
  const int width = v.width();
  if (dot_vv.empty()) {
    aug_spmmv_bsr_core_runs<false>(a, s, v.data(), w.data(), width, runs,
                                   nullptr, nullptr);
  } else {
    // Accumulate-only contract, like the CRS run-list kernel.
    aug_spmmv_bsr_core_runs<true>(a, s, v.data(), w.data(), width, runs,
                                  dot_vv.data(), dot_wv.data());
  }
}

void aug_spmmv(const StencilOperator& a, const AugScalars& s,
               const blas::BlockVector& v, blas::BlockVector& w,
               std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  check_block(a.nrows(), a.ncols(), v, w, dot_vv, dot_wv);
  const int width = v.width();
  const IndexRange<global_index> all{0, a.nrows()};
  const std::span<const IndexRange<global_index>> runs(&all, 1);
  if (dot_vv.empty()) {
    aug_spmmv_stencil_core_runs<false>(a, s, v.data(), w.data(), width, runs,
                                       nullptr, nullptr);
  } else {
    std::fill(dot_vv.begin(), dot_vv.end(), complex_t{});
    std::fill(dot_wv.begin(), dot_wv.end(), complex_t{});
    aug_spmmv_stencil_core_runs<true>(a, s, v.data(), w.data(), width, runs,
                                      dot_vv.data(), dot_wv.data());
  }
}

void aug_spmmv_runs(const StencilOperator& a, const AugScalars& s,
                    const blas::BlockVector& v, blas::BlockVector& w,
                    std::span<const IndexRange<global_index>> runs,
                    std::span<complex_t> dot_vv, std::span<complex_t> dot_wv) {
  check_block(a.nrows(), a.ncols(), v, w, dot_vv, dot_wv);
  check_runs(runs, a.nrows());
  const int width = v.width();
  if (dot_vv.empty()) {
    aug_spmmv_stencil_core_runs<false>(a, s, v.data(), w.data(), width, runs,
                                       nullptr, nullptr);
  } else {
    // Accumulate-only contract, like the CRS run-list kernel.
    aug_spmmv_stencil_core_runs<true>(a, s, v.data(), w.data(), width, runs,
                                      dot_vv.data(), dot_wv.data());
  }
}

}  // namespace kpm::sparse
