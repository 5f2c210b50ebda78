// Deterministic static work partitioning shared by the kernels and the
// NUMA first-touch initialization.
//
// The fused block kernels split their row (or chunk) range into contiguous
// per-thread chunks *manually* instead of relying on `#pragma omp for
// schedule(static)`: the run-list kernels split the concatenation of
// several row intervals, which worksharing loops cannot express, and the
// bitwise-reproducibility contract requires the row->thread assignment to
// be identical between the contiguous and run-list paths on every OpenMP
// implementation.  First-touch page placement (blas::BlockVector) uses the
// same partition so each thread's band of v/w lands on its local NUMA node.
#pragma once

#include <algorithm>

namespace kpm {

/// Contiguous index interval [begin, end).
template <class Index>
struct IndexRange {
  Index begin;
  Index end;
};

/// The contiguous chunk of [begin, end) owned by thread `tid` out of
/// `nthreads`, matching the classic schedule(static) split: q = n/nthreads
/// items each, with the first n%nthreads threads taking one extra.
template <class Index>
[[nodiscard]] constexpr IndexRange<Index> static_chunk(Index begin, Index end,
                                                       int tid,
                                                       int nthreads) noexcept {
  const Index n = end > begin ? end - begin : Index{0};
  const Index nt = static_cast<Index>(nthreads > 0 ? nthreads : 1);
  const Index t = static_cast<Index>(tid);
  const Index q = n / nt;
  const Index r = n % nt;
  const Index lo = begin + q * t + std::min(t, r);
  return {lo, lo + q + (t < r ? Index{1} : Index{0})};
}

}  // namespace kpm
