// Global-allocation counting hook for zero-allocation assertions.
//
// Linking the kpm_alloc_hook static library into a target replaces the
// global operator new/delete with counting forwarders; allocation_count()
// then exposes a process-wide monotone counter.  Tests bracket a code region
// with two reads and assert the difference — the steady-state halo exchange,
// for example, must perform zero heap allocations per Chebyshev step
// (DESIGN.md §5d).
//
// Deliberately NOT linked into the default targets: interposing operator new
// is a global decision a library must not make for its users.  The
// aligned payload allocator of util/aligned.hpp (BlockVector storage,
// aligned_vector) goes through the aligned operator new, so the counters
// see matrix and block-vector payloads as well as ordinary new/delete
// traffic (std::vector, std::string, node containers, ...).
#pragma once

#include <cstddef>
#include <cstdint>

namespace kpm::util {

/// Size from which an allocation counts as large: a block vector of 4,096
/// complex entries, the size class glibc may serve by mmap or keep as
/// retained heap after a free (DESIGN.md §5n).
inline constexpr std::size_t kLargeAllocationBytes = std::size_t{64} << 10;

/// Number of successful global operator new calls since process start.
/// Defined by kpm_alloc_hook — link it or get an (intentional) link error.
[[nodiscard]] std::int64_t allocation_count() noexcept;

/// Of those, the calls of kLargeAllocationBytes or more.
[[nodiscard]] std::int64_t large_allocation_count() noexcept;

/// Always true in targets that link kpm_alloc_hook; exists so a test can
/// document at runtime that its zero-allocation assertion is live.
[[nodiscard]] bool allocation_hook_active() noexcept;

}  // namespace kpm::util
