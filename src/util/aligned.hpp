// Cache-line / SIMD aligned storage.
//
// Block vectors must be aligned so that a row of R complex elements starts on
// a vector-register boundary; 64-byte alignment covers AVX-512 and the cache
// line size of every architecture in Table II.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace kpm {

inline constexpr std::size_t kpm_alignment = 64;

/// Minimal C++17 aligned allocator (Core Guidelines R.1: ownership via RAII).
template <class T, std::size_t Alignment = kpm_alignment>
struct aligned_allocator {
  using value_type = T;

  // Explicit rebind: the non-type Alignment parameter defeats libstdc++'s
  // automatic template-argument replacement.
  template <class U>
  struct rebind {
    using other = aligned_allocator<U, Alignment>;
  };

  aligned_allocator() noexcept = default;
  template <class U>
  aligned_allocator(const aligned_allocator<U, Alignment>&) noexcept {}

  // Aligned global operator new/delete, so a replaced allocator (such as
  // the kpm_alloc_hook counter) sees every payload.
  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(::operator new(round_up(n * sizeof(T)),
                                          std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (p == nullptr) return;
    ::operator delete(p, round_up(n * sizeof(T)), std::align_val_t{Alignment});
  }

  template <class U>
  bool operator==(const aligned_allocator<U, Alignment>&) const noexcept {
    return true;
  }

 private:
  static constexpr std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + Alignment - 1) / Alignment * Alignment;
  }
};

/// Vector with 64-byte aligned storage, used for all matrix/vector payloads.
template <class T>
using aligned_vector = std::vector<T, aligned_allocator<T>>;

/// Allocator adaptor that default-initializes (leaves trivial types
/// uninitialized) instead of value-initializing on container resize.  A
/// fresh buffer's pages are then NOT touched by the allocating thread, so a
/// subsequent parallel fill places each page on the NUMA node of the thread
/// that will stream it (first-touch policy; see blas::BlockVector).
template <class T, class A = aligned_allocator<T>>
class default_init_allocator : public A {
 public:
  using value_type = T;

  template <class U>
  struct rebind {
    using other = default_init_allocator<
        U, typename std::allocator_traits<A>::template rebind_alloc<U>>;
  };

  using A::A;

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;  // default-init: no write for trivial U
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::allocator_traits<A>::construct(static_cast<A&>(*this), p,
                                        std::forward<Args>(args)...);
  }
};

/// Aligned vector whose resize does not touch the new elements (trivial T).
template <class T>
using untouched_vector = std::vector<T, default_init_allocator<T>>;

}  // namespace kpm
