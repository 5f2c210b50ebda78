// Counting replacements of the global allocation functions (see header).
// Every allocating form funnels into counted_alloc(); the aligned forms use
// std::aligned_alloc so the matching sized/aligned deletes can free with
// std::free unconditionally.
#include "util/alloc_hook.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::int64_t> g_large_allocations{0};

void count(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size >= kpm::util::kLargeAllocationBytes) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count(size);
  return std::malloc(size ? size : 1);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  count(size);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}

}  // namespace

namespace kpm::util {

std::int64_t allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

std::int64_t large_allocation_count() noexcept {
  return g_large_allocations.load(std::memory_order_relaxed);
}

bool allocation_hook_active() noexcept { return true; }

}  // namespace kpm::util

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
