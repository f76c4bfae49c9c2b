// Benchmark-local replacement of the global allocation functions. Every
// operator new variant bumps one process-wide counter while counting is
// switched on (traced runs only), so the tracer's `*.allocs` metrics are
// exact heap-allocation counts, not estimates. While heap tracking is on
// (the untimed memory pass only), allocations and frees also keep a count
// of live bytes and its high-water mark. Timed passes pay two predictable
// branches per allocation and one per free.
#include "perfbench/alloc.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_tracking{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* tracked(void* p) {
  if (p != nullptr && g_tracking.load(std::memory_order_relaxed)) {
    const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live =
        g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak.compare_exchange_weak(peak, live,
                                         std::memory_order_relaxed)) {
    }
  }
  return p;
}

void release(void* p) {
  if (p != nullptr && g_tracking.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  }
  std::free(p);
}

void* allocate(std::size_t size) {
  note();
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return tracked(p);
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note();
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
      return tracked(p);
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void track_heap(bool on) { g_tracking.store(on, std::memory_order_relaxed); }

std::int64_t reset_heap_peak() {
  const std::int64_t live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

std::int64_t heap_peak() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
