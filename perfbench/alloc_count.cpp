#include "alloc_count.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// Each thread takes a slot on its first allocation and is its only writer,
// so counting is a plain load/add/store (no locked read-modify-write on the
// allocation path); readers sum the slots with relaxed loads. The first
// thread (main) keeps slot 0; later threads cycle through the rest, so two
// threads share a slot only when 63 others were created between them — a
// sweep's concurrently live workers never do, but a shared slot would
// lose counts, which is why multi-worker counts are reported as inexact.
constexpr std::size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> frees{0};
};

std::array<Slot, kSlots> g_slots;
std::atomic<std::size_t> g_threads{0};
constexpr std::size_t kNoSlot = ~std::size_t{0};
thread_local std::size_t t_slot = kNoSlot;

Slot& my_slot() noexcept {
  if (t_slot == kNoSlot) {
    const std::size_t n = g_threads.fetch_add(1, std::memory_order_relaxed);
    t_slot = n == 0 ? 0 : 1 + (n - 1) % (kSlots - 1);
  }
  return g_slots[t_slot];
}

void bump(std::atomic<std::uint64_t>& c, std::uint64_t by) noexcept {
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

void note_alloc(std::size_t size) noexcept {
  Slot& s = my_slot();
  bump(s.calls, 1);
  bump(s.bytes, size);
}

void note_free(void* p) noexcept {
  if (p != nullptr) bump(my_slot().frees, 1);
}

void* counted_alloc(std::size_t size) noexcept {
  note_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  note_alloc(size);
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

}  // namespace

AllocTotals alloc_totals() noexcept {
  AllocTotals t;
  for (const Slot& s : g_slots) {
    t.calls += s.calls.load(std::memory_order_relaxed);
    t.bytes += s.bytes.load(std::memory_order_relaxed);
    t.frees += s.frees.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace perfbench

// --------------------------------------------------- replacement operators

void* operator new(std::size_t size) {
  if (void* p = perfbench::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  perfbench::note_free(p);
  std::free(p);
}
