// Process-wide allocation counters fed by the benchmark binary's own
// global operator new/delete (alloc_count.cpp). The library is unchanged:
// the replacement operators are linked into the benchmark binary only.
//
// Counts are kept in per-thread-slot relaxed atomics, so workers do not
// contend on one cache line; alloc_totals() sums every slot. Reading the
// totals around a call attributes that call's allocations — exactly at
// one worker, and including every thread's allocations at more.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  std::uint64_t calls = 0;  ///< operator new calls (all forms)
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
  std::uint64_t frees = 0;  ///< operator delete calls on non-null pointers

  [[nodiscard]] AllocTotals operator-(const AllocTotals& o) const noexcept {
    return {calls - o.calls, bytes - o.bytes, frees - o.frees};
  }
  AllocTotals& operator+=(const AllocTotals& o) noexcept {
    calls += o.calls;
    bytes += o.bytes;
    frees += o.frees;
    return *this;
  }
  bool operator==(const AllocTotals&) const = default;
};

/// Sum of every thread slot's counters.
[[nodiscard]] AllocTotals alloc_totals() noexcept;

}  // namespace perfbench
