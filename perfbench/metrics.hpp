// The benchmark's metric math, kept free of workload code so --self-test
// can pin it: nearest-rank percentiles, the tail rule (the highest
// percentile that leaves at least ten samples beyond it), medians, per-op
// normalisation, and span self time (a span's duration minus the part its
// direct children cover).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// Nearest-rank percentile of unsorted `values` (copied); 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// Median (mean of the two middle values for even counts); 0 when empty.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest percentile on a fixed ladder that still leaves kTailBeyond
/// samples beyond it among `n` samples (0 when even p50 does not). Used
/// for per-layer tails, whose sample counts vary run to run; end-to-end
/// tails use a fixed percentile per workload instead.
[[nodiscard]] inline double tail_percentile_for(std::size_t n) {
  static constexpr double kLadder[] = {99.99, 99.95, 99.9, 99.8, 99.5, 99.0,
                                       98.0,  95.0,  90.0, 80.0, 50.0};
  for (const double p : kLadder) {
    if (samples_beyond(n, p) >= kTailBeyond) return p;
  }
  return 0.0;
}

/// `total` spread over `ops` operations; 0 when no op ran.
[[nodiscard]] inline double per_op(double total, std::size_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

/// One span, as captured by the recorder or by the benchmark itself.
struct SpanEv {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t dur() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

/// Self time of every span in `evs` (same order as `evs`): its duration
/// minus the time its direct children on the same thread cover. Spans on
/// one thread must nest properly (a child lies inside its parent); a child
/// overhanging its parent's end is clipped to it.
[[nodiscard]] inline std::vector<std::uint64_t> self_times(const std::vector<SpanEv>& evs) {
  std::vector<std::size_t> order(evs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanEv& x = evs[a];
    const SpanEv& y = evs[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;  // parents before children that share a start
  });

  std::vector<std::uint64_t> covered(evs.size(), 0);
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    const SpanEv& ev = evs[i];
    if (!stack.empty() && evs[stack.back()].tid != ev.tid) stack.clear();
    while (!stack.empty() && evs[stack.back()].end_ns <= ev.start_ns) stack.pop_back();
    if (!stack.empty()) {
      const SpanEv& parent = evs[stack.back()];
      const std::uint64_t end = std::min(ev.end_ns, parent.end_ns);
      if (end > ev.start_ns) covered[stack.back()] += end - ev.start_ns;
    }
    stack.push_back(i);
  }

  std::vector<std::uint64_t> self(evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const std::uint64_t d = evs[i].dur();
    self[i] = covered[i] >= d ? 0 : d - covered[i];
  }
  return self;
}

}  // namespace perfbench
