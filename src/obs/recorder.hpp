// Deterministic observability recorder — spans, counters, histograms.
//
// The recorder is an *optional* side channel: when disabled (the default)
// every instrumentation site reduces to one relaxed atomic pointer load
// that sees nullptr, so the instrumented binary produces byte-identical
// transcripts, JSONL streams, and reports whether or not the code is
// compiled in. When enabled, instrumentation appends to per-thread
// buffers owned by the Recorder and never feeds anything back into
// protocol, scheduling, or output decisions — timing data flows only
// into the trace file, the `metrics` report block, and stderr progress
// lines. That one-way flow is the whole determinism argument (see
// docs/OBSERVABILITY.md).
//
// Model:
//   - Span: a named duration (start/end ns) with a small integer arg
//     (round index, cell index, ...). Every span kind also owns a
//     64-bucket log2-ns latency histogram that is updated even when
//     span capture is off, so `--metrics` works without a trace file.
//   - Counter: a monotonic per-thread relaxed atomic, summed on read.
//     Counters are readable concurrently (the progress heartbeat thread
//     polls them); histograms and span buffers are owner-written and
//     only read after the workload joined.
//   - Thread identity: workers label themselves with a stable small tid
//     (sweep worker w -> tid w+1; the constructing thread is tid 0).
//     Re-created pool threads re-use the same label, and export merges
//     logs by label, so trace tids do not depend on OS thread ids.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bsm::obs {

/// Span kinds. One latency histogram per kind; names are pinned by
/// tests and by the `metrics` schema in tools/validate_json.py.
enum class Span : std::uint8_t {
  EngineAssemble,   ///< mailbox assemble (+ pending corruption drain)
  EnginePolicy,     ///< delivery-policy assemble path
  EngineDeliver,    ///< per-recipient view-hash fold + delivery stats
  EngineOnRound,    ///< per-party on_round stepping + send collection
  SweepChunk,       ///< one scheduler chunk executed by a worker
  SweepCell,        ///< one sweep cell (scenario run + property checks)
  OracleHit,        ///< oracle cache lookup that hit
  OracleMiss,       ///< oracle cache lookup that missed (incl. derivation)
  ShardEmit,        ///< one block's JSONL cell-line rendering + write
  ShardCheckpoint,  ///< one checkpoint line rendering + write
  ShardFlush,       ///< ostream flush at a block boundary
  SchedEval,        ///< one schedule evaluation (explore/fuzz exec)
};
inline constexpr std::size_t kSpanKinds = 12;

/// Monotonic counters. Keys are pinned by the `metrics` schema.
enum class Counter : std::uint8_t {
  EngineRounds,      ///< engine rounds stepped (all engines)
  CellsDone,         ///< sweep cells completed
  Chunks,            ///< scheduler chunks executed
  Steals,            ///< chunks executed by a non-owner worker
  IdleExits,         ///< workers that found every deque empty and left
  OracleHits,        ///< oracle cache hits
  OracleMisses,      ///< oracle cache misses
  OracleInserts,     ///< oracle cache inserts won
  CellsEmitted,      ///< JSONL cell lines written
  Checkpoints,       ///< JSONL checkpoint lines written
  Flushes,           ///< block-boundary flushes
  Evals,             ///< schedule evaluations (explore/fuzz)
};
inline constexpr std::size_t kCounterKinds = 12;

/// Trace-facing span name, e.g. "engine/assemble".
[[nodiscard]] const char* span_name(Span s) noexcept;
/// Metrics-JSON key, e.g. "engine_assemble".
[[nodiscard]] const char* span_key(Span s) noexcept;
/// Metrics-JSON counter key, e.g. "engine_rounds".
[[nodiscard]] const char* counter_key(Counter c) noexcept;

/// Log2-ns histogram bucketing (pinned by tests/obs_test.cpp):
/// bucket i holds durations in [2^i, 2^(i+1)) ns; 0 ns lands in
/// bucket 0; everything >= 2^63 ns saturates into bucket 63.
inline constexpr std::size_t kHistogramBuckets = 64;
[[nodiscard]] std::size_t bucket_index(std::uint64_t ns) noexcept;
[[nodiscard]] std::uint64_t bucket_lower_bound(std::size_t bucket) noexcept;

/// One latency histogram: counts per log2 bucket plus exact max.
struct Histogram {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t max_ns = 0;

  void record(std::uint64_t ns) noexcept {
    ++buckets[bucket_index(ns)];
    ++count;
    if (ns > max_ns) max_ns = ns;
  }
  void merge(const Histogram& other) noexcept;
  /// Lower bound of the bucket holding the p-th percentile sample
  /// (p in [0, 100]); 0 when empty.
  [[nodiscard]] std::uint64_t percentile_ns(double p) const noexcept;
};

/// One captured span event (16 + 8 bytes, append-only per thread).
struct SpanEvent {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t arg;
  Span kind;
};

class Recorder {
 public:
  struct Options {
    bool capture_spans = false;      ///< keep individual events for --trace-out
    std::size_t span_cap = 1 << 21;  ///< per-thread event cap; excess -> dropped
  };

  Recorder();  ///< default Options
  explicit Recorder(Options opts);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Nanoseconds since this recorder's construction (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Record one completed span: always feeds the kind's histogram;
  /// appends the event only when capture_spans and under the cap.
  void record(Span s, std::uint64_t start_ns, std::uint64_t end_ns, std::uint64_t arg = 0);

  /// Bump a counter (relaxed; safe from any thread).
  void count(Counter c, std::uint64_t delta = 1);

  /// Label the calling thread with a stable small tid for the trace.
  /// The constructing thread is pre-labeled 0; sweep workers use w+1.
  void label_thread(std::uint32_t tid);

  /// Total units of work expected (cells / execs); 0 = unknown. Read by
  /// the progress heartbeat for percent + ETA.
  void set_total_work(std::uint64_t total) noexcept {
    total_work_.store(total, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_work() const noexcept {
    return total_work_.load(std::memory_order_relaxed);
  }

  /// Concurrent-safe counter sum across threads.
  [[nodiscard]] std::uint64_t counter_total(Counter c) const;

  // --- post-join aggregation (call after the workload's threads exited) ---
  [[nodiscard]] Histogram histogram(Span s) const;
  [[nodiscard]] std::uint64_t spans_captured() const;
  [[nodiscard]] std::uint64_t spans_dropped() const;

  /// Chrome trace-event JSON (object form: {"traceEvents": [...]}) with
  /// process/thread metadata, one "X" complete event per captured span,
  /// and derived "C" counter tracks (cells_done over time). Loadable in
  /// Perfetto / chrome://tracing.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// The versioned single-line `metrics` object appended to JSON
  /// envelope reports: {"version": 2, "spans": ..., "spans_dropped":
  /// ..., "counters": {...}, "histograms": {...}}.
  [[nodiscard]] std::string metrics_json() const;

 private:
  struct ThreadLog {
    std::uint32_t label = kUnlabeled;
    std::uint64_t order = 0;  ///< registration order, for unlabeled tids
    std::array<std::atomic<std::uint64_t>, kCounterKinds> counters{};
    std::array<Histogram, kSpanKinds> hists{};
    std::vector<SpanEvent> spans;
    std::uint64_t dropped = 0;
  };
  static constexpr std::uint32_t kUnlabeled = 0xffffffffu;

  ThreadLog& local();
  ThreadLog& register_thread();
  /// Export-time tid for a log: its label, or a stable >=1000 tid for
  /// unlabeled threads (registration order keeps it deterministic).
  [[nodiscard]] static std::uint32_t export_tid(const ThreadLog& log) noexcept;

  Options opts_;
  std::uint64_t generation_;
  std::uint64_t epoch_ns_;
  std::atomic<std::uint64_t> total_work_{0};
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// The globally installed recorder, or nullptr. A single relaxed load —
/// this is the disabled fast path at every instrumentation site.
[[nodiscard]] Recorder* current() noexcept;

/// Install (or, with nullptr, uninstall) the global recorder. Call from
/// the coordinating thread while no instrumented workload is running.
void install(Recorder* rec) noexcept;

/// Label the calling thread on the current recorder; no-op when disabled.
void set_thread_label(std::uint32_t tid);

}  // namespace bsm::obs
