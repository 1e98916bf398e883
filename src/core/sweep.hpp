// Parallel scenario-sweep driver: a work-stealing chunked scheduler over a
// shared memoized solvability oracle.
//
// Every (config, seed, adversary plan) cell is an independent deterministic
// simulation, so sweeps are embarrassingly parallel — but not uniform:
// grids mix large-k cells that simulate for milliseconds with trivial ones
// that finish in microseconds. A static partition leaves workers idle
// behind whichever shard drew the heavy cells, so run_sweep() schedules
// dynamically instead: the cell range is split into contiguous chunks,
// dealt onto per-worker deques, and each worker drains its own deque from
// the front (preserving locality over its contiguous span) while idle
// workers steal chunks from the *back* of a victim's deque (the far end of
// the victim's range, where the owner will arrive last). Per-worker
// SweepArenas (memoized contested profiles, future pools) live exactly as
// long as the worker and are reused across every cell it executes. Each
// cell resolves its solvability verdict + protocol through an in-memory
// OracleCache, which counts the lookups per canonical setting. The oracle
// itself is a closed form, a small fraction of a percent of a cell's time,
// so the cache is accounting, not a speed-up; it lives only in memory.
//
// The determinism guarantee is strict — parallel results are byte-identical
// to the serial fallback, because each cell owns its engine, PKI, and RNG
// streams and results are written to pre-sized slots indexed by cell: the
// schedule (which worker ran which chunk, what got stolen) is
// nondeterministic, the result placement never is. The guarantee is
// asserted over full RunOutcome equality (view hashes, property reports,
// traffic counters) by tests/sweep_test.cpp, and the bench harness
// (core/bench.hpp) leans on it to compare digests across repeats at any
// --threads value: thread count is a throughput knob, never an outcome
// knob.
//
// run_cells() is the generic deterministic parallel map underneath; use it
// directly for harnesses whose cells are not ScenarioSpecs (e.g. raw
// broadcast-layer experiments). Its only requirement on the cell function
// is purity per cell: fn(cell) must not touch shared mutable state.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/scenario.hpp"

namespace bsm::core {

/// How cells are distributed over workers.
enum class Schedule : std::uint8_t {
  WorkStealing,  ///< chunked deques, idle workers steal from the back
  Static,        ///< one contiguous partition per worker, no stealing
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial fallback (runs
  /// entirely on the calling thread, no pool).
  unsigned threads = 0;

  /// WorkStealing (the default) adapts to skewed grids; Static is the
  /// fixed-partition baseline (kept measurable for bench comparisons).
  Schedule schedule = Schedule::WorkStealing;

  /// Cells per chunk under WorkStealing; 0 = auto (count / (threads * 8),
  /// clamped to [1, count]). Smaller chunks steal finer; larger chunks
  /// keep more locality.
  std::size_t chunk_cells = 0;

  /// Solvability/protocol memo shared by all workers. Defaults to the
  /// process-wide cache; nullptr runs every cell against the closed-form
  /// oracle directly (the uncached baseline).
  OracleCache* oracle = &OracleCache::global();

  /// Observability only: offset added to local cell indices in recorder
  /// spans, so sharded/blocked sweeps trace *global* cell indices. Never
  /// affects scheduling or results.
  std::size_t index_base = 0;
};

/// What one run_sweep() (or run_cells()) execution did, beyond its results:
/// the resolved schedule shape and the sweep's own slice of the oracle
/// cache traffic. Counters are exact — every cell's lookup is attributed —
/// but `oracle` only covers this sweep, not the cache's lifetime (see
/// OracleCache::stats() for that).
struct SweepStats {
  unsigned threads = 0;       ///< resolved worker count (>= 1)
  std::size_t cells = 0;      ///< cells executed
  std::size_t chunks = 0;     ///< chunks dealt (1 when serial)
  std::uint64_t steals = 0;   ///< chunks executed by a non-owner worker
  OracleCacheStats oracle;    ///< this sweep's hits/misses/inserts
};

namespace detail {

/// Scheduling knobs run_cells()/run_sweep() pass down (a SweepOptions
/// minus the oracle, which the generic map knows nothing about).
struct ForOptions {
  unsigned threads = 0;
  Schedule schedule = Schedule::WorkStealing;
  std::size_t chunk_cells = 0;
  std::size_t index_base = 0;  ///< observability-only span-arg offset
};

/// The resolved worker count `parallel_for_workers` will use for `count`
/// items (what callers size per-worker state by).
[[nodiscard]] unsigned resolve_threads(std::size_t count, unsigned threads);

/// Invoke `fn(i, worker)` for every i in [0, count), spread over resolved
/// workers under the requested schedule; `worker` is a stable id in
/// [0, resolved) identifying the executing worker (serial fallback: always
/// 0). Returns the schedule shape (threads/chunks/steals; `cells` and
/// `oracle` are the caller's to fill). The first exception thrown by any
/// cell is rethrown on the calling thread after all workers join.
SweepStats parallel_for_workers(std::size_t count, const ForOptions& opts,
                                const std::function<void(std::size_t, unsigned)>& fn);

}  // namespace detail

/// Deterministic parallel map: results arrive in input order regardless of
/// the execution schedule.
template <typename Cell, typename Fn>
[[nodiscard]] auto run_cells(const std::vector<Cell>& cells, Fn&& fn, SweepOptions opts = {})
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const Cell&>>> {
  using Result = std::decay_t<std::invoke_result_t<Fn&, const Cell&>>;
  // vector<bool> packs bits: concurrent writes to neighboring slots would
  // race on the shared word. Return int (or a struct) instead.
  static_assert(!std::is_same_v<Result, bool>,
                "run_cells: a bool-returning cell function would race on "
                "std::vector<bool> bits; return int instead");
  std::vector<Result> results(cells.size());
  (void)detail::parallel_for_workers(
      cells.size(), {opts.threads, opts.schedule, opts.chunk_cells, opts.index_base},
      [&](std::size_t i, unsigned) { results[i] = fn(cells[i]); });
  return results;
}

/// Outcome of one sweep cell. Cells the oracle rules impossible (and that
/// are not forced) are reported, not run: `outcome` stays empty.
struct CellResult {
  ScenarioSpec scenario;
  bool solvable = false;
  std::optional<RunOutcome> outcome;

  /// Did the cell run and hold all four bSM properties?
  [[nodiscard]] bool ok() const { return outcome.has_value() && outcome->report.all(); }
};

/// Run one cell (the unit of work run_sweep executes per worker). `oracle`
/// memoizes the verdict + protocol under the cell's canonical setting
/// (nullptr = closed-form oracle directly); `arena` supplies per-worker
/// scratch; `counters` receives this lookup's cache accounting.
[[nodiscard]] CellResult run_scenario(const ScenarioSpec& scenario, OracleCache* oracle = nullptr,
                                      SweepArena* arena = nullptr,
                                      OracleCacheStats* counters = nullptr);

/// Execute every cell and return results in input order. `stats`, when
/// given, receives the schedule shape and oracle cache accounting.
[[nodiscard]] std::vector<CellResult> run_sweep(const std::vector<ScenarioSpec>& cells,
                                                SweepOptions opts = {},
                                                SweepStats* stats = nullptr);

}  // namespace bsm::core
