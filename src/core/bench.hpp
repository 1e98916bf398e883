// Unified benchmark harness — the repo's single measurement surface.
//
// Every bench/ binary and `bsm_cli bench` funnels through this subsystem:
// a BenchCase names a deterministic workload (usually a run_cells() /
// run_sweep() fan-out or a run_bsm() experiment), the harness times it
// with a steady clock under a shared warmup/repeat policy, and the
// JsonReporter emits one versioned machine-readable document
// (BENCH_results.json, schema documented field-by-field in
// docs/BENCHMARKS.md) carrying the git SHA and thread count so runs are
// comparable across commits.
//
// Determinism is part of the contract, not an afterthought: each BenchRun
// reports a digest (view hashes, decisions, matchings — whatever the case
// deems its observable output), and the harness cross-checks that every
// repeat of a case produced the same digest. A benchmark whose repeats
// disagree is reported `deterministic: false` and fails the suite, because
// a nondeterministic workload cannot be compared across commits.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cli_options.hpp"
#include "common/types.hpp"
#include "core/envelope.hpp"

namespace bsm::core {

/// Wall-clock stopwatch over std::chrono::steady_clock (monotonic — never
/// jumps with NTP adjustments, unlike system_clock).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  /// Milliseconds elapsed since construction or the last restart().
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Execution environment handed to every case body.
struct BenchContext {
  /// Worker threads for cases that fan out via run_cells()/run_sweep();
  /// 0 = hardware concurrency, 1 = serial.
  unsigned threads = 0;
};

/// What one execution of a case reports back to the harness. All fields
/// other than the timing (which the harness measures itself) are the
/// case's responsibility.
struct BenchRun {
  std::size_t cells = 0;        ///< work units completed (for cells/sec)
  Round rounds = 0;             ///< simulated protocol rounds, summed over runs
  std::uint64_t messages = 0;   ///< physical messages, from TrafficStats
  std::uint64_t bytes = 0;      ///< payload bytes, from TrafficStats
  std::uint64_t digest = 0;     ///< determinism cross-check (view hashes etc.)
  bool ok = true;               ///< did the case's correctness checks hold?

  bool operator==(const BenchRun&) const = default;
};

/// One registered benchmark: a name ("group/case"), the cell factory that
/// executes the workload, and the repeat/warmup policy.
struct BenchCase {
  std::string name;  ///< "group/case"; groups mirror the bench/ binaries
  std::function<BenchRun(const BenchContext&)> run;
  int repeats = 3;  ///< measured executions (overridden by --repeats)
  int warmup = 1;   ///< untimed executions before measurement
};

/// Aggregated outcome of one case over all measured repeats.
struct BenchResult {
  std::string name;
  int repeats = 0;
  int warmup = 0;
  std::vector<double> wall_ms;  ///< one entry per measured repeat
  double min_ms = 0.0;
  double median_ms = 0.0;
  double mean_ms = 0.0;
  double cells_per_sec = 0.0;  ///< run.cells / median wall time
  BenchRun run;                ///< payload of the last measured repeat
  bool deterministic = true;   ///< all repeats produced identical BenchRuns
};

/// Process-wide case registry. Bench binaries register their group at the
/// top of main(); `bsm_cli bench` registers every group (see
/// bench/cases/cases.hpp) and so runs the full suite.
class BenchRegistry {
 public:
  [[nodiscard]] static BenchRegistry& global();

  void add(BenchCase c);
  [[nodiscard]] const std::vector<BenchCase>& cases() const noexcept { return cases_; }

  /// Cases whose name matches `filter` (ECMAScript regex, searched, not
  /// anchored; empty = all). Throws std::regex_error on a bad pattern.
  [[nodiscard]] std::vector<BenchCase> matching(const std::string& filter) const;

  void clear() { cases_.clear(); }  ///< test isolation only

 private:
  std::vector<BenchCase> cases_;
};

/// Register `c` with the global registry.
void register_bench(BenchCase c);

struct BenchOptions {
  unsigned threads = 0;  ///< BenchContext::threads for every case
  int repeats = 0;       ///< 0 = keep each case's own policy
  std::string filter;    ///< regex over case names; empty = all
};

/// Time every case (warmups untimed, repeats measured) and aggregate.
/// Results are in registration order. The `filter` in `opts` is NOT
/// applied here — filter the case list first (BenchRegistry::matching) so
/// callers control selection explicitly.
[[nodiscard]] std::vector<BenchResult> run_benchmarks(const std::vector<BenchCase>& cases,
                                                      const BenchOptions& opts = {});

/// The BENCH_results.json schema version this build emits — since v2,
/// the shared report envelope's version (see core/envelope.hpp).
inline constexpr int kBenchSchemaVersion = kJsonSchemaVersion;

/// Commit the binary was configured from (CMake bakes it in at configure
/// time; "unknown" outside a git checkout — and stale until the next
/// reconfigure, see docs/BENCHMARKS.md).
[[nodiscard]] const char* build_git_sha() noexcept;

/// Renders the versioned BENCH_results.json document. The full schema is
/// documented field-by-field in docs/BENCHMARKS.md; bump
/// kBenchSchemaVersion on any breaking change.
class JsonReporter {
 public:
  explicit JsonReporter(unsigned threads, std::string git_sha = build_git_sha());

  [[nodiscard]] std::string render(const std::vector<BenchResult>& results) const;

 private:
  unsigned threads_;
  std::string git_sha_;
};

/// The option state bench_main's flag table binds to.
struct BenchCliState {
  BenchOptions opts;
  std::string json_path = "-";  ///< --json target; "-" = stdout, "" = human summary only
  bool list = false;            ///< --list: print case names and exit
};

/// The declarative bench flag table (see common/cli_options.hpp), bound to
/// `state` — bench_main parses with it, and bsm_cli renders it into the
/// top-level help so the table is the single source of bench flags.
[[nodiscard]] cli::Subcommand bench_subcommand(BenchCliState& state);

/// The `bsm_cli bench` entry point (argv[0] is "bench"):
///   --threads N       worker threads for parallel cases (0 = hardware)
///   --repeats N       override every case's repeat count
///   --filter REGEX    run only cases whose name matches
///   --json PATH|-     write BENCH_results.json to PATH, with a human
///                     summary on stdout (default "-": JSON on stdout)
///   --list            print registered case names and exit
///   --help            usage
/// Exits 0 when every selected case was ok and deterministic, 1 on a
/// failed case, 2 on a usage error (unknown flag, bad value, bad regex).
int bench_main(int argc, char** argv);

}  // namespace bsm::core
