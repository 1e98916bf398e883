// The benchmark program: times the library's public layer entry points from
// outside on two workloads and prints every metric of BENCHMARK.json.
//
//   perfbench_bench --workload grid|fuzz --seed N --seconds S
//                    --trace 0|1 [--pins FILE] [--out-dir DIR]
//   perfbench_bench --self-test
//   perfbench_bench --print-digests --workload W --seeds A-B
//
// --trace 0 measures the end-to-end metrics with no recorder installed.
// --trace 1 spends half the window untraced and half with obs::Recorder
// capturing spans, adds benchmark spans around each layer call, writes
// the merged Chrome trace to --out-dir, and reports the per-layer metrics.
// The last stdout line is always the JSON result; the exit status is 0
// only when every op was correct. Each workload has a fixed worker count
// (grid 3, fuzz 1). See README.md here.
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "common/hash.hpp"
#include "core/oracle.hpp"
#include "core/properties.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "matching/generators.hpp"
#include "metrics.hpp"
#include "obs/recorder.hpp"
#include "sched/fuzz.hpp"

namespace perfbench {
namespace {

using namespace bsm;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process (every thread), in seconds.
[[nodiscard]] double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

[[nodiscard]] std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Shortest round-trip decimal form of `v` (every digit as measured).
[[nodiscard]] std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ------------------------------------------------------------------ tracing

/// Benchmark-side spans around each layer call, plus allocation counts
/// read around the same calls. Spans are recorded only while a recorder
/// is installed (timestamps come from its clock, so they line up with
/// the library's own spans); allocation counts are always kept. The
/// per-site table is a reserved flat vector keyed by the span's name
/// literal, and a span reads the counters before it touches the table,
/// so the bookkeeping itself never shows up in a site's counts.
class Tracer {
 public:
  struct Site {
    const char* name = nullptr;
    std::size_t calls = 0;
    AllocTotals alloc;
  };
  using Sites = std::vector<Site>;

  Tracer() { sites_.reserve(kMaxSites); }

  void attach(obs::Recorder* rec) { rec_ = rec; }

  template <typename F>
  decltype(auto) span(const char* name, F&& fn) {
    const AllocTotals a0 = alloc_totals();
    const std::uint64_t t0 = rec_ != nullptr ? rec_->now_ns() : 0;
    struct Close {
      Tracer& tr;
      const char* name;
      AllocTotals a0;
      std::uint64_t t0;
      ~Close() {
        const AllocTotals used = alloc_totals() - a0;
        const std::uint64_t t1 = tr.rec_ != nullptr ? tr.rec_->now_ns() : 0;
        Site& site = tr.site(name);
        ++site.calls;
        site.alloc += used;
        if (tr.rec_ != nullptr) tr.spans_.push_back({0, name, t0, t1});
      }
    } close{*this, name, a0, t0};
    return fn();
  }

  /// Per-site allocation counts since the last reset.
  [[nodiscard]] const Sites& sites() const { return sites_; }
  void reset_sites() { sites_.clear(); }  // keeps the reserved capacity
  [[nodiscard]] const std::vector<SpanEv>& spans() const { return spans_; }

 private:
  static constexpr std::size_t kMaxSites = 8;

  Site& site(const char* name) {
    for (Site& s : sites_) {
      if (std::strcmp(s.name, name) == 0) return s;
    }
    if (sites_.size() == kMaxSites) throw std::logic_error("too many benchmark span names");
    return sites_.emplace_back(Site{name, 0, {}});
  }

  obs::Recorder* rec_ = nullptr;
  Sites sites_;
  std::vector<SpanEv> spans_;
};

/// The site named `name` in `sites`, or an empty one.
[[nodiscard]] Tracer::Site find_site(const Tracer::Sites& sites, const char* name) {
  for (const Tracer::Site& s : sites) {
    if (std::strcmp(s.name, name) == 0) return s;
  }
  return {name, 0, {}};
}

// ---------------------------------------------------------------- workloads

/// What one block of ops did. A block is the workload's repeat unit: a
/// grid pass or one cycle of fuzz campaigns. Every block of one run yields the same digest.
struct Block {
  std::size_t ops = 0;
  bool for_throughput = true;  ///< counts toward ops_per_s
  double op_seconds = 0;       ///< summed timed-op time
  double op_cpu_seconds = 0;   ///< process CPU time over the same intervals
  std::vector<double> op_ms;   ///< per-op latencies, when exposed
  std::uint64_t digest = 0x9e3779b97f4a7c15ULL;
  std::size_t failed = 0;
  std::string first_failure;

  // Exact work over the block.
  std::uint64_t rounds = 0, msgs = 0, bytes = 0;
  std::uint64_t execs = 0, coverage = 0, interesting = 0;

  /// Allocations per benchmark span during this block.
  Tracer::Sites sites;

  void fail(std::string why) {
    ++failed;
    if (first_failure.empty()) first_failure = std::move(why);
  }
};

[[nodiscard]] std::uint64_t fold_outcome(std::uint64_t h, const core::RunOutcome& out) {
  for (const std::uint64_t v : out.view_hashes) h = hash_combine(h, v);
  h = hash_combine(h, splitmix64(out.traffic.messages));
  h = hash_combine(h, splitmix64(out.traffic.bytes));
  h = hash_combine(h, splitmix64(out.rounds));
  return hash_combine(h, splitmix64(out.report.all() ? 1 : 0));
}

/// The honest inputs to_run_spec() will derive for `spec`, generated in
/// set-up for the independent property check.
[[nodiscard]] matching::PreferenceProfile inputs_of(const core::ScenarioSpec& spec) {
  return matching::random_profile(spec.config.k, spec.input_seed);
}

/// The per-cell correctness gate: all four bSM properties (as run_bsm
/// reported them, and as an independent check_bsm over the cell's honest
/// inputs finds them), and no round-limit cutoff. Returns an empty string
/// when the cell is correct.
[[nodiscard]] std::string check_outcome(Tracer& tr, const core::ScenarioSpec& spec,
                                        const matching::PreferenceProfile& inputs,
                                        const core::RunOutcome& out) {
  if (out.round_limit_hit) return "round_limit_hit on " + spec.config.describe();
  if (!out.report.all()) return "property violated on " + spec.config.describe();
  const auto report = tr.span("bench/check_bsm", [&] {
    return core::check_bsm(spec.config.k, out.corrupt, inputs, out.decisions);
  });
  if (!report.all()) return "check_bsm disagrees on " + spec.config.describe();
  return {};
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// All one-time work before the first timed op (timed and repeated by
  /// the caller; the last repetition's state is the one used).
  virtual void setup() = 0;
  /// One block of ops. `latency_ok` lets a workload spend the block on
  /// its latency variant (grid); traced blocks never do.
  virtual Block run_block(Tracer& tr, bool latency_ok) = 0;
  /// The fixed end-to-end tail percentile (see BENCHMARK.json).
  [[nodiscard]] virtual double tail_percentile() const = 0;
  /// The span wrapping one timed op-group (the per-layer root).
  [[nodiscard]] virtual const char* root_span() const = 0;
  /// The per-op latency samples of a run's blocks: every op's latency.
  [[nodiscard]] virtual std::vector<double> latency_samples(const std::vector<Block>& blocks) const {
    std::vector<double> all;
    for (const Block& b : blocks) all.insert(all.end(), b.op_ms.begin(), b.op_ms.end());
    return all;
  }
  [[nodiscard]] unsigned workers() const { return workers_; }

 protected:
  explicit Workload(unsigned workers) : workers_(workers) {}
  unsigned workers_;
};

// grid: run_sweep over the solvability map, op = one cell.
class GridWorkload final : public Workload {
 public:
  GridWorkload(std::uint64_t seed, unsigned workers) : Workload(workers), seed_(seed) {}

  void setup() override {
    core::SweepGrid grid;
    grid.topologies = {net::TopologyKind::FullyConnected, net::TopologyKind::Bipartite,
                       net::TopologyKind::OneSided};
    grid.auths = {false, true};
    grid.ks = {3, 4, 5, 6};
    grid.seeds = {splitmix64(seed_) % 1000003, splitmix64(seed_ + 1) % 1000003};
    grid.batteries = {core::Battery::Silent, core::Battery::Noise, core::Battery::Liars,
                      core::Battery::AdaptiveCrash};
    cells_ = grid.cells();
    inputs_.clear();
    inputs_.reserve(cells_.size());
    for (const core::ScenarioSpec& cell : cells_) inputs_.push_back(inputs_of(cell));
  }

  Block run_block(Tracer& tr, bool latency_ok) override {
    // Blocks alternate between a throughput pass and a latency pass.
    const bool latency = latency_ok && ++blocks_ % 2 == 0;
    Block b;
    b.ops = cells_.size();
    b.for_throughput = !latency;
    core::OracleCache cache;  // fresh per pass, as a `bsm_cli sweep` process has
    std::vector<core::CellResult> results;
    if (latency) {
      results = latency_pass(cache, b);
    } else {
      core::SweepOptions opts;
      opts.threads = workers_;
      opts.oracle = &cache;
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      results = tr.span("bench/pass", [&] { return core::run_sweep(cells_, opts); });
      b.op_seconds = seconds_between(t0, Clock::now());
      b.op_cpu_seconds = cpu_seconds() - c0;
    }
    core::SweepArena arena;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const core::CellResult& r = results[i];
      b.digest = hash_combine(b.digest, splitmix64(r.solvable ? 1 : 0));
      if (!r.solvable) continue;
      if (!r.outcome.has_value()) {
        b.fail("solvable cell not run: " + r.scenario.config.describe());
        continue;
      }
      const core::RunOutcome& out = *r.outcome;
      b.digest = fold_outcome(b.digest, out);
      b.rounds += out.rounds;
      b.msgs += out.traffic.messages;
      b.bytes += out.traffic.bytes;
      if (auto why = check_outcome(tr, r.scenario, inputs_[i], out); !why.empty()) {
        b.fail(std::move(why));
      }
      // The scenario layer, which runs inside the cell, timed on its own:
      // the same call the cell makes, with the resolved protocol and a
      // per-pass arena as the sweep worker has them.
      (void)tr.span("bench/to_run_spec",
                    [&] { return core::to_run_spec(r.scenario, &arena, out.spec); });
    }
    return b;
  }

  [[nodiscard]] double tail_percentile() const override { return 99.8; }
  [[nodiscard]] const char* root_span() const override { return "bench/pass"; }

  /// One sample per cell: the median of its latencies over the run's
  /// latency passes, so a cell slowed by a passing disturbance in one
  /// pass does not move the tail.
  [[nodiscard]] std::vector<double> latency_samples(const std::vector<Block>& blocks) const override {
    std::vector<std::vector<double>> per_cell(cells_.size());
    for (const Block& b : blocks) {
      for (std::size_t i = 0; i < b.op_ms.size() && i < per_cell.size(); ++i) {
        per_cell[i].push_back(b.op_ms[i]);
      }
    }
    std::vector<double> out;
    for (auto& v : per_cell) {
      if (!v.empty()) out.push_back(median(std::move(v)));
    }
    return out;
  }

 private:
  /// A copy of run_sweep's cell loop (parallel_for_workers, run_scenario,
  /// per-worker arenas, a fresh cache) with each run_scenario call timed.
  /// run_sweep's only per-cell observer is the obs::Recorder, which the
  /// untraced metrics must not install; so a change to run_sweep's own
  /// per-cell wrapping moves ops_per_s but not the latencies from here.
  std::vector<core::CellResult> latency_pass(core::OracleCache& cache, Block& b) {
    std::vector<core::CellResult> results(cells_.size());
    b.op_ms.assign(cells_.size(), 0.0);
    const unsigned resolved = core::detail::resolve_threads(cells_.size(), workers_);
    std::vector<core::SweepArena> arenas(resolved);
    (void)core::detail::parallel_for_workers(
        cells_.size(), {workers_, core::Schedule::WorkStealing, 0, 0},
        [&](std::size_t i, unsigned worker) {
          const auto t0 = Clock::now();
          results[i] = core::run_scenario(cells_[i], &cache, &arenas[worker]);
          b.op_ms[i] = 1e3 * seconds_between(t0, Clock::now());
        });
    return results;
  }

  std::uint64_t seed_;
  std::vector<core::ScenarioSpec> cells_;
  std::vector<matching::PreferenceProfile> inputs_;
  std::size_t blocks_ = 0;
};

// fuzz: Fuzzer campaigns on one scenario, op = one campaign.
class FuzzWorkload final : public Workload {
 public:
  static constexpr std::size_t kCampaignsPerBlock = 8;
  static constexpr std::size_t kExecs = 1024;

  FuzzWorkload(std::uint64_t seed, unsigned workers) : Workload(workers), seed_(seed) {}

  void setup() override {
    scenario_ = core::ScenarioSpec{};
    scenario_.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, 4, 1, 1};
    scenario_.input_seed = splitmix64(seed_) % 1000003;
    scenario_.pki_seed = splitmix64(seed_ + 7) % 1000003;
    core::apply_battery(scenario_, core::Battery::Silent, seed_);
    // The constructor's root run is part of every campaign's set-up.
    (void)sched::Fuzzer(scenario_, options(0));
  }

  Block run_block(Tracer& tr, bool) override {
    Block b;
    for (std::size_t c = 0; c < kCampaignsPerBlock; ++c) {
      auto fuzzer = tr.span("bench/fuzzer_ctor", [&] {
        return std::make_unique<sched::Fuzzer>(scenario_, options(c));
      });
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      const sched::FuzzReport report = tr.span("bench/campaign", [&] { return fuzzer->run(); });
      const double s = seconds_between(t0, Clock::now());
      b.op_cpu_seconds += cpu_seconds() - c0;
      ++b.ops;
      b.op_seconds += s;
      b.op_ms.push_back(1e3 * s);
      for (const std::uint64_t v : {std::uint64_t{report.execs}, std::uint64_t{report.coverage},
                                    std::uint64_t{report.corpus_size},
                                    std::uint64_t{report.interesting}}) {
        b.digest = hash_combine(b.digest, splitmix64(v));
      }
      b.execs += report.execs + report.shrink_runs;
      b.coverage += report.coverage;
      b.interesting += report.interesting;
      if (report.violations != 0) b.fail("in-envelope fuzz violation");
      if (report.execs != kExecs) b.fail("campaign ran " + std::to_string(report.execs) + " execs");
    }
    return b;
  }

  [[nodiscard]] double tail_percentile() const override { return 92.0; }
  [[nodiscard]] const char* root_span() const override { return "bench/campaign"; }

 private:
  [[nodiscard]] sched::FuzzerOptions options(std::size_t campaign) const {
    sched::FuzzerOptions opts;
    opts.max_execs = kExecs;
    opts.threads = workers_;
    opts.seed = splitmix64(seed_ * 1024 + campaign);
    return opts;
  }

  std::uint64_t seed_;
  core::ScenarioSpec scenario_;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "grid") return std::make_unique<GridWorkload>(seed, 3);
  if (name == "fuzz") return std::make_unique<FuzzWorkload>(seed, 1);
  return nullptr;
}

// ------------------------------------------------------------- pinned digests

/// "workload seed hex" lines; '#' starts a comment.
[[nodiscard]] std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> load_pins(
    const std::string& path) {
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> pins;
  if (path.empty()) return pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pinned digests: " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string wl, hex;
    std::uint64_t seed = 0;
    if (!(fields >> wl >> seed >> hex)) throw std::runtime_error("bad pin line: " + line);
    pins[{wl, seed}] = std::stoull(hex, nullptr, 16);
  }
  return pins;
}

// ---------------------------------------------------------------- measuring

struct Window {
  std::vector<Block> blocks;
  double seconds = 0;
};

struct RunState {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;
  std::optional<std::uint64_t> expected;  ///< pinned, or the first block's digest
  bool pinned = false;

  void account(const Block& b) {
    attempted += b.ops;
    std::size_t bad = b.failed;
    std::string why = b.first_failure;
    if (!expected.has_value()) expected = b.digest;
    if (b.digest != *expected) {
      bad = b.ops;  // the block's outputs as a whole are wrong
      why = std::string(pinned ? "digest differs from the pinned " : "digest differs across blocks: ") +
            hex64(b.digest) + " vs " + hex64(*expected);
    }
    failed += bad;
    if (bad != 0 && first_failure.empty()) first_failure = why;
  }
};

/// The workload's one-time set-up, repeated, with each repetition's time.
/// It is sampled before the first block and again after every untraced
/// block, so its median covers the same stretch of the run as the op
/// metrics rather than only the first moments of the process.
struct SetupTimes {
  static constexpr std::size_t kFirstReps = 25;
  static constexpr double kFirstBudgetSeconds = 0.5;
  static constexpr std::size_t kBlockReps = 25;
  static constexpr double kBlockShare = 0.02;  ///< of the block's time

  std::vector<double> seconds;

  /// Repetitions until `budget` seconds or `max_reps` are spent; at least one.
  void sample(Workload& wl, double budget, std::size_t max_reps) {
    double spent = 0;
    for (std::size_t i = 0; i < max_reps && (i == 0 || spent < budget); ++i) {
      const auto t0 = Clock::now();
      wl.setup();
      seconds.push_back(seconds_between(t0, Clock::now()));
      spent += seconds.back();
    }
  }
};

/// Run blocks until `seconds` elapse, at least `min_blocks` of them;
/// `span_budget` spans captured by `rec` also end a traced window. With
/// `setup`, set-up is sampled after each block (never under a recorder).
Window run_window(Workload& wl, Tracer& tr, RunState& st, double seconds, bool latency_ok,
                  std::size_t min_blocks, SetupTimes* setup, const obs::Recorder* rec = nullptr,
                  std::uint64_t span_budget = 0) {
  Window w;
  const auto t0 = Clock::now();
  while (true) {
    tr.reset_sites();
    const auto b0 = Clock::now();
    w.blocks.push_back(wl.run_block(tr, latency_ok));
    w.blocks.back().sites = tr.sites();
    st.account(w.blocks.back());
    if (setup != nullptr) {
      setup->sample(wl, SetupTimes::kBlockShare * seconds_between(b0, Clock::now()),
                    SetupTimes::kBlockReps);
    }
    const double elapsed = seconds_between(t0, Clock::now());
    if (w.blocks.size() < min_blocks) continue;
    if (elapsed >= seconds) break;
    if (rec != nullptr && span_budget != 0 && rec->spans_captured() >= span_budget) break;
  }
  w.seconds = seconds_between(t0, Clock::now());
  return w;
}

/// ops_per_s: the median over throughput blocks of ops / timed-op seconds.
[[nodiscard]] double ops_per_s(const Window& w) {
  std::vector<double> rates;
  for (const Block& b : w.blocks) {
    if (b.for_throughput && b.op_seconds > 0) rates.push_back(static_cast<double>(b.ops) / b.op_seconds);
  }
  return median(rates);
}

/// cpu_ms_per_op: the median over throughput blocks of process CPU
/// milliseconds (all threads) per op.
[[nodiscard]] double cpu_ms_per_op(const Window& w) {
  std::vector<double> per_op_ms;
  for (const Block& b : w.blocks) {
    if (b.for_throughput && b.ops > 0) per_op_ms.push_back(1e3 * b.op_cpu_seconds / static_cast<double>(b.ops));
  }
  return median(per_op_ms);
}

/// Peak RSS of this process image, from /proc/self/status VmHWM. Not
/// getrusage's ru_maxrss: Linux carries that across exec, so under a
/// launcher bigger than the benchmark it reports the launcher's RSS.
[[nodiscard]] double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count / definition, for the human table
};

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  std::size_t w = 0;
  for (const Metric& m : ms) w = std::max(w, m.name.size());
  for (const Metric& m : ms) {
    std::cout << "  " << m.name << std::string(w - m.name.size() + 2, ' ') << num(m.value) << " "
              << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ")";
    std::cout << "\n";
  }
}

[[nodiscard]] std::string result_json(const RunState& st, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += st.failed == 0 && st.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(st.attempted);
  out += ", \"failed\": " + std::to_string(st.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}}";
}

// ---------------------------------------------------------- per-layer (traced)

/// The X events of a recorder Chrome trace (one event per line).
[[nodiscard]] std::vector<SpanEv> parse_trace_events(const std::string& json) {
  std::vector<SpanEv> evs;
  std::istringstream in(json);
  std::string line;
  auto field = [&](const std::string& key) -> std::string_view {
    const auto at = line.find("\"" + key + "\": ");
    if (at == std::string::npos) return {};
    std::size_t b = at + key.size() + 4;
    if (line[b] == '"') {
      ++b;
      return std::string_view(line).substr(b, line.find('"', b) - b);
    }
    const auto e = line.find_first_of(",}", b);
    return std::string_view(line).substr(b, e - b);
  };
  auto us_to_ns = [](std::string_view s) -> std::uint64_t {
    // "<us>.<3 digits>" exactly as the recorder writes it.
    const auto dot = s.find('.');
    std::uint64_t whole = 0, frac = 0;
    std::from_chars(s.data(), s.data() + (dot == std::string_view::npos ? s.size() : dot), whole);
    if (dot != std::string_view::npos) std::from_chars(s.data() + dot + 1, s.data() + s.size(), frac);
    return whole * 1000 + frac;
  };
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    SpanEv ev;
    const auto tid = field("tid");
    std::from_chars(tid.data(), tid.data() + tid.size(), ev.tid);
    ev.name = std::string(field("name"));
    ev.start_ns = us_to_ns(field("ts"));
    ev.end_ns = ev.start_ns + us_to_ns(field("dur"));
    evs.push_back(std::move(ev));
  }
  return evs;
}

/// The recorder's trace with the benchmark spans appended (category
/// "bench", main thread), readable by tools/trace_summarize.py.
[[nodiscard]] std::string merged_trace(const std::string& recorder_json,
                                       const std::vector<SpanEv>& bench) {
  std::string out = recorder_json;
  const auto close = out.rfind("\n]}");
  if (close == std::string::npos) throw std::runtime_error("unexpected recorder trace shape");
  out.resize(close);
  for (const SpanEv& ev : bench) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"name\": \"%s\", \"cat\": "
                  "\"bench\", \"ts\": %llu.%03llu, \"dur\": %llu.%03llu, \"args\": {\"arg\": 0}}",
                  ev.tid, ev.name.c_str(), static_cast<unsigned long long>(ev.start_ns / 1000),
                  static_cast<unsigned long long>(ev.start_ns % 1000),
                  static_cast<unsigned long long>(ev.dur() / 1000),
                  static_cast<unsigned long long>(ev.dur() % 1000));
    out += buf;
  }
  return out + "\n]}\n";
}

struct LayerRow {
  std::size_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<double> durs_us;
};

/// The traced window's spans folded per name, the worker-time the ops had
/// (workers x the root span's total) and the part of it that no span
/// below the root covers.
struct LayerTable {
  std::map<std::string, LayerRow> rows;
  double capacity_ms = 0;
  double unattributed_ms = 0;
};

/// Spans that are not work inside the ops: the root that contains them,
/// the benchmark's separate to_run_spec and check_bsm calls, and the
/// fuzzer's set-up.
[[nodiscard]] bool outside_ops(const Workload& wl, const std::string& name) {
  return name == wl.root_span() || name == "bench/to_run_spec" || name == "bench/check_bsm" ||
         name == "bench/fuzzer_ctor";
}

[[nodiscard]] LayerTable layer_table(const Workload& wl, const std::vector<SpanEv>& evs) {
  const auto self = self_times(evs);
  LayerTable t;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    LayerRow& r = t.rows[evs[i].name];
    ++r.count;
    r.total_ns += evs[i].dur();
    r.self_ns += self[i];
    r.durs_us.push_back(static_cast<double>(evs[i].dur()) / 1e3);
  }
  double attributed_ms = 0;
  for (const auto& [name, r] : t.rows) {
    if (name == wl.root_span()) t.capacity_ms = wl.workers() * static_cast<double>(r.total_ns) / 1e6;
    if (!outside_ops(wl, name)) attributed_ms += static_cast<double>(r.self_ns) / 1e6;
  }
  t.unattributed_ms = std::max(0.0, t.capacity_ms - attributed_ms);
  return t;
}

/// Self-time table: which layer each span name belongs to.
[[nodiscard]] const char* layer_of(const std::string& span) {
  static const std::map<std::string, const char*> kLayers = {
      {"engine/assemble", "net"},          {"engine/policy", "net"},
      {"engine/deliver", "net"},           {"engine/on_round", "protocol"},
      {"sweep/chunk", "core.sweep"},       {"sweep/cell", "core.runner (cell)"},
      {"oracle/hit", "core.oracle"},       {"oracle/miss", "core.oracle"},
      {"sched/eval", "sched"},             {"bench/to_run_spec", "core.scenario"},
      {"bench/check_bsm", "core.properties"},
      {"bench/fuzzer_ctor", "sched"},      {"bench/campaign", "sched (fuzzer loop)"},
      {"bench/pass", "bench (waits on workers)"},
  };
  const auto it = kLayers.find(span);
  return it == kLayers.end() ? "other" : it->second;
}

std::vector<Metric> per_layer_metrics(const Workload& wl, const std::string& workload,
                                      const Window& untraced, const Window& traced,
                                      const obs::Recorder& rec, const LayerTable& table,
                                      const Tracer::Sites& alloc_sites,
                                      std::size_t alloc_ops) {
  const auto& rows = table.rows;
  auto self_ms = [&](const char* name) {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e6;
  };
  auto total_ms = [&](const char* name) {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e6;
  };
  auto count = [&](const char* name) -> std::size_t {
    const auto it = rows.find(name);
    return it == rows.end() ? 0 : it->second.count;
  };

  std::size_t ops = 0;
  Block sum;
  for (const Block& b : traced.blocks) {
    ops += b.ops;
    sum.rounds += b.rounds;
    sum.msgs += b.msgs;
    sum.bytes += b.bytes;
    sum.execs += b.execs;
    sum.coverage += b.coverage;
    sum.interesting += b.interesting;
  }
  const double workers = wl.workers();
  const double root_ms = total_ms(wl.root_span());
  const double capacity_ms = table.capacity_ms;
  const std::uint64_t steals = rec.counter_total(obs::Counter::Steals);
  const std::uint64_t chunks = rec.counter_total(obs::Counter::Chunks);
  const std::uint64_t hits = rec.counter_total(obs::Counter::OracleHits);
  const std::uint64_t misses = rec.counter_total(obs::Counter::OracleMisses);

  // Work items the sweep scheduler runs: cells (grid) or evals (fuzz).
  const bool is_grid = workload == "grid";
  const bool is_fuzz = workload == "fuzz";
  const char* item = is_grid ? "sweep/cell" : "sched/eval";
  std::vector<double> item_us;
  if (const auto it = rows.find(item); it != rows.end() && (is_grid || is_fuzz)) {
    item_us = it->second.durs_us;
  }
  const double item_ms = (is_grid || is_fuzz) ? total_ms(item) : 0.0;
  const double sweeps = is_grid ? static_cast<double>(count("bench/pass"))
                                : static_cast<double>(count("bench/campaign"));

  // Runner remainder: the sweep cell (grid) or the eval kernel (fuzz)
  // minus the engine and oracle spans inside it.
  const double runner_other_ms = is_grid ? self_ms("sweep/cell") : self_ms("sched/eval");

  const double traced_rate = ops_per_s(traced);
  const double untraced_rate = ops_per_s(untraced);
  const auto site = [&](const char* name) { return find_site(alloc_sites, name).alloc; };
  const AllocTotals op_alloc = site(wl.root_span());
  const double item_p = tail_percentile_for(item_us.size());

  return {
      {"net.assemble_ms_per_op", per_op(self_ms("engine/assemble"), ops), "ms", ""},
      {"net.deliver_ms_per_op", per_op(self_ms("engine/deliver"), ops), "ms", ""},
      {"net.policy_ms_per_op", per_op(self_ms("engine/policy"), ops), "ms", ""},
      {"net.rounds_per_op",
       per_op(static_cast<double>(rec.counter_total(obs::Counter::EngineRounds)), ops), "count", ""},
      {"net.msgs_per_op", per_op(static_cast<double>(sum.msgs), ops), "count", "0 on fuzz"},
      {"net.bytes_per_op", per_op(static_cast<double>(sum.bytes), ops), "B", "0 on fuzz"},
      {"protocol.on_round_ms_per_op", per_op(self_ms("engine/on_round"), ops), "ms", ""},
      {"protocol.on_round_share", capacity_ms > 0 ? self_ms("engine/on_round") / capacity_ms : 0,
       "ratio", "of worker-time"},
      {"runner.other_ms_per_op", per_op(runner_other_ms, ops), "ms", ""},
      {"scenario.to_run_spec_ms_per_op", per_op(total_ms("bench/to_run_spec"), ops), "ms",
       "separate call, outside the op"},
      {"properties.check_bsm_us_per_op", 1e3 * per_op(total_ms("bench/check_bsm"), ops), "us",
       "separate call, outside the op"},
      {"oracle.lookup_ms_total",
       sweeps > 0 && is_grid ? (total_ms("oracle/hit") + total_ms("oracle/miss")) / sweeps : 0.0,
       "ms", "per pass"},
      {"oracle.hit_ratio",
       hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses),
       "ratio", ""},
      {"sweep.busy_share", capacity_ms > 0 ? item_ms / capacity_ms : 0, "ratio", ""},
      {"sweep.idle_share",
       capacity_ms > 0 && (is_grid || is_fuzz)
           ? std::max(0.0, capacity_ms - total_ms("sweep/chunk")) / capacity_ms
           : 0.0,
       "ratio", ""},
      {"sweep.steals", sweeps > 0 ? static_cast<double>(steals) / sweeps : 0, "count",
       "per pass or campaign"},
      {"sweep.chunks", sweeps > 0 ? static_cast<double>(chunks) / sweeps : 0, "count",
       "per pass or campaign"},
      {"sweep.cell_p50_us", percentile(item_us, 50), "us",
       std::to_string(item_us.size()) + " cells/evals"},
      {"sweep.cell_tail_us", percentile(item_us, item_p), "us", "p" + num(item_p)},
      {"sched.eval_ms_per_exec", is_fuzz ? per_op(total_ms("sched/eval"), count("sched/eval")) : 0,
       "ms", ""},
      {"sched.execs", per_op(static_cast<double>(sum.execs), ops), "count", "per campaign"},
      {"fuzz.loop_share",
       is_fuzz && root_ms > 0 ? std::max(0.0, 1.0 - item_ms / workers / root_ms) : 0.0, "ratio",
       ""},
      {"fuzz.interesting_ratio",
       sum.execs == 0 ? 0.0 : static_cast<double>(sum.interesting) / static_cast<double>(sum.execs),
       "ratio", ""},
      {"fuzz.coverage_per_op", per_op(static_cast<double>(sum.coverage), ops), "count", ""},
      {"alloc.calls_per_op", per_op(static_cast<double>(op_alloc.calls), alloc_ops), "count",
       "untraced block"},
      {"alloc.bytes_per_op", per_op(static_cast<double>(op_alloc.bytes), alloc_ops), "B", ""},
      {"alloc.to_run_spec_calls_per_op",
       per_op(static_cast<double>(site("bench/to_run_spec").calls), alloc_ops), "count", ""},
      {"alloc.check_bsm_calls_per_op",
       per_op(static_cast<double>(site("bench/check_bsm").calls), alloc_ops), "count", ""},
      {"alloc.to_run_spec_bytes_per_op",
       per_op(static_cast<double>(site("bench/to_run_spec").bytes), alloc_ops), "B", ""},
      {"alloc.check_bsm_bytes_per_op",
       per_op(static_cast<double>(site("bench/check_bsm").bytes), alloc_ops), "B", ""},
      {"obs.trace_overhead", traced_rate > 0 ? untraced_rate / traced_rate : 0, "ratio",
       "untraced/traced ops_per_s"},
      {"trace.unattributed_share", capacity_ms > 0 ? table.unattributed_ms / capacity_ms : 0, "ratio",
       ""},
  };
}

void print_layer_table(const Workload& wl, const LayerTable& t, std::size_t ops) {
  std::cout << "per-layer self time (traced window, " << ops << " ops, " << wl.workers()
            << " worker(s), capacity " << num(t.capacity_ms) << " ms = workers x "
            << wl.root_span() << ")\n";
  std::printf("  %-20s %-28s %10s %12s %12s %10s %8s\n", "span", "layer", "count", "total ms",
              "self ms", "self/op", "share");
  auto share = [&](double ms) { return t.capacity_ms > 0 ? 100.0 * ms / t.capacity_ms : 0.0; };
  for (const auto& [name, r] : t.rows) {
    const double self = static_cast<double>(r.self_ns) / 1e6;
    std::printf("  %-20s %-28s %10zu %12.3f %12.3f %10.4f %7.2f%%%s\n", name.c_str(),
                layer_of(name), r.count, static_cast<double>(r.total_ns) / 1e6, self,
                per_op(self, ops), share(self),
                outside_ops(wl, name) ? "  (not work inside the ops)" : "");
  }
  std::printf("  %-20s %-28s %10s %12s %12.3f %10.4f %7.2f%%\n", "(unattributed)", "-", "-", "-",
              t.unattributed_ms, per_op(t.unattributed_ms, ops), share(t.unattributed_ms));
}

// -------------------------------------------------------------------- modes

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string pins;
  std::string out_dir = ".bench_build/perfbench-traces";
  bool self_test = false;
  bool print_digests = false;
  std::uint64_t seed_lo = 0, seed_hi = 0;
};

int run_benchmark(const Args& a) {
  auto wl = make_workload(a.workload, a.seed);
  if (!wl) {
    std::cerr << "unknown workload: " << a.workload << " (grid, fuzz)\n";
    return 2;
  }
  const auto pins = load_pins(a.pins);
  RunState st;
  if (const auto it = pins.find({a.workload, a.seed}); it != pins.end()) {
    st.expected = it->second;
    st.pinned = true;
  }

  SetupTimes setup;
  setup.sample(*wl, SetupTimes::kFirstBudgetSeconds, SetupTimes::kFirstReps);

  Tracer tr;
  const double untraced_seconds = a.trace ? a.seconds / 2 : a.seconds;
  const Window untraced = run_window(*wl, tr, st, untraced_seconds, !a.trace, 2, &setup);
  // Exact counts and allocations come from the last untraced throughput
  // block: steady state and one whole block, so per-op averages of
  // deterministic work repeat exactly (allocations: at one worker).
  const Block& last = *std::find_if(untraced.blocks.rbegin(), untraced.blocks.rend(),
                                    [](const Block& b) { return b.for_throughput; });
  const auto& alloc_sites = last.sites;
  std::vector<Metric> metrics;

  if (!a.trace) {
    const auto lat = wl->latency_samples(untraced.blocks);
    const double p = wl->tail_percentile();
    std::size_t throughput_ops = 0;
    for (const Block& b : untraced.blocks) throughput_ops += b.for_throughput ? b.ops : 0;
    std::string rates;
    for (const Block& b : untraced.blocks) {
      if (b.for_throughput && b.op_seconds > 0) {
        rates += (rates.empty() ? "" : " ") + num(std::round(static_cast<double>(b.ops) / b.op_seconds * 100) / 100);
      }
    }
    metrics = {
        {"ops_per_s", ops_per_s(untraced), "1/s",
         std::to_string(throughput_ops) + " ops; median of block rates " + rates},
        {"cpu_ms_per_op", cpu_ms_per_op(untraced), "ms", "process CPU time, median of blocks"},
        {"op_p50_ms", percentile(lat, 50), "ms", std::to_string(lat.size()) + " samples"},
        {"op_tail_ms", percentile(lat, p), "ms",
         "p" + num(p) + ", " + std::to_string(samples_beyond(lat.size(), p)) + " beyond of " +
             std::to_string(lat.size())},
        {"setup_s", median(setup.seconds), "s",
         "median of " + std::to_string(setup.seconds.size()) + " repetitions"},
        {"peak_rss_mb", peak_rss_mb(), "MiB", ""},
    };
    print_table("end-to-end: " + a.workload + " seed " + std::to_string(a.seed) + ", " +
                    std::to_string(wl->workers()) + " worker(s), " +
                    std::to_string(untraced.blocks.size()) + " blocks in " + num(untraced.seconds) +
                    " s",
                metrics);
    print_table("exact counts per op (must repeat bit for bit):",
                {{"rounds_per_op", per_op(static_cast<double>(last.rounds), last.ops), "count", ""},
                 {"msgs_per_op", per_op(static_cast<double>(last.msgs), last.ops), "count", ""},
                 {"bytes_per_op", per_op(static_cast<double>(last.bytes), last.ops), "B", ""},
                 {"coverage_per_op", per_op(static_cast<double>(last.coverage), last.ops),
                  "count", ""},
                 {"alloc.calls_per_op",
                  per_op(static_cast<double>(find_site(alloc_sites, wl->root_span()).alloc.calls),
                         last.ops),
                  "count", "exact at 1 worker"}});
  } else {
    obs::Recorder rec(obs::Recorder::Options{true, std::size_t{1} << 21});
    Window traced;
    {
      struct Installed {
        explicit Installed(obs::Recorder* r) { obs::install(r); }
        ~Installed() { obs::install(nullptr); }
      } installed(&rec);
      tr.attach(&rec);
      traced = run_window(*wl, tr, st, a.seconds / 2, false, 1, nullptr, &rec, 250000);
      tr.attach(nullptr);
    }

    const std::string recorder_json = rec.chrome_trace_json();
    std::vector<SpanEv> evs = parse_trace_events(recorder_json);
    const auto& bench = tr.spans();
    std::filesystem::create_directories(a.out_dir);
    // One file per workload, overwritten by each traced run.
    const std::string path = a.out_dir + "/trace-" + a.workload + ".json";
    {
      std::ofstream out(path);
      out << merged_trace(recorder_json, bench);
      if (!out) throw std::runtime_error("cannot write trace: " + path);
    }
    evs.insert(evs.end(), bench.begin(), bench.end());
    std::size_t ops = 0;
    for (const Block& b : traced.blocks) ops += b.ops;
    std::cout << "trace: " << path << " (" << evs.size() << " spans, "
              << rec.spans_dropped() << " dropped)\n";
    const LayerTable table = layer_table(*wl, evs);
    print_layer_table(*wl, table, ops);
    metrics = per_layer_metrics(*wl, a.workload, untraced, traced, rec, table, alloc_sites, last.ops);
    print_table("per-layer: " + a.workload + " seed " + std::to_string(a.seed), metrics);
  }

  if (st.failed != 0) std::cout << "FAILED: " << st.first_failure << "\n";
  std::cout << "digest " << hex64(st.expected.value_or(0))
            << (st.pinned ? " (pinned)" : " (unpinned seed: checked across blocks)") << "\n";
  std::cout << result_json(st, metrics) << std::endl;
  return st.failed == 0 ? 0 : 1;
}

int print_digests(const Args& a) {
  std::cout << "# workload seed digest (perfbench_bench --print-digests)\n";
  for (std::uint64_t s = a.seed_lo; s <= a.seed_hi; ++s) {
    auto wl = make_workload(a.workload, s);
    if (!wl) return 2;
    wl->setup();
    Tracer tr;
    const Block b = wl->run_block(tr, false);
    if (b.failed != 0) {
      std::cerr << a.workload << " seed " << s << ": " << b.first_failure << "\n";
      return 1;
    }
    std::cout << a.workload << " " << s << " " << hex64(b.digest) << std::endl;
  }
  return 0;
}

// ---------------------------------------------------------------- self-test

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "self-test FAIL: " << what << "\n";
      ++failures;
    }
  };

  // Tail rule: the percentile must leave at least ten samples beyond it.
  expect(nearest_rank(100, 50) == 50, "p50 of 100 is rank 50");
  expect(nearest_rank(100, 90) == 90 && samples_beyond(100, 90) == 10, "p90 of 100 leaves 10");
  expect(samples_beyond(100, 91) == 9, "p91 of 100 leaves 9");
  expect(tail_percentile_for(100) == 90.0, "tail of 100 samples is p90");
  expect(tail_percentile_for(6048) == 99.8, "tail of 6048 samples is p99.8");
  expect(tail_percentile_for(10000) == 99.9, "tail of 10000 samples is p99.9");
  expect(tail_percentile_for(5) == 0.0, "no tail for 5 samples");
  // Each workload's fixed tail leaves ten samples beyond it at the low
  // end of its usual sample count in a 45 s run.
  for (const auto& [name, n] :
       {std::pair<const char*, std::size_t>{"grid", 6048}, {"fuzz", 130}}) {
    expect(samples_beyond(n, make_workload(name, 1)->tail_percentile()) >= kTailBeyond,
           std::string(name) + " tail leaves ten samples beyond");
  }
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 50) == 50 && percentile(v, 90) == 90 && percentile(v, 100) == 100,
         "nearest-rank percentiles of 1..100");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median odd/even");

  // Per-op normalisation.
  expect(per_op(600, 200) == 3.0 && per_op(5, 0) == 0.0, "per-op normalisation");

  // Self time: parent [0,100) with children [10,30) and [40,90), the
  // latter holding a grandchild [50,60); another thread's span overlapping
  // in time must not be subtracted.
  const std::vector<SpanEv> evs = {
      {0, "p", 0, 100}, {0, "c1", 10, 30}, {0, "c2", 40, 90}, {0, "g", 50, 60}, {1, "w", 0, 100}};
  const auto self = self_times(evs);
  expect(self[0] == 30 && self[1] == 20 && self[2] == 40 && self[3] == 10 && self[4] == 100,
         "self time subtracts direct children on the same thread only");
  const std::vector<SpanEv> shared = {{0, "c", 5, 9}, {0, "p", 5, 20}};
  expect(self_times(shared)[1] == 11, "a parent sharing its child's start");

  // Trace parsing round trip.
  const std::string trace = merged_trace(
      "{\"traceEvents\": [\n{\"ph\": \"M\", \"pid\": 1, \"tid\": 0}\n]}\n",
      {{0, "bench/op", 1234567, 2234568}});
  const auto parsed = parse_trace_events(trace);
  expect(parsed.size() == 1 && parsed[0].name == "bench/op" && parsed[0].start_ns == 1234567 &&
             parsed[0].end_ns == 2234568,
         "merged trace parses back to the same span");

  // The counting allocator repeats exactly at one worker: the same block
  // twice allocates the same calls and bytes in every span.
  {
    const char* name = "fuzz";
    auto wl = make_workload(name, 1);
    wl->setup();
    Tracer tr;
    (void)wl->run_block(tr, false);  // warm any first-use state
    tr.reset_sites();
    (void)wl->run_block(tr, false);
    const auto first = tr.sites();
    tr.reset_sites();
    (void)wl->run_block(tr, false);
    bool same = first.size() == tr.sites().size() &&
                find_site(first, wl->root_span()).alloc.calls > 0;
    for (const Tracer::Site& s : first) {
      same = same && find_site(tr.sites(), s.name).alloc == s.alloc;
    }
    expect(same, std::string("allocation counts repeat exactly on ") + name);
  }
  // A span's bookkeeping allocates nothing of its own: an empty span with
  // a long name counts 0, on a fresh table and after a reset, and a span
  // around one known allocation counts exactly that one.
  {
    Tracer tr;
    tr.span("bench/an_empty_span_name", [] {});
    const Tracer::Site fresh = find_site(tr.sites(), "bench/an_empty_span_name");
    tr.reset_sites();
    tr.span("bench/an_empty_span_name", [] {});
    const Tracer::Site again = find_site(tr.sites(), "bench/an_empty_span_name");
    expect(fresh.calls == 1 && fresh.alloc == AllocTotals{} && again.calls == 1 &&
               again.alloc == AllocTotals{},
           "an empty span counts 0 allocations");
    static int* volatile one = nullptr;
    tr.span("bench/one_allocation_span", [] { one = new int(7); });
    delete one;
    const AllocTotals a = find_site(tr.sites(), "bench/one_allocation_span").alloc;
    expect(a.calls == 1 && a.bytes == sizeof(int) && a.frees == 0,
           "a span counts exactly the allocations inside it");
  }
  const AllocTotals a0 = alloc_totals();
  static std::vector<int>* volatile sink = nullptr;  // keeps the pair from being elided
  sink = new std::vector<int>(1000);
  delete sink;
  const AllocTotals d = alloc_totals() - a0;
  expect(d.calls == 2 && d.frees == 2 && d.bytes == sizeof(std::vector<int>) + 4000,
         "counting operator new sees every call");

  std::cout << (failures == 0 ? "self-test ok" : "self-test FAILED") << std::endl;
  return failures == 0 ? 0 : 1;
}

// -------------------------------------------------------------------- args

[[nodiscard]] Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = t == "1";
    } else if (flag == "--pins") {
      a.pins = value();
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--self-test") {
      a.self_test = true;
    } else if (flag == "--print-digests") {
      a.print_digests = true;
    } else if (flag == "--seeds") {
      const std::string r = value();
      const auto dash = r.find('-');
      a.seed_lo = std::stoull(r.substr(0, dash));
      a.seed_hi = dash == std::string::npos ? a.seed_lo : std::stoull(r.substr(dash + 1));
    } else {
      throw std::invalid_argument("unknown argument: " + flag);
    }
  }
  if (!a.self_test && !have_workload) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const auto args = perfbench::parse_args(argc, argv);
    if (args.self_test) return perfbench::self_test();
    if (args.print_digests) return perfbench::print_digests(args);
    return perfbench::run_benchmark(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench_bench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_bench: " << e.what() << "\n";
    return 1;
  }
}
