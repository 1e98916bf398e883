// The paper's exact solvability characterization (Theorems 2-7), as a
// closed-form oracle, plus the memoizing OracleCache the sweep scheduler
// shares across cells. The empirical grid experiment (bench E1) compares
// protocol runs against this function cell by cell.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/factory.hpp"
#include "core/problem.hpp"

namespace bsm::core {

/// Is bSM solvable in this setting, per the paper?
///
///  unauthenticated:
///   - fully-connected:  tL < k/3 or tR < k/3
///   - bipartite:        tL, tR < k/2  and  (tL < k/3 or tR < k/3)
///   - one-sided:        tR < k/2      and  (tL < k/3 or tR < k/3)
///  authenticated:
///   - fully-connected:  always
///   - bipartite:        (tL < k and tR < k)  or  tL < k/3  or  tR < k/3
///   - one-sided:        tR < k  or  tL < k/3
[[nodiscard]] bool solvable(const BsmConfig& cfg);

/// Human-readable justification (which theorem/condition applies).
[[nodiscard]] std::string solvability_reason(const BsmConfig& cfg);

/// Canonical identity of one setting, for memoization: the configuration
/// axes plus a digest of the adversary *structure* (which parties are
/// corrupted, how, and when). Workload randomness — noise RNG seeds, input
/// seeds, PKI seeds — is deliberately excluded, so the thousands of cells a
/// grid repeats per setting collapse onto one cache entry. Note the cached
/// derivation itself (oracle verdict + resolved protocol) depends only on
/// the config axes; keying on the full setting identity trades a few
/// duplicate entries per adversary battery for per-setting attribution.
///
/// Collision discipline: `digest()` is the hash, the full key is the map
/// key. Two settings that collide on the 64-bit digest land in the same
/// bucket but are disambiguated by operator==, so a collision costs a
/// compare, never a wrong verdict — for the config axes, which the key
/// stores exactly. The adversary structure is represented only by its own
/// 64-bit digest, so two different adversary plans that collide on it
/// would share an entry; that is harmless while cached values depend only
/// on the config axes, and any future adversary-dependent memoization must
/// widen the key to carry the structure itself.
struct OracleKey {
  net::TopologyKind topology = net::TopologyKind::FullyConnected;
  bool authenticated = false;
  std::uint32_t k = 0;
  std::uint32_t tl = 0;
  std::uint32_t tr = 0;
  std::uint64_t adversary_digest = 0;

  [[nodiscard]] static OracleKey from_config(const BsmConfig& cfg, std::uint64_t adv_digest = 0);

  /// Well-mixed 64-bit digest of every field (splitmix64 over the packed
  /// axes, combined with the adversary digest).
  [[nodiscard]] std::uint64_t digest() const noexcept;

  bool operator==(const OracleKey&) const = default;
};

/// Monotonic counters of one cache (or one sweep's slice of it — see
/// SweepStats). hits+misses is the total number of lookups; inserts can
/// trail misses when two workers race to fill the same entry.
struct OracleCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;

  [[nodiscard]] std::uint64_t lookups() const noexcept { return hits + misses; }
  [[nodiscard]] double hit_rate() const noexcept {
    return lookups() == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups());
  }

  OracleCacheStats& operator+=(const OracleCacheStats& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    inserts += o.inserts;
    return *this;
  }

  bool operator==(const OracleCacheStats&) const = default;
};

/// Sharded memo table over the solvability oracle and the protocol factory:
/// one entry per canonical setting (OracleKey) carrying the verdict and, for
/// solvable settings, the resolved ProtocolSpec. Repeated settings — the
/// common case in grids, where every (topology, auth, k, tL, tR, battery)
/// cell recurs across seeds — resolve in O(1) after the first worker pays
/// for the derivation.
///
/// Thread safety: lookups shard on the key digest; each shard is guarded by
/// its own mutex, so workers touching different settings rarely contend.
/// The verdict is computed *outside* the shard lock (the oracle is pure),
/// so a slow derivation never blocks other lookups in the shard; two
/// workers racing on the same fresh key both compute, one inserts, and the
/// counters record the lost insert (inserts <= misses).
class OracleCache {
 public:
  /// One memoized verdict, as returned to the caller.
  struct Verdict {
    bool solvable = false;
    std::optional<ProtocolSpec> protocol;  ///< engaged iff solvable
    bool hit = false;                      ///< served from the cache?
  };

  static constexpr std::size_t kShards = 16;

  OracleCache() = default;
  OracleCache(const OracleCache&) = delete;
  OracleCache& operator=(const OracleCache&) = delete;

  /// Memoized `solvable(cfg)` + `resolve_protocol(cfg)` under `key`.
  /// `counters`, when given, is bumped with this lookup's outcome (the
  /// per-worker accounting run_sweep() aggregates into SweepStats).
  [[nodiscard]] Verdict lookup(const OracleKey& key, const BsmConfig& cfg,
                               OracleCacheStats* counters = nullptr);

  /// Cumulative counters over every lookup since construction/clear().
  [[nodiscard]] OracleCacheStats stats() const noexcept;

  /// Distinct settings currently memoized.
  [[nodiscard]] std::size_t size() const;

  /// Drop every entry and zero the counters (tests and long-lived servers).
  void clear();

  /// The process-wide cache run_sweep() uses by default.
  [[nodiscard]] static OracleCache& global();

 private:
  struct Entry {
    bool solvable = false;
    std::optional<ProtocolSpec> protocol;
  };

  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const OracleKey& key) const noexcept {
      return static_cast<std::size_t>(key.digest());
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<OracleKey, Entry, KeyHash> entries;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> inserts{0};
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t digest) noexcept {
    return shards_[(digest >> 48) % kShards];
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace bsm::core
