#include "core/oracle.hpp"

#include "common/hash.hpp"
#include "obs/recorder.hpp"

namespace bsm::core {

namespace {

[[nodiscard]] bool third(std::uint32_t t, std::uint32_t k) { return 3 * t < k; }
[[nodiscard]] bool half(std::uint32_t t, std::uint32_t k) { return 2 * t < k; }

}  // namespace

bool solvable(const BsmConfig& cfg) {
  const std::uint32_t k = cfg.k;
  const std::uint32_t tl = cfg.tl;
  const std::uint32_t tr = cfg.tr;
  require(tl <= k && tr <= k, "solvable: thresholds exceed side size");
  const bool cond3 = third(tl, k) || third(tr, k);

  if (!cfg.authenticated) {
    switch (cfg.topology) {
      case net::TopologyKind::FullyConnected: return cond3;                     // Theorem 2
      case net::TopologyKind::Bipartite: return half(tl, k) && half(tr, k) && cond3;  // Theorem 3
      case net::TopologyKind::OneSided: return half(tr, k) && cond3;            // Theorem 4
    }
  } else {
    switch (cfg.topology) {
      case net::TopologyKind::FullyConnected: return true;                      // Theorem 5
      case net::TopologyKind::Bipartite:
        return (tl < k && tr < k) || third(tl, k) || third(tr, k);              // Theorem 6
      case net::TopologyKind::OneSided: return tr < k || third(tl, k);          // Theorem 7
    }
  }
  return false;
}

std::string solvability_reason(const BsmConfig& cfg) {
  const std::uint32_t k = cfg.k;
  const std::uint32_t tl = cfg.tl;
  const std::uint32_t tr = cfg.tr;
  const bool cond3 = third(tl, k) || third(tr, k);

  if (!cfg.authenticated) {
    switch (cfg.topology) {
      case net::TopologyKind::FullyConnected:
        return cond3 ? "Thm 2: tL<k/3 or tR<k/3 -> general-adversary BB + A_G-S"
                     : "Thm 2: tL>=k/3 and tR>=k/3 -> impossible (Lemma 5 attack)";
      case net::TopologyKind::Bipartite:
        if (!half(tl, k) || !half(tr, k))
          return "Thm 3: a side lacks honest relay majority -> impossible (Lemma 7 attack)";
        return cond3 ? "Thm 3: majority relays (Lemma 6) reduce to fully-connected"
                     : "Thm 3: tL>=k/3 and tR>=k/3 -> impossible (Lemma 5 attack)";
      case net::TopologyKind::OneSided:
        if (!half(tr, k)) return "Thm 4: tR>=k/2 -> impossible (Lemma 7 attack)";
        return cond3 ? "Thm 4: majority relays through R reduce to fully-connected"
                     : "Thm 4: tL>=k/3 and tR>=k/3 -> impossible (Lemma 5 attack)";
    }
  } else {
    switch (cfg.topology) {
      case net::TopologyKind::FullyConnected:
        return "Thm 5: Dolev-Strong BB (t<n) + A_G-S";
      case net::TopologyKind::Bipartite:
        if (tl < k && tr < k) return "Thm 6(i): signed relays (Lemma 8) reduce to fully-connected";
        if (third(tl, k) || third(tr, k)) return "Thm 6(ii): Pi_bSM with omission-tolerant BA/BB";
        return "Thm 6: one side fully byzantine and the other >= k/3 -> impossible (Lemma 13)";
      case net::TopologyKind::OneSided:
        if (tr < k) return "Thm 7: signed relays through R reduce to fully-connected";
        if (third(tl, k)) return "Thm 7: tR=k but tL<k/3 -> Pi_bSM";
        return "Thm 7: tR=k and tL>=k/3 -> impossible (Lemma 13 attack)";
    }
  }
  return "?";
}

// ------------------------------------------------------------ OracleCache

OracleKey OracleKey::from_config(const BsmConfig& cfg, std::uint64_t adv_digest) {
  return OracleKey{cfg.topology, cfg.authenticated, cfg.k, cfg.tl, cfg.tr, adv_digest};
}

std::uint64_t OracleKey::digest() const noexcept {
  // Pack the small axes into one word, mix, then fold in the adversary
  // structure. splitmix64 gives full avalanche, so near-identical settings
  // (tl vs tl+1, auth flipped, ...) land in unrelated shards and buckets.
  const std::uint64_t axes = (static_cast<std::uint64_t>(topology) << 62) |
                             (static_cast<std::uint64_t>(authenticated) << 61) |
                             (static_cast<std::uint64_t>(k) << 40) |
                             (static_cast<std::uint64_t>(tl) << 20) |
                             static_cast<std::uint64_t>(tr);
  return hash_combine(splitmix64(axes), adversary_digest);
}

OracleCache::Verdict OracleCache::lookup(const OracleKey& key, const BsmConfig& cfg,
                                         OracleCacheStats* counters) {
  obs::Recorder* const rec = obs::current();
  const std::uint64_t t0 = rec ? rec->now_ns() : 0;
  Shard& shard = shard_for(key.digest());
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      if (counters != nullptr) ++counters->hits;
      Verdict verdict{it->second.solvable, it->second.protocol, /*hit=*/true};
      if (rec != nullptr) {
        rec->record(obs::Span::OracleHit, t0, rec->now_ns());
        rec->count(obs::Counter::OracleHits);
      }
      return verdict;
    }
  }

  // Miss: derive outside the lock (the oracle and factory are pure), then
  // publish. A concurrent filler may beat us to the insert; its answer is
  // identical by purity, so we keep ours and only count the lost insert.
  Entry entry;
  entry.solvable = solvable(cfg);
  if (entry.solvable) entry.protocol = resolve_protocol(cfg);
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  if (counters != nullptr) ++counters->misses;

  bool inserted = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    inserted = shard.entries.try_emplace(key, entry).second;
  }
  if (inserted) {
    shard.inserts.fetch_add(1, std::memory_order_relaxed);
    if (counters != nullptr) ++counters->inserts;
  }
  if (rec != nullptr) {
    rec->record(obs::Span::OracleMiss, t0, rec->now_ns());
    rec->count(obs::Counter::OracleMisses);
    if (inserted) rec->count(obs::Counter::OracleInserts);
  }
  return {entry.solvable, std::move(entry.protocol), /*hit=*/false};
}

OracleCacheStats OracleCache::stats() const noexcept {
  OracleCacheStats total;
  for (const Shard& shard : shards_) {
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    total.inserts += shard.inserts.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t OracleCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

void OracleCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.inserts.store(0, std::memory_order_relaxed);
  }
}

OracleCache& OracleCache::global() {
  static OracleCache cache;
  return cache;
}

}  // namespace bsm::core
