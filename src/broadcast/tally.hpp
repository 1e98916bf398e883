// TallyArena: the flat, reusable replacement for the per-round
// std::map<Bytes, std::set<PartyId>> vote tallies of phase-king and Pi_BA.
//
// Every phase-king sub-round groups the step's messages of one kind by
// value and asks a quorum predicate about each group's sender set. The
// node-based version rebuilt a map of sets per round — one allocation per
// distinct value plus one per sender node. The arena instead buckets by
// 64-bit value digest in a small open-addressed table of indices; a digest
// match is confirmed by full-bytes equality (a colliding digest costs one
// compare, never a wrong merge), and every backing structure (bucket
// vector, slot table, sender bitsets, value buffers) is retained across
// rounds, so steady-state tallying allocates nothing.
//
// Determinism: `ordered()` yields buckets sorted lexicographically by value
// bytes — exactly the iteration order of the std::map it replaces — so
// "first group satisfying the predicate" decisions are byte-identical to
// the seed implementation by construction, not by argument about predicate
// uniqueness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/wire.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "net/relay.hpp"

namespace bsm::broadcast {

class TallyArena {
 public:
  struct Bucket {
    std::uint64_t digest = 0;
    Bytes value;
    core::PartySet senders;
  };

  /// Rebuild the tally for `kind` from one step's inbox. Replicates the
  /// seed semantics exactly: malformed messages are dropped, a sender's
  /// first message of the kind is the one that counts, other kinds do not
  /// consume the sender's slot.
  void build(const std::vector<net::AppMsg>& inbox, MsgKind kind) {
    size_ = 0;
    order_.clear();
    seen_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
    // Honest parties mostly send equal values, so a value equal to the one
    // the previous message landed on reuses that bucket without hashing.
    std::uint32_t last = kNoBucket;
    for (const auto& msg : inbox) {
      const auto kv = decode_kv_view(msg.body);
      if (!kv || kv->kind != kind || seen_.contains(msg.from)) continue;
      seen_.insert(msg.from);
      if (last == kNoBucket || !std::ranges::equal(buckets_[last].value, kv->value)) {
        last = find_or_insert(kv->value);
      }
      buckets_[last].senders.insert(msg.from);
    }
    order_.resize(size_);
    for (std::uint32_t i = 0; i < size_; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
      return std::lexicographical_compare(buckets_[a].value.begin(), buckets_[a].value.end(),
                                          buckets_[b].value.begin(), buckets_[b].value.end());
    });
  }

  /// Bucket indices in ascending lexicographic value order (the std::map
  /// iteration order of the seed implementation).
  [[nodiscard]] std::span<const std::uint32_t> ordered() const noexcept { return order_; }
  [[nodiscard]] const Bucket& bucket(std::uint32_t idx) const noexcept { return buckets_[idx]; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint32_t kNoBucket = UINT32_MAX;

  /// Open-addressed lookup by (digest, full bytes); claims a fresh bucket
  /// slot (reusing retired Bucket storage) on miss.
  [[nodiscard]] std::uint32_t find_or_insert(std::span<const std::uint8_t> value) {
    if (slots_.size() < 2 * (size_ + 1)) grow();
    const std::uint64_t digest = fnv1a64(value);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(digest) & mask;
    while (slots_[i] != 0) {
      Bucket& b = buckets_[slots_[i] - 1];
      if (b.digest == digest && b.value.size() == value.size() &&
          std::equal(value.begin(), value.end(), b.value.begin())) {
        return slots_[i] - 1;
      }
      i = (i + 1) & mask;
    }
    if (size_ == buckets_.size()) buckets_.emplace_back();
    Bucket& b = buckets_[size_];
    b.digest = digest;
    b.value.assign(value.begin(), value.end());
    b.senders.clear();
    slots_[i] = ++size_;
    return size_ - 1;
  }

  void grow() {
    std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    slots_.assign(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::uint32_t idx = 0; idx < size_; ++idx) {
      std::size_t i = static_cast<std::size_t>(buckets_[idx].digest) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = idx + 1;
    }
  }

  std::vector<Bucket> buckets_;     ///< live in [0, size_), retired beyond
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> slots_;  ///< open addressing; bucket idx + 1, 0 = empty
  std::vector<std::uint32_t> order_;
  core::PartySet seen_;
};

}  // namespace bsm::broadcast
