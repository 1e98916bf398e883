// Deterministic lock-step synchronous network engine.
//
// One engine round models the paper's delay bound Delta: every message sent
// in round r is delivered at round r+1. The engine also implements the
// corruption model: parties can be marked byzantine from the start or have
// a corruption scheduled mid-run (the adaptive adversary), at which point
// the adversarial strategy process replaces the honest one.
//
// Delivery is batched: each round's messages live in one contiguous arena
// (the Mailbox), grouped by recipient and ordered by sender, and every
// process receives its inbox as a zero-copy slice of that arena. Payloads
// are shared, never copied: a send queues a reference to the sender's
// buffer, and the envelope carries it through to delivery.
//
// For the impossibility experiments the engine records, per party, a hash
// of everything the party has received — two runs are indistinguishable to
// party P exactly when P's view hashes agree round for round.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "crypto/pki.hpp"
#include "net/delivery.hpp"
#include "net/process.hpp"
#include "net/topology.hpp"

namespace bsm::net {

/// How TrafficStats stores its per-channel (n x n) matrices. Aggregate and
/// per-round counters are O(rounds) either way.
///
///  - Dense:  flattened n x n Counter vectors, O(1) lookup, O(n^2) memory.
///    The historical default — byte-identical stats at paper scale.
///  - Sparse: an open-addressed hash map keyed by from * n + to, sized by
///    the number of *active* channels. The big-n mode: an engine over 10^5+
///    parties whose traffic touches a sparse channel subset keeps stats in
///    O(active) instead of the O(n^2) that is the first thing to fall over
///    at that scale. Same counters for every channel that saw traffic;
///    channels that never did read as zero in both modes.
enum class StatsMode : std::uint8_t { Dense, Sparse };

/// Traffic statistics for benchmark harnesses and sweep reports: aggregate
/// totals plus per-round and per-channel (sender, recipient) breakdowns.
/// Counters record *sent* traffic, keyed by the round the send happened in.
///
/// Two properties are load-bearing for the layers above:
///  - Exact decomposition: the per-round counters and the per-channel
///    matrix each sum to the aggregate totals, message for message and
///    byte for byte (asserted by tests/sweep_test.cpp) — so a harness may
///    aggregate whichever axis it likes without double counting.
///  - Determinism: counting happens at the send call inside the lock-step
///    round, so two runs of the same (config, seeds, adversary plan) yield
///    identical TrafficStats (operator== is byte-exact). The bench harness
///    folds these counters into its repeat-determinism digest, and the
///    sweep layer's parallel ≡ serial guarantee includes them.
struct TrafficStats {
  struct Counter {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;

    bool operator==(const Counter&) const = default;
  };

  /// Open-addressed per-channel counter map for StatsMode::Sparse: keys are
  /// from * n + to, linear probing, power-of-two capacity, grown at 70%
  /// load. Deterministic for the engine's use (same run -> same insertion
  /// order), but equality is content-based so layouts never matter.
  class SparseChannels {
   public:
    /// Counter for `key`, inserted zeroed if absent.
    [[nodiscard]] Counter& upsert(std::uint64_t key);
    /// Counter for `key`, or nullptr when the channel never saw traffic.
    [[nodiscard]] const Counter* find(std::uint64_t key) const noexcept;

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    /// Heap bytes held by the table (memory-shape guards read this).
    [[nodiscard]] std::size_t bytes_resident() const noexcept {
      return slots_.capacity() * sizeof(Slot);
    }

    /// Visit every active (key, counter) pair, slot order (unspecified).
    template <typename F>
    void for_each(F&& f) const {
      for (const Slot& s : slots_) {
        if (s.key != kEmpty) f(s.key, s.counter);
      }
    }

    /// Same active channels with the same counters, layout-agnostic.
    [[nodiscard]] bool operator==(const SparseChannels& o) const noexcept;

   private:
    struct Slot {
      std::uint64_t key = kEmpty;
      Counter counter;
    };
    static constexpr std::uint64_t kEmpty = UINT64_MAX;

    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  StatsMode mode = StatsMode::Dense;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<Counter> per_round;    ///< indexed by sending round
  std::vector<Counter> per_channel;  ///< Dense: flattened n x n matrix, from * n + to
  SparseChannels sparse_channels;    ///< Sparse: same counters, keyed by from * n + to
  std::uint32_t n = 0;               ///< parties (per_channel row width)

  /// Delivered-side counters, keyed by the round the envelope actually
  /// reached its recipient — which differs from the send round + 1 exactly
  /// when a DeliveryPolicy delays messages. Under the synchronous schedule
  /// delivered_round(r + 1) == round(r) message for message; under any
  /// schedule delivered + dropped + (still-carried + last round's sends)
  /// == sent (asserted by tests/delivery_test.cpp).
  std::uint64_t delivered_messages = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t dropped_messages = 0;  ///< policy Drop verdicts
  std::uint64_t dropped_bytes = 0;
  std::vector<Counter> delivered_per_round;    ///< indexed by delivery round
  std::vector<Counter> delivered_per_channel;  ///< Dense: flattened n x n, from * n + to
  SparseChannels sparse_delivered;             ///< Sparse delivered-side counters

  void note_send(PartyId from, PartyId to, Round round, std::size_t payload_bytes);
  void note_delivery(PartyId from, PartyId to, Round round, std::size_t payload_bytes);
  void note_drop(PartyId from, PartyId to, std::size_t payload_bytes);

  /// Sent-traffic counter for the directed channel from -> to. In Sparse
  /// mode a channel that never saw traffic reads as the zero counter.
  [[nodiscard]] const Counter& channel(PartyId from, PartyId to) const;
  /// Sent-traffic counter for `round` (zero counter past the last send).
  [[nodiscard]] Counter round(Round r) const;
  /// Delivered-traffic counter for the directed channel from -> to.
  [[nodiscard]] const Counter& delivered_channel(PartyId from, PartyId to) const;
  /// Delivered-traffic counter for `round` (zero past the last delivery).
  [[nodiscard]] Counter delivered_round(Round r) const;

  /// Heap bytes held by the per-channel structures (both sides, either
  /// mode) — what the big-n memory-shape guard bounds.
  [[nodiscard]] std::size_t channel_bytes_resident() const noexcept {
    return per_channel.capacity() * sizeof(Counter) +
           delivered_per_channel.capacity() * sizeof(Counter) +
           sparse_channels.bytes_resident() + sparse_delivered.bytes_resident();
  }

  bool operator==(const TrafficStats&) const = default;
};

/// One round's deliveries as a single flat arena: envelopes grouped by
/// recipient, ordered by sender id within each group (ties keep send
/// order). Buffers are recycled round over round — steady state makes no
/// envelope allocations, and payloads are shared references, never copied.
///
/// The (sender id, send order) delivery order is THE determinism contract
/// of the engine: it fixes each party's inbox byte-for-byte given the
/// round's sends, which makes per-party view hashes reproducible across
/// runs and thread schedules. Protocol code may rely on it; nothing may
/// weaken it without breaking the impossibility experiments (view-hash
/// indistinguishability) and the sweep/bench determinism checks.
class Mailbox {
 public:
  /// Take ownership of last round's sends and index them by recipient.
  /// `sends` is left empty (its buffer is reclaimed via `recycle`).
  void assemble(std::vector<Envelope>&& sends, std::size_t n);

  /// The slice of the arena addressed to `id`. Valid until the next
  /// assemble().
  [[nodiscard]] Inbox inbox(PartyId id) const {
    return Inbox(arena_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]);
  }

  [[nodiscard]] std::size_t total() const noexcept { return arena_.size(); }

  /// Surrender the arena buffer for reuse as next round's send buffer.
  [[nodiscard]] std::vector<Envelope> recycle();

 private:
  std::vector<Envelope> arena_;
  std::vector<std::size_t> offsets_;  ///< n + 1 arena offsets, one per recipient
  std::vector<Envelope> scatter_;     ///< counting-sort target, recycled round over round
  std::vector<std::size_t> cursor_;   ///< per-recipient scatter cursors
};

class Engine {
 public:
  /// `stats_mode` picks the per-channel stats representation (see StatsMode);
  /// Dense preserves every historical transcript byte for byte.
  Engine(Topology topo, std::uint64_t pki_seed, StatsMode stats_mode = StatsMode::Dense);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const crypto::Pki& pki() const noexcept { return pki_; }

  /// Install the code a party runs from round 0.
  void set_process(PartyId id, std::unique_ptr<Process> process);

  /// Mark `id` byzantine from the start; its process is the adversary's.
  void set_corrupt(PartyId id, std::unique_ptr<Process> strategy);

  /// Adaptive corruption: at the start of `when`, `id` becomes byzantine
  /// and `strategy` takes over (the honest process is discarded).
  void schedule_corruption(PartyId id, Round when, std::unique_ptr<Process> strategy);

  /// Run rounds [current, current + rounds). Ignores DeliveryPolicy
  /// stall verdicts (every iteration is a protocol round) — drive
  /// stall-capable policies through run_guarded() instead.
  void run(Round rounds);

  /// What a guarded run did (see run_guarded).
  struct RunProgress {
    Round protocol_rounds = 0;  ///< protocol rounds completed this call
    Round engine_rounds = 0;    ///< engine ticks consumed (>= protocol_rounds)
    bool limit_hit = false;     ///< stopped by the engine-round cap instead
  };

  /// The partial-synchrony driver: complete `rounds` protocol rounds,
  /// consulting the delivery policy's stall_round() before each — a
  /// stalled tick advances only the engine-round clock (nothing delivers,
  /// nobody steps, current_round() is frozen) — and hard-stop once the
  /// cumulative engine-round clock reaches `max_engine_rounds` (0 = no
  /// cap; with no cap an ever-stalling policy never returns). With no
  /// policy, or one that never stalls, this is run(rounds) plus the cap.
  RunProgress run_guarded(Round rounds, Round max_engine_rounds);

  [[nodiscard]] Round current_round() const noexcept { return round_; }

  /// Engine ticks consumed so far: protocol rounds plus stalled rounds.
  /// Tracks current_round() exactly until the first stall.
  [[nodiscard]] Round engine_rounds() const noexcept { return engine_round_; }
  [[nodiscard]] bool is_corrupt(PartyId id) const;
  [[nodiscard]] std::vector<bool> corrupt_mask() const;

  /// The installed process (for reading protocol outputs after a run).
  [[nodiscard]] Process& process(PartyId id);
  [[nodiscard]] const Process& process(PartyId id) const;

  template <typename T>
  [[nodiscard]] T& process_as(PartyId id) {
    return dynamic_cast<T&>(process(id));
  }

  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }

  /// Digest of everything `id` has received so far (its "view"). Runs with
  /// equal view hashes are indistinguishable to that party. Reproducible
  /// bit-for-bit across runs and thread counts (a consequence of the
  /// Mailbox delivery order) — the Lemma 13 experiment compares attack
  /// views against crash-baseline views with ==, and the bench harness
  /// folds view hashes into its repeat-determinism digests.
  [[nodiscard]] std::uint64_t view_hash(PartyId id) const;

  /// Wiretap for tests and tooling: called once per *delivered* envelope
  /// (at the start of the round it arrives in). Observation only — the
  /// observer cannot alter traffic.
  using Observer = std::function<void(const Envelope&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Install a delivery schedule (see net/delivery.hpp). nullptr (the
  /// default) keeps the historical synchronous fast path — sends move
  /// straight into the mailbox, byte-identical to every pre-policy
  /// transcript. Install before the first run(); swapping mid-run with
  /// messages still carried is a caller bug.
  void set_delivery_policy(std::unique_ptr<DeliveryPolicy> policy);
  [[nodiscard]] const DeliveryPolicy* delivery_policy() const noexcept { return policy_.get(); }

  /// Envelopes a policy delayed past the current round and that are still
  /// waiting to deliver (0 on the synchronous path).
  [[nodiscard]] std::size_t pending_carried() const noexcept { return carried_.size(); }

 private:
  struct Slot {
    std::unique_ptr<Process> process;
    bool corrupt = false;
    std::uint64_t view = 0x9e3779b97f4a7c15ULL;
  };

  struct PendingCorruption {
    Round when = 0;
    std::unique_ptr<Process> strategy;
  };

  /// One policy-delayed envelope waiting for its delivery round.
  struct Carried {
    Envelope env;
    Round due = 0;
    std::uint32_t rank = 0;
  };

  void deliver_and_step();
  void assemble_with_policy();

  Topology topo_;
  crypto::Pki pki_;
  std::vector<Slot> slots_;
  std::map<PartyId, PendingCorruption> pending_corruptions_;
  std::vector<Envelope> in_flight_;
  std::vector<Envelope> scratch_;  ///< recycled send buffer
  Mailbox mailbox_;
  Round round_ = 0;         ///< protocol rounds completed
  Round engine_round_ = 0;  ///< engine ticks, stalled rounds included
  TrafficStats stats_;
  Observer observer_;
  std::unique_ptr<DeliveryPolicy> policy_;  ///< nullptr = synchronous fast path
  std::vector<Carried> carried_;            ///< policy-delayed envelope arena
  std::vector<Carried> deliver_scratch_;    ///< per-round merge buffer, recycled
};

}  // namespace bsm::net
