// The process model: every party (honest or byzantine) is a `Process`
// driven once per synchronous round by the engine.
//
// Semantics: a message sent during round r is delivered at the beginning of
// round r+1 (one round == the paper's known delay bound Delta). The inbox a
// process sees at round r therefore contains exactly the messages addressed
// to it that were sent in round r-1, ordered by sender id (determinism).
//
// `Context` is abstract so that adversary strategies can interpose shims
// (message filtering, dual-world simulation) around honest process code —
// exactly the "byzantine party internally simulates honest instances"
// device used by the paper's impossibility proofs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "crypto/pki.hpp"
#include "net/topology.hpp"

namespace bsm::net {

class RelayRouter;
struct RelayMemo;

/// An immutable, shared message payload: the bytes and their fnv1a64
/// digest, computed once when the payload is made. Copies share one buffer
/// (a reference-count bump), so a broadcast queues n references to the
/// same bytes instead of n heap copies, and a process that keeps a message
/// past its round keeps it alive by keeping a copy. A default-constructed
/// payload is empty and allocates nothing.
///
/// Bytes and digest never change. Beside them the shared record holds one
/// pointer to a `RelayMemo`, which only `RelayRouter` reads or writes: the
/// first relay of a relay request stores there the forward frame it built
/// (and, in the authenticated modes, the signed-content digest it checked)
/// so the other relays of the same request reuse both. The memo is a pure
/// function of the bytes and the source id it names, so it never changes
/// what any party sends. It is per-run state: a payload belongs to one run,
/// and one run steps its parties on one thread. Only request frames carry
/// a memo and it points at a forward frame, which carries none, so memos
/// never form a reference cycle.
class Payload {
 public:
  Payload() = default;
  /// Take ownership of `bytes` (an lvalue argument is copied once, here).
  /// Implicit, so `ctx.send(to, bytes)` reads as before; hot paths that
  /// send one buffer to many build the Payload once instead.
  Payload(Bytes bytes);

  [[nodiscard]] const Bytes& bytes() const noexcept { return rep_ ? rep_->bytes : kEmpty; }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept { return bytes(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return bytes().data(); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes().size(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// fnv1a64 of the bytes (of the empty buffer for an empty payload).
  [[nodiscard]] std::uint64_t digest() const noexcept { return rep_ ? rep_->digest : kEmptyDigest; }

 private:
  friend class RelayRouter;

  struct Rep {
    std::uint64_t digest;  ///< first: shares a cache line with the size the fold reads
    Bytes bytes;
    mutable std::unique_ptr<RelayMemo> memo;  ///< RelayRouter's; see the class comment
  };
  static inline const Bytes kEmpty{};
  static constexpr std::uint64_t kEmptyDigest = 0xcbf29ce484222325ULL;  ///< fnv1a64({})

  /// The relay memo slot of a non-empty payload.
  [[nodiscard]] std::unique_ptr<RelayMemo>& memo() const noexcept { return rep_->memo; }

  std::shared_ptr<const Rep> rep_;
};

/// What the relays of one relay request share (see Payload): the forward
/// frame for `src`, and the digest of the content `src` had to sign, once
/// some relay in an authenticated mode computed it.
struct RelayMemo {
  PartyId src = kNobody;
  Payload forward;
  std::optional<std::uint64_t> signed_digest;
};

/// A physical message in flight or delivered. Copying one is cheap: the
/// payload is shared, never duplicated.
struct Envelope {
  PartyId from = kNobody;
  PartyId to = kNobody;
  Round sent_round = 0;
  Payload payload;
};

/// The messages delivered to one party this round: a contiguous slice of
/// the engine's per-round mailbox arena, ordered by sender id (and by send
/// order within one sender). A `std::vector<Envelope>` converts implicitly,
/// so shims that rewrite inboxes can still hand their own buffers down.
using Inbox = std::span<const Envelope>;

/// Per-round services the engine (or an adversarial shim) offers a process.
class Context {
 public:
  virtual ~Context() = default;

  /// Queue `payload` for delivery to `to` next round. Sends to parties the
  /// sender shares no channel with are dropped (self-sends are allowed and
  /// loop back next round — protocols routinely "send to all incl. self").
  /// The envelope shares `payload`'s buffer: to broadcast, make the
  /// Payload once and pass it to every send.
  virtual void send(PartyId to, const Payload& payload) = 0;

  [[nodiscard]] virtual Round round() const = 0;
  [[nodiscard]] virtual PartyId self() const = 0;
  [[nodiscard]] virtual const Topology& topology() const = 0;
  /// Signing capability for this party's own identity only.
  [[nodiscard]] virtual const crypto::Signer& signer() const = 0;
  [[nodiscard]] virtual const crypto::Pki& pki() const = 0;
};

/// A party's code. Honest protocol implementations and byzantine strategies
/// share this interface; the engine merely tracks which ids are corrupt.
class Process {
 public:
  virtual ~Process() = default;

  /// Called once per round, in increasing round order, starting at round 0
  /// (whose inbox is always empty).
  virtual void on_round(Context& ctx, Inbox inbox) = 0;
};

}  // namespace bsm::net
