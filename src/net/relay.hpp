// Virtual-channel simulation between parties that share no physical channel
// — the paper's Lemmas 6, 8, and 10.
//
//  - UnauthMajority (Lemma 6): the sender hands the message to every party
//    on the opposite side; each honest one forwards it; the receiver accepts
//    a message once a strict majority (> k/2) of distinct forwarders vouch
//    for identical content. Sound while the relay side has an honest
//    majority; adds exactly 2 rounds (2 * Delta).
//  - AuthSigned (Lemma 8): the sender signs (src, dst, id, body); relays
//    forward; the receiver accepts the first copy with a valid signature.
//    Sound while at least one relay is honest.
//  - AuthTimed (Lemma 10): like AuthSigned, but the signed payload carries
//    the sending round tau and the receiver only accepts within 2 * Delta of
//    tau. If every relay is byzantine the message may be *omitted*, but a
//    late or replayed delivery is never accepted — this is the
//    "fully-connected network with omissions" used by Pi_bSM.
//
// The router is symmetric infrastructure: every honest process routes its
// physical inbox through `route`, which both performs its forwarding duties
// for others and surfaces the application-level messages addressed to it.
//
// Relay once: a sender hands one shared request payload to its k relays,
// and the forward frame [kRelayFwd][src][request after its tag] and the
// digest of the content src signed are pure functions of that payload and
// src. The first relay to handle the request stores both in the payload's
// RelayMemo (see net::Payload); the other k-1 send that same forward
// payload (one buffer, one digest) and check the signature against the
// stored digest. The checks that depend on the relay stay per relay: dst
// is not the relay itself and shares a channel with it, and every relay
// counts a bad request in its own rejected(). A request re-sent under
// another source id is handled from scratch and its memo is not stored.
// At the destination the majority vote compares each copy's body with the
// first copy of each content seen for its (src, id), usually the same
// buffer, and hashes bodies only once a second content shows up.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "common/types.hpp"
#include "net/process.hpp"

namespace bsm::net {

enum class RelayMode : std::uint8_t { Direct, UnauthMajority, AuthSigned, AuthTimed };

/// An application-level message after transport decoding. `body` is a view
/// into bytes that `keep` holds — normally the payload of the envelope the
/// message arrived in — so decoding and demultiplexing copy nothing, and
/// holding an AppMsg (across rounds, say) keeps its bytes alive.
struct AppMsg {
  AppMsg() = default;
  AppMsg(PartyId sender, std::span<const std::uint8_t> view, Payload owner) noexcept
      : from(sender), body(view), keep(std::move(owner)) {}
  /// A message that owns `bytes` outright (hand-built inboxes).
  AppMsg(PartyId sender, Bytes bytes) : from(sender), keep(std::move(bytes)) { body = keep.span(); }

  PartyId from = kNobody;
  std::span<const std::uint8_t> body;
  Payload keep;  ///< holds the bytes `body` points into
};

class RelayRouter {
 public:
  explicit RelayRouter(RelayMode mode) noexcept : mode_(mode) {}

  [[nodiscard]] RelayMode mode() const noexcept { return mode_; }

  /// Send `body` to `to`, directly if a channel exists, else via relays on
  /// the opposite side. Virtual sends take 2 rounds instead of 1.
  void send(Context& ctx, PartyId to, std::span<const std::uint8_t> body);

  /// Send `body` to every recipient in order. Byte- and id-identical to
  /// calling send() per recipient, but the direct-transport frame is
  /// encoded once for the whole broadcast and every direct recipient's
  /// envelope shares that one payload.
  void broadcast(Context& ctx, const std::vector<PartyId>& recipients,
                 std::span<const std::uint8_t> body);

  /// Decode a physical inbox: forward relay requests addressed to others,
  /// apply the acceptance rule for relayed messages addressed to us, and
  /// return all application messages delivered this round. Each message's
  /// body is a subspan of the envelope payload it arrived in.
  [[nodiscard]] std::vector<AppMsg> route(Context& ctx, Inbox inbox);

  /// Number of relayed messages this router refused (bad signature, stale
  /// timestamp, replay, sub-majority support). Exposed for tests/benches.
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  /// One voted content of a relayed (src, id): the first copy (a view
  /// sharing its envelope's payload), its body digest once some other
  /// content needed it, and its voters. Votes of one key form a list
  /// through `next`; retired votes go to a free list and keep their
  /// voter-set storage.
  struct Vote {
    AppMsg first;
    std::optional<std::uint64_t> digest;
    core::PartySet voters;
    std::uint32_t next = kNone;
  };
  /// The replay guard and vote accumulator of one relayed (src, id).
  struct Track {
    PartyId src = kNobody;
    std::uint64_t id = 0;
    bool accepted = false;
    std::uint32_t votes = kNone;  ///< head of the vote list while pending
  };
  static constexpr std::uint32_t kNone = UINT32_MAX;

  [[nodiscard]] static Bytes signed_content(PartyId src, PartyId dst, std::uint64_t id,
                                            Round tau, std::span<const std::uint8_t> body);

  /// The track of (src, id), made (pending, no votes) on first sight.
  [[nodiscard]] Track& track(PartyId src, std::uint64_t id);
  void grow_tracks();
  /// Count `voter` for `body` on a pending track; true once some content
  /// has a strict majority of the k relays, which is then moved to `out`.
  [[nodiscard]] bool vote(Track& t, PartyId voter, std::uint32_t k,
                          std::span<const std::uint8_t> body, const Payload& payload,
                          std::vector<AppMsg>& out);

  RelayMode mode_;
  std::uint64_t next_id_ = 0;
  // (src, id) tracks in one flat open-addressed table (TallyArena style:
  // slots hold track index + 1, 0 = empty). Probed once per forwarded copy
  // and never iterated, so table order cannot leak into behavior; tracks
  // are never removed, an accepted one is the replay guard.
  std::vector<Track> tracks_;
  std::vector<std::uint32_t> track_slots_;
  std::vector<Vote> votes_;
  std::uint32_t free_votes_ = kNone;
  std::uint64_t rejected_ = 0;
  // Common-neighbour lists are a pure function of (self, to, topology), so
  // each router memoizes them: the send loop walked every party with two
  // adjacency probes per candidate, per message. Ascending id order is
  // preserved exactly.
  std::vector<std::vector<PartyId>> relays_to_;  ///< indexed by destination
};

}  // namespace bsm::net
