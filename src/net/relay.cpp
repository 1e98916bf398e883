#include "net/relay.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/hash.hpp"

namespace bsm::net {

namespace {

// Transport frame tags.
constexpr std::uint8_t kDirect = 0;
constexpr std::uint8_t kRelayReq = 1;
constexpr std::uint8_t kRelayFwd = 2;

// Encoded sizes, so every frame is allocated once at its exact size:
// signature = signer, tag; relay request = tag, dst, id, tau, body length;
// signed content = "relay" (length + 5 chars), src, dst, id, tau, body length.
constexpr std::size_t kSignatureSize = 4 + 8;
constexpr std::size_t kRelayReqFixed = 1 + 4 + 8 + 4 + 4;
constexpr std::size_t kSignedContentFixed = 4 + 5 + 4 + 4 + 8 + 4 + 4;

/// [kDirect][u32 len][body]: never empty, so an empty Payload can mean
/// "not built yet".
[[nodiscard]] Payload direct_frame(std::span<const std::uint8_t> body) {
  Writer w;
  w.reserve(1 + 4 + body.size());
  w.u8(kDirect);
  w.bytes(body);
  return Payload(w.take());
}

}  // namespace

Bytes RelayRouter::signed_content(PartyId src, PartyId dst, std::uint64_t id, Round tau,
                                  std::span<const std::uint8_t> body) {
  Writer w;
  w.reserve(kSignedContentFixed + body.size());
  w.str("relay");
  w.u32(src);
  w.u32(dst);
  w.u64(id);
  w.u32(tau);
  w.bytes(body);
  return w.take();
}

void RelayRouter::send(Context& ctx, PartyId to, std::span<const std::uint8_t> body) {
  const Topology& topo = ctx.topology();
  if (to == ctx.self() || topo.connected(ctx.self(), to)) {
    ctx.send(to, direct_frame(body));
    return;
  }

  require(mode_ != RelayMode::Direct, "RelayRouter: no channel and relaying disabled");
  const std::uint64_t id = next_id_++;
  const Round tau = ctx.round();
  const bool auth = mode_ == RelayMode::AuthSigned || mode_ == RelayMode::AuthTimed;

  Writer w;
  w.reserve(kRelayReqFixed + body.size() + (auth ? kSignatureSize : 0));
  w.u8(kRelayReq);
  w.u32(to);
  w.u64(id);
  w.u32(tau);
  w.bytes(body);
  if (auth) ctx.signer().sign(signed_content(ctx.self(), to, id, tau, body)).encode(w);

  // Hand the message to every common neighbour (for our topologies: the
  // entire opposite side, as in the paper's Lemmas 6/8/10). The neighbour
  // list per destination is memoized — topology and self are fixed for the
  // router's lifetime — in the same ascending order the scan produced.
  // The public API tolerated arbitrary destinations (the seed scan found
  // no common neighbour for an out-of-range id, because connected() is
  // bounds-checked) — keep that a true no-op and never size the memo
  // beyond the topology.
  if (to >= topo.n()) return;
  if (relays_to_.size() <= to) relays_to_.resize(topo.n());
  std::vector<PartyId>& relays = relays_to_[to];
  if (relays.empty()) {
    for (PartyId relay = 0; relay < topo.n(); ++relay) {
      if (topo.connected(ctx.self(), relay) && topo.connected(relay, to)) {
        relays.push_back(relay);
      }
    }
  }
  const Payload frame(w.take());  // one buffer shared by every relay's copy
  for (PartyId relay : relays) ctx.send(relay, frame);
}

void RelayRouter::broadcast(Context& ctx, const std::vector<PartyId>& recipients,
                            std::span<const std::uint8_t> body) {
  const Topology& topo = ctx.topology();
  const PartyId self = ctx.self();
  Payload direct;
  for (PartyId to : recipients) {
    if (to == self || topo.connected(self, to)) {
      if (direct.empty()) direct = direct_frame(body);
      ctx.send(to, direct);
    } else {
      send(ctx, to, body);  // relay path: per-destination frame (unique id)
    }
  }
}

std::vector<AppMsg> RelayRouter::route(Context& ctx, Inbox inbox) {
  std::vector<AppMsg> out;
  out.reserve(inbox.size());
  const Topology& topo = ctx.topology();
  const std::uint32_t k = topo.k();
  const PartyId self = ctx.self();

  for (const Envelope& env : inbox) {
    Reader r(env.payload.span());
    const std::uint8_t tag = r.u8();

    if (tag == kDirect) {
      const auto body = r.bytes_view();
      if (!r.done()) {
        ++rejected_;
        continue;
      }
      out.emplace_back(env.from, body, env.payload);
      continue;
    }

    if (tag == kRelayReq) {
      const PartyId dst = r.u32();
      const std::uint64_t id = r.u64();
      const Round tau = r.u32();
      const auto body = r.bytes_view();
      const PartyId src = env.from;  // channels are authenticated
      crypto::Signature sig;
      const bool auth = mode_ == RelayMode::AuthSigned || mode_ == RelayMode::AuthTimed;
      if (auth) sig = crypto::Signature::decode(r);
      if (!r.done() || dst == self || dst >= topo.n() || !topo.connected(self, dst)) {
        ++rejected_;
        continue;
      }
      // The k relays of one request receive one shared payload: the first
      // to get here leaves the forward frame and the signed-content digest
      // in the payload's memo, the others reuse them. A request re-sent
      // under another source id (a replay) gets its own, unstored memo.
      auto& slot = env.payload.memo();
      if (!slot) {
        slot = std::make_unique<RelayMemo>();
        slot->src = src;
      }
      RelayMemo fresh;
      RelayMemo& memo = slot->src == src ? *slot : fresh;
      if (auth) {
        if (!memo.signed_digest) {
          memo.signed_digest = fnv1a64(signed_content(src, dst, id, tau, body));
        }
        if (!ctx.pki().verify_digest(src, *memo.signed_digest, sig)) {
          ++rejected_;
          continue;
        }
      }
      if (memo.forward.empty()) {
        // The request frame with the tag swapped and the source prepended
        // (dst == the request's `to`, all other fields verbatim): patching
        // the received bytes is byte-identical to a re-encode.
        const auto req = env.payload.span();
        Bytes fwd;
        fwd.reserve(req.size() + 4);
        fwd.push_back(kRelayFwd);
        append_u32_le(fwd, src);
        fwd.insert(fwd.end(), req.begin() + 1, req.end());
        memo.forward = Payload(std::move(fwd));
      }
      ctx.send(dst, memo.forward);
      continue;
    }

    if (tag == kRelayFwd) {
      const PartyId src = r.u32();
      const PartyId dst = r.u32();
      const std::uint64_t id = r.u64();
      const Round tau = r.u32();
      const auto body = r.bytes_view();
      crypto::Signature sig;
      const bool auth = mode_ == RelayMode::AuthSigned || mode_ == RelayMode::AuthTimed;
      if (auth) sig = crypto::Signature::decode(r);
      if (!r.done() || dst != self || src >= topo.n()) {
        ++rejected_;
        continue;
      }
      Track& t = track(src, id);
      if (t.accepted) continue;  // replay / duplicate

      if (mode_ == RelayMode::UnauthMajority) {
        // Count distinct forwarders vouching for identical content.
        if (vote(t, env.from, k, body, env.payload, out)) t.accepted = true;
        continue;
      }

      if (!ctx.pki().verify(src, signed_content(src, dst, id, tau, body), sig)) {
        ++rejected_;
        continue;
      }
      if (mode_ == RelayMode::AuthTimed && ctx.round() > tau + 2) {
        ++rejected_;  // stale: outside the 2 * Delta window (Lemma 10)
        continue;
      }
      t.accepted = true;
      out.emplace_back(src, body, env.payload);
      continue;
    }

    ++rejected_;  // unknown frame tag
  }
  return out;
}

bool RelayRouter::vote(Track& t, PartyId voter, std::uint32_t k,
                       std::span<const std::uint8_t> body, const Payload& payload,
                       std::vector<AppMsg>& out) {
  // Votes are keyed by content digest: a collision merges two contents
  // (harmless, and part of the pinned transcripts). The k forwards of one
  // request share one payload, so the usual match is a stored first copy at
  // the same address, and a (src, id) that only ever sees one content is
  // never hashed. A second content hashes itself and, once, each stored one.
  const auto same = [&](const Vote& v) {
    return v.first.body.size() == body.size() &&
           (v.first.body.data() == body.data() || std::ranges::equal(v.first.body, body));
  };
  std::uint32_t at = t.votes;
  while (at != kNone && !same(votes_[at])) at = votes_[at].next;
  if (at == kNone) {
    std::optional<std::uint64_t> digest;
    if (t.votes != kNone) {
      digest = fnv1a64(body);
      for (at = t.votes; at != kNone; at = votes_[at].next) {
        Vote& v = votes_[at];
        if (!v.digest) v.digest = fnv1a64(v.first.body);
        if (v.digest == digest) break;
      }
    }
    if (at == kNone) {
      if (free_votes_ != kNone) {
        at = free_votes_;
        free_votes_ = votes_[at].next;
      } else {
        at = static_cast<std::uint32_t>(votes_.size());
        votes_.emplace_back();
      }
      Vote& v = votes_[at];
      v.first = AppMsg(t.src, body, payload);
      v.digest = digest;
      v.voters.clear();
      v.next = t.votes;
      t.votes = at;
    }
  }
  Vote& winner = votes_[at];
  winner.voters.insert(voter);
  if (2 * winner.voters.count() <= k) return false;
  out.push_back(std::move(winner.first));
  // Retire the track's votes (releasing the payloads they hold).
  std::uint32_t last = t.votes;
  for (std::uint32_t v = t.votes; v != kNone; v = votes_[v].next) {
    votes_[v].first = AppMsg();
    last = v;
  }
  votes_[last].next = free_votes_;
  free_votes_ = t.votes;
  t.votes = kNone;
  return true;
}

namespace {

[[nodiscard]] std::size_t track_home(PartyId src, std::uint64_t id, std::size_t capacity) {
  return static_cast<std::size_t>(hash_combine(src, id)) & (capacity - 1);
}

}  // namespace

RelayRouter::Track& RelayRouter::track(PartyId src, std::uint64_t id) {
  if (track_slots_.size() < 2 * (tracks_.size() + 1)) grow_tracks();
  const std::size_t mask = track_slots_.size() - 1;
  std::size_t i = track_home(src, id, track_slots_.size());
  for (; track_slots_[i] != 0; i = (i + 1) & mask) {
    Track& t = tracks_[track_slots_[i] - 1];
    if (t.src == src && t.id == id) return t;
  }
  tracks_.push_back(Track{src, id});
  track_slots_[i] = static_cast<std::uint32_t>(tracks_.size());
  return tracks_.back();
}

void RelayRouter::grow_tracks() {
  const std::size_t cap = track_slots_.empty() ? 16 : track_slots_.size() * 2;
  track_slots_.assign(cap, 0);
  for (std::uint32_t idx = 0; idx < tracks_.size(); ++idx) {
    std::size_t i = track_home(tracks_[idx].src, tracks_[idx].id, cap);
    while (track_slots_[i] != 0) i = (i + 1) & (cap - 1);
    track_slots_[i] = idx + 1;
  }
}

}  // namespace bsm::net
