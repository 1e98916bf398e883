#include "net/relay.hpp"

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
      if (auth && !ctx.pki().verify(src, signed_content(src, dst, id, tau, body), sig)) {
        ++rejected_;
        continue;
      }
      // The forwarded frame is the request frame with the tag swapped and
      // the source prepended (dst == the request's `to`, all other fields
      // verbatim) — patching the received bytes is byte-identical to the
      // re-encode it replaces.
      const auto req = env.payload.span();
      Bytes fwd;
      fwd.reserve(req.size() + 4);
      fwd.push_back(kRelayFwd);
      append_u32_le(fwd, src);
      fwd.insert(fwd.end(), req.begin() + 1, req.end());
      ctx.send(dst, std::move(fwd));
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
      if (accepted_.contains({src, id})) continue;  // replay / duplicate

      if (mode_ == RelayMode::UnauthMajority) {
        // Count distinct forwarders vouching for identical content. The
        // first copy of each distinct content is kept (a view sharing its
        // envelope's payload); a digest collision inside one (src, id)
        // bucket would merge votes, exactly as it (harmlessly, and
        // identically) did when the seed implementation keyed this map by
        // fnv1a64 too.
        auto& bucket = pending_[MajorityKey{src, id}];
        auto& [stored, voters] = bucket.by_digest[fnv1a64(body)];
        if (stored.from == kNobody) stored = AppMsg(src, body, env.payload);
        voters.insert(env.from);
        if (2 * voters.count() > k) {
          accepted_.insert({src, id});
          out.push_back(std::move(stored));
          pending_.erase(MajorityKey{src, id});
        }
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
      accepted_.insert({src, id});
      out.emplace_back(src, body, env.payload);
      continue;
    }

    ++rejected_;  // unknown frame tag
  }
  return out;
}

}  // namespace bsm::net
