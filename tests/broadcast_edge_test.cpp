// Edge cases of the broadcast stack: byzantine kings, forged Dolev-Strong
// chains, non-participant injection, hub plumbing, and degenerate
// parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "broadcast/bb_via_ba.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/instance.hpp"
#include "broadcast/omission_ba.hpp"
#include "broadcast/phase_king.hpp"
#include "broadcast/quorums.hpp"
#include "broadcast/wire.hpp"
#include "common/codec.hpp"
#include "common/party_set.hpp"
#include "common/rng.hpp"
#include "net/engine.hpp"

namespace bsm::broadcast {
namespace {

class Host final : public net::Process {
 public:
  Host(net::RelayMode relay, std::uint32_t stride, std::vector<PartyId> parts,
       std::unique_ptr<Instance> inst)
      : hub_(relay, stride) {
    hub_.add_instance(0, 0, std::move(parts), std::move(inst));
  }
  void on_round(net::Context& ctx, net::Inbox inbox) override {
    hub_.ingest(ctx, inbox);
    hub_.step_due(ctx);
  }
  [[nodiscard]] const Instance& instance() const { return hub_.instance(0); }

 private:
  InstanceHub hub_;
};

[[nodiscard]] Bytes val(std::uint8_t x) { return Bytes{x}; }

TEST(PhaseKingEdge, SilentByzantineKingsDoNotBlockAgreement) {
  // k = 4, t = 1: the phase-1 king (party 0) is silent-byzantine; phase 2's
  // king is honest and agreement must still conclude on schedule.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<PhaseKingBA>(
                                                      val(id % 2 ? 1 : 2), q)));
  }
  engine.set_corrupt(0, std::make_unique<adversary::Silent>());
  engine.run(3 * 2 + 2);
  std::set<Bytes> outputs;
  for (PartyId id : {1U, 2U, 3U}) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    outputs.insert(*inst.output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

TEST(PhaseKingEdge, EquivocatingKingCannotSplitStrongParties) {
  // All honest parties share the input: persistence makes them strong in
  // every phase, so even a split-brain king is ignored.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<PhaseKingBA>(val(9), q)));
  }
  engine.set_corrupt(
      0, std::make_unique<adversary::SplitBrain>(
             std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                    std::make_unique<PhaseKingBA>(val(1), q)),
             std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                    std::make_unique<PhaseKingBA>(val(2), q)),
             [](PartyId p) { return p < 2 ? 0 : 1; }));
  engine.run(3 * 2 + 2);
  for (PartyId id : {1U, 2U, 3U}) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    EXPECT_EQ(*inst.output(), val(9)) << "validity must survive the byzantine king";
  }
}

TEST(PhaseKingEdge, EmptyAndLargeValuesAreFirstClass) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  const Bytes big(300, 0xAB);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<PhaseKingBA>(
                                                      id == 0 ? Bytes{} : big, q)));
  }
  engine.run(3 * 2 + 2);
  std::set<Bytes> outputs;
  for (PartyId id : parts) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    outputs.insert(*inst.output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

/// Injects a hand-crafted Dolev-Strong chain frame with a bogus signature.
class ChainForger final : public net::Process {
 public:
  void on_round(net::Context& ctx, net::Inbox) override {
    if (ctx.round() != 1) return;  // arrive at step >= 1 with 1 "signature"
    Writer chain;
    chain.u8(6);  // MsgKind::Chain
    chain.bytes(Bytes{66});
    chain.u32(1);
    chain.u32(0);                               // claimed signer: the sender
    crypto::Signature{0, 0xDEAD}.encode(chain);  // forged tag
    Writer frame;
    frame.u32(0);  // channel
    frame.bytes(chain.data());
    Writer direct;
    direct.u8(0);  // relay Direct tag
    direct.bytes(frame.data());
    for (PartyId p = 0; p < ctx.topology().n(); ++p) {
      if (p != ctx.self()) ctx.send(p, direct.data());
    }
  }
};

TEST(DolevStrongEdge, ForgedChainsAreRejected) {
  // Honest sender broadcasts 9; byzantine party 3 injects a forged chain
  // claiming the sender signed 66. Unforgeability keeps everyone on 9.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<DolevStrong>(
                                                      0, 1, id == 0 ? val(9) : Bytes{})));
  }
  engine.set_corrupt(3, std::make_unique<ChainForger>());
  engine.run(4);
  for (PartyId id : {1U, 2U}) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    ASSERT_TRUE(inst.output().has_value());
    EXPECT_EQ(*inst.output(), val(9));
  }
}

/// A context for stepping one instance outside the engine: the real
/// topology and PKI, one fixed party and round, sends recorded.
class RecordingContext final : public net::Context {
 public:
  RecordingContext(const net::Topology& topo, const crypto::Pki& pki, PartyId self, Round round)
      : topo_(&topo), pki_(&pki), signer_(pki.signer_for(self)), self_(self), round_(round) {}

  void send(PartyId to, const net::Payload& payload) override {
    sent.push_back({self_, to, round_, payload});
  }
  [[nodiscard]] Round round() const override { return round_; }
  [[nodiscard]] PartyId self() const override { return self_; }
  [[nodiscard]] const net::Topology& topology() const override { return *topo_; }
  [[nodiscard]] const crypto::Signer& signer() const override { return signer_; }
  [[nodiscard]] const crypto::Pki& pki() const override { return *pki_; }

  std::vector<net::Envelope> sent;

 private:
  const net::Topology* topo_;
  const crypto::Pki* pki_;
  crypto::Signer signer_;
  PartyId self_;
  Round round_;
};

TEST(DolevStrongEdge, MutatedChainFramesExtractAndRelayNothing) {
  // Real chain frames from a k = 3 fully-connected Dolev-Strong run
  // (sender 0, t = 2, all six parties), each mutated by a seeded battery:
  // truncation at every length, the value-length and signer-count fields
  // inflated (+1, 4096, 4097, 0xFFFFFFFF), and 64 random 1-3-bit flips.
  // Each mutant goes alone through a real DolevStrong step at a party the
  // pristine chain would convince. Invariant: nothing throws, and a mutant
  // that differs from its frame (so is malformed or forged) extracts no
  // value and relays nothing. Failures name (frame, mutant).
  const net::Topology topo(net::TopologyKind::FullyConnected, 3);
  const std::uint32_t t = 2;
  std::vector<PartyId> parts{0, 1, 2, 3, 4, 5};
  core::PartySet mask(6);
  for (PartyId p : parts) mask.insert(p);
  net::Engine engine(topo, 1);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<DolevStrong>(
                                                      0, t, id == 0 ? val(9) : Bytes{})));
  }
  std::vector<Bytes> chains;  // distinct chain bodies, in delivery order
  engine.set_observer([&](const net::Envelope& env) {
    Reader direct(env.payload.span());
    (void)direct.u8();
    Reader frame(direct.bytes_view());
    (void)frame.u32();  // channel 0
    const auto inner = frame.bytes_view();
    Bytes chain(inner.begin(), inner.end());
    if (std::find(chains.begin(), chains.end(), chain) == chains.end()) chains.push_back(chain);
  });
  engine.run(t + 2);
  engine.set_observer(nullptr);
  ASSERT_EQ(chains.size(), 6U) << "the sender's chain and five countersigned ones";

  Rng rng(0xd5);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const Bytes& pristine = chains[c];
    Reader r(pristine);
    (void)r.u8();
    const auto value = r.bytes_view();
    const std::uint32_t signers = r.u32();
    std::set<PartyId> signed_by;
    for (std::uint32_t i = 0; i < signers; ++i) {
      signed_by.insert(r.u32());
      (void)crypto::Signature::decode(r);
    }
    ASSERT_TRUE(r.done());
    PartyId self = 0;
    while (signed_by.contains(self)) ++self;  // a party the chain would convince
    const std::size_t count_at = 1 + 4 + value.size();

    std::vector<Bytes> battery;
    for (std::size_t len = 0; len < pristine.size(); ++len) {
      battery.emplace_back(pristine.begin(), pristine.begin() + static_cast<std::ptrdiff_t>(len));
    }
    for (const std::size_t at : {std::size_t{1}, count_at}) {
      const std::uint32_t real = Reader(std::span(pristine).subspan(at)).u32();
      for (const std::uint32_t len : {real + 1, 4096U, 4097U, 0xFFFFFFFFU}) {
        Bytes bad = pristine;
        store_u32_le(bad, at, len);
        battery.push_back(std::move(bad));
      }
    }
    for (int i = 0; i < 64; ++i) {
      Bytes bad = pristine;
      const std::uint64_t flips = 1 + rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f) bad[rng.below(bad.size())] ^= 1U << rng.below(8);
      battery.push_back(std::move(bad));
    }

    // The pristine frame first, as the control.
    battery.insert(battery.begin(), pristine);
    for (std::size_t b = 0; b < battery.size(); ++b) {
      const std::string where = ::testing::PrintToString(std::pair(c, b));
      InstanceHub hub(net::RelayMode::Direct, 1);
      RecordingContext ctx(topo, engine.pki(), self, signers);
      InstanceIo io(hub, ctx, 0, parts, mask);
      DolevStrong ds(0, t, Bytes{});
      const std::vector<net::AppMsg> inbox{net::AppMsg(0, battery[b])};
      ASSERT_NO_THROW(ds.step(io, signers, inbox)) << where;
      const bool relayed = !ctx.sent.empty();
      if (!ds.done()) ASSERT_NO_THROW(ds.step(io, ds.duration(), {})) << where;
      ASSERT_TRUE(ds.done()) << where;
      if (battery[b] == pristine) {
        EXPECT_EQ(ds.output(), std::optional<Bytes>(Bytes(value.begin(), value.end()))) << where;
        EXPECT_EQ(relayed, signers <= t) << where;
      } else {
        EXPECT_FALSE(ds.output().has_value()) << where;
        EXPECT_FALSE(relayed) << where;
      }
    }
  }
}

TEST(DolevStrongEdge, ZeroResilienceStillBroadcasts) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 1), 1);
  std::vector<PartyId> parts{0, 1};
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<DolevStrong>(
                                                      0, 0, id == 0 ? val(5) : Bytes{})));
  }
  engine.run(3);
  const auto& inst = dynamic_cast<Host&>(engine.process(1)).instance();
  ASSERT_TRUE(inst.done());
  EXPECT_EQ(*inst.output(), val(5));
}

TEST(HubEdge, NonParticipantTrafficIsFiltered) {
  // Party 3 is outside the participant set but floods the channel with
  // plausible VALUE frames: the hub must drop them before the instance.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2};
  auto q = std::make_shared<const ThresholdQuorums>(3, 0);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<PhaseKingBA>(val(4), q)));
  }
  class ValueInjector final : public net::Process {
   public:
    void on_round(net::Context& ctx, net::Inbox) override {
      Writer kv;
      kv.u8(1);  // MsgKind::Value
      kv.bytes(Bytes{0xEE});
      Writer frame;
      frame.u32(0);
      frame.bytes(kv.data());
      Writer direct;
      direct.u8(0);
      direct.bytes(frame.data());
      for (PartyId p = 0; p < 3; ++p) ctx.send(p, direct.data());
    }
  };
  engine.set_corrupt(3, std::make_unique<ValueInjector>());
  engine.run(3 * 1 + 2);
  for (PartyId id : parts) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    EXPECT_EQ(*inst.output(), val(4)) << "outsider values must not count";
  }
}

TEST(HubEdge, DuplicateChannelsAndUnknownMailboxesThrow) {
  InstanceHub hub(net::RelayMode::Direct, 1);
  auto q = std::make_shared<const ThresholdQuorums>(2, 0);
  hub.add_instance(7, 0, {0, 1}, std::make_unique<PhaseKingBA>(Bytes{}, q));
  EXPECT_THROW(hub.add_instance(7, 0, {0, 1}, std::make_unique<PhaseKingBA>(Bytes{}, q)),
               std::logic_error);
  EXPECT_THROW(hub.add_mailbox(7), std::logic_error);
  hub.add_mailbox(8);
  EXPECT_THROW(hub.add_instance(8, 0, {0, 1}, std::make_unique<PhaseKingBA>(Bytes{}, q)),
               std::logic_error);
  EXPECT_THROW((void)hub.take_mailbox(9), std::logic_error);
  EXPECT_TRUE(hub.take_mailbox(8).empty());
  EXPECT_THROW((void)hub.instance(99), std::logic_error);
}

TEST(HubEdge, RoundOfStepFollowsStride) {
  InstanceHub hub1(net::RelayMode::Direct, 1);
  EXPECT_EQ(hub1.round_of_step(0, 5), 5U);
  InstanceHub hub2(net::RelayMode::AuthTimed, 2);
  EXPECT_EQ(hub2.round_of_step(1, 5), 11U);
  EXPECT_THROW(InstanceHub(net::RelayMode::Direct, 0), std::logic_error);
}

TEST(BBviaBAEdge, FactoryDurationMismatchIsCaught) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  auto bad = std::make_unique<BBviaBA>(
      0, val(1), val(0), /*claimed duration=*/99,
      [q](Bytes in) -> std::unique_ptr<Instance> {
        return std::make_unique<PhaseKingBA>(std::move(in), q);
      });
  engine.set_process(0, std::make_unique<Host>(net::RelayMode::Direct, 1, parts, std::move(bad)));
  for (PartyId id : {1U, 2U, 3U}) engine.set_process(id, std::make_unique<adversary::Silent>());
  EXPECT_THROW(engine.run(3), std::logic_error);
}

TEST(WireEdge, KvDecodingRejectsMalformedKinds) {
  Writer w;
  w.u8(0);  // invalid kind
  w.bytes(Bytes{1});
  EXPECT_FALSE(decode_kv(w.data()).has_value());
  Writer w2;
  w2.u8(1);
  w2.bytes(Bytes{1});
  w2.u8(0xFF);  // trailing byte
  EXPECT_FALSE(decode_kv(w2.data()).has_value());
  EXPECT_FALSE(decode_kv({}).has_value());
}

}  // namespace
}  // namespace bsm::broadcast
