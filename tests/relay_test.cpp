// Tests for the virtual-channel relay layer (Lemmas 6, 8, 10): delivery
// through honest relays, majority voting against garbling relays, signature
// rejection, replay protection, and the 2-Delta timing window.
#include <gtest/gtest.h>

#include <algorithm>

#include "broadcast/instance.hpp"
#include "common/codec.hpp"
#include "net/engine.hpp"
#include "net/relay.hpp"

namespace bsm::net {
namespace {

/// An application message's body as owned bytes (for EXPECT_EQ).
[[nodiscard]] Bytes body_of(const AppMsg& msg) {
  return Bytes(msg.body.begin(), msg.body.end());
}

/// Owns a RelayRouter; performs scripted sends and records deliveries, and
/// (being a router user) does forwarding duty for everyone else.
class RelayUser final : public Process {
 public:
  struct ScriptedSend {
    Round round;
    PartyId to;
    Bytes body;
  };

  RelayUser(RelayMode mode, std::vector<ScriptedSend> script)
      : router_(mode), script_(std::move(script)) {}

  void on_round(Context& ctx, Inbox inbox) override {
    for (auto& msg : router_.route(ctx, inbox)) delivered_.push_back(std::move(msg));
    for (const auto& s : script_) {
      if (s.round == ctx.round()) router_.send(ctx, s.to, s.body);
    }
  }

  [[nodiscard]] const std::vector<AppMsg>& delivered() const { return delivered_; }
  [[nodiscard]] const RelayRouter& router() const { return router_; }

 private:
  RelayRouter router_;
  std::vector<ScriptedSend> script_;
  std::vector<AppMsg> delivered_;
};

/// Byzantine relay: behaves like an honest router user, except every
/// outgoing forward has one body byte flipped (content garbling).
class GarblingRelay final : public Process {
 public:
  explicit GarblingRelay(RelayMode mode) : router_(mode) {}

  void on_round(Context& ctx, Inbox inbox) override {
    struct Shim final : Context {
      explicit Shim(Context& base) : base_(&base) {}
      void send(PartyId to, const Payload& payload) override {
        Bytes mutated = payload.bytes();
        if (!mutated.empty()) mutated.back() ^= 0x01;
        base_->send(to, mutated);
      }
      [[nodiscard]] Round round() const override { return base_->round(); }
      [[nodiscard]] PartyId self() const override { return base_->self(); }
      [[nodiscard]] const Topology& topology() const override { return base_->topology(); }
      [[nodiscard]] const crypto::Signer& signer() const override { return base_->signer(); }
      [[nodiscard]] const crypto::Pki& pki() const override { return base_->pki(); }
      Context* base_;
    } shim(ctx);
    (void)router_.route(shim, inbox);
  }

 private:
  RelayRouter router_;
};

/// Byzantine relay that buffers its inbox and performs its forwarding duty
/// `delay` rounds late (for the Lemma 10 timing window).
class DelayingRelay final : public Process {
 public:
  DelayingRelay(RelayMode mode, Round delay) : router_(mode), delay_(delay) {}

  void on_round(Context& ctx, Inbox inbox) override {
    // The inbox slice only lives for this round; copying its envelopes is a
    // reference-count bump that keeps their shared payloads alive.
    buffer_.emplace_back(inbox.begin(), inbox.end());
    if (buffer_.size() > delay_) {
      (void)router_.route(ctx, buffer_.front());
      buffer_.erase(buffer_.begin());
    }
  }

 private:
  RelayRouter router_;
  Round delay_;
  std::vector<std::vector<Envelope>> buffer_;
};

class SilentProcess final : public Process {
 public:
  void on_round(Context&, Inbox) override {}
};

/// One-sided market of size k: L parties are RelayUsers, R parties are the
/// relays (honest RelayUsers by default; overridable per id).
struct Fixture {
  explicit Fixture(std::uint32_t k, RelayMode mode)
      : engine(Topology(TopologyKind::OneSided, k), /*pki_seed=*/1), mode_(mode) {
    for (PartyId id = 0; id < 2 * k; ++id) {
      engine.set_process(id, std::make_unique<RelayUser>(mode, std::vector<RelayUser::ScriptedSend>{}));
    }
  }

  void script(PartyId id, std::vector<RelayUser::ScriptedSend> sends) {
    engine.set_process(id, std::make_unique<RelayUser>(mode_, std::move(sends)));
  }

  [[nodiscard]] const RelayUser& user(PartyId id) {
    return dynamic_cast<const RelayUser&>(engine.process(id));
  }

  Engine engine;
  RelayMode mode_;
};

TEST(Relay, DirectCrossSideDelivery) {
  Fixture f(2, RelayMode::Direct);
  f.script(0, {{0, 2, Bytes{1, 2, 3}}});
  f.engine.run(2);
  ASSERT_EQ(f.user(2).delivered().size(), 1U);
  EXPECT_EQ(f.user(2).delivered()[0].from, 0U);
  EXPECT_EQ(body_of(f.user(2).delivered()[0]), (Bytes{1, 2, 3}));
}

TEST(Relay, DirectRefusesVirtualChannels) {
  Fixture f(2, RelayMode::Direct);
  f.script(0, {{0, 1, Bytes{1}}});  // L-L without relaying enabled
  EXPECT_THROW(f.engine.run(1), std::logic_error);
}

TEST(Relay, MajorityDeliversInTwoRounds) {
  Fixture f(2, RelayMode::UnauthMajority);
  f.script(0, {{0, 1, Bytes{5, 6}}});
  f.engine.run(2);
  EXPECT_TRUE(f.user(1).delivered().empty());  // not yet: 2 * Delta
  f.engine.run(1);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
  EXPECT_EQ(f.user(1).delivered()[0].from, 0U);
  EXPECT_EQ(body_of(f.user(1).delivered()[0]), (Bytes{5, 6}));
}

TEST(Relay, MajoritySurvivesOneGarblingRelayOfThree) {
  Fixture f(3, RelayMode::UnauthMajority);
  f.script(0, {{0, 1, Bytes{9}}});
  f.engine.set_corrupt(3, std::make_unique<GarblingRelay>(RelayMode::UnauthMajority));
  f.engine.run(4);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
  EXPECT_EQ(body_of(f.user(1).delivered()[0]), (Bytes{9}));
}

TEST(Relay, MajorityFailsWithoutHonestMajority) {
  // k = 2: strict majority needs both relays; one silent byzantine relay
  // starves the channel (exactly why Theorem 4 requires tR < k/2).
  Fixture f(2, RelayMode::UnauthMajority);
  f.script(0, {{0, 1, Bytes{9}}});
  f.engine.set_corrupt(2, std::make_unique<SilentProcess>());
  f.engine.run(6);
  EXPECT_TRUE(f.user(1).delivered().empty());
}

TEST(Relay, MajorityRejectsSpoofedSource) {
  // A single byzantine relay fabricates a forward claiming src = 0; with
  // k = 3 the strict majority (2) is never reached.
  Fixture f(3, RelayMode::UnauthMajority);
  Writer w;
  w.u8(2);             // RelayFwd
  w.u32(0);            // claimed src
  w.u32(1);            // dst
  w.u64(77);           // id
  w.u32(0);            // tau
  w.bytes(Bytes{66});  // body
  class RawSender final : public Process {
   public:
    explicit RawSender(Bytes frame) : frame_(std::move(frame)) {}
    void on_round(Context& ctx, Inbox) override {
      if (ctx.round() == 0) ctx.send(1, frame_);
    }
    Bytes frame_;
  };
  f.engine.set_corrupt(3, std::make_unique<RawSender>(w.data()));
  f.engine.run(4);
  EXPECT_TRUE(f.user(1).delivered().empty());
}

TEST(Relay, AuthDeliversWithSingleHonestRelay) {
  // k = 3, two of three relays silent-byzantine: Lemma 8 needs just one
  // honest forwarder.
  Fixture f(3, RelayMode::AuthSigned);
  f.script(0, {{0, 1, Bytes{1, 1}}});
  f.engine.set_corrupt(3, std::make_unique<SilentProcess>());
  f.engine.set_corrupt(4, std::make_unique<SilentProcess>());
  f.engine.run(4);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
  EXPECT_EQ(f.user(1).delivered()[0].from, 0U);
}

TEST(Relay, AuthRejectsGarbledContent) {
  // The only functioning relay garbles the body: signature verification
  // fails and nothing is delivered.
  Fixture f(2, RelayMode::AuthSigned);
  f.script(0, {{0, 1, Bytes{8}}});
  f.engine.set_corrupt(2, std::make_unique<GarblingRelay>(RelayMode::AuthSigned));
  f.engine.set_corrupt(3, std::make_unique<SilentProcess>());
  f.engine.run(5);
  EXPECT_TRUE(f.user(1).delivered().empty());
}

TEST(Relay, AuthAcceptsExactlyOncePerMessage) {
  // All three relays forward: the receiver must deduplicate on (src, id).
  Fixture f(3, RelayMode::AuthSigned);
  f.script(0, {{0, 1, Bytes{4}}, {0, 1, Bytes{4}}});
  f.engine.run(4);
  // Two scripted sends = two ids = two deliveries; not six.
  EXPECT_EQ(f.user(1).delivered().size(), 2U);
}

TEST(Relay, TimedAcceptsWithinWindow) {
  Fixture f(2, RelayMode::AuthTimed);
  f.script(0, {{0, 1, Bytes{3}}});
  f.engine.run(4);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
}

TEST(Relay, TimedRejectsLateForwards) {
  // Both relays byzantine: one silent, one forwarding 3 rounds late —
  // outside the 2 * Delta window, so the message is omitted, never late.
  Fixture f(2, RelayMode::AuthTimed);
  f.script(0, {{0, 1, Bytes{3}}});
  f.engine.set_corrupt(2, std::make_unique<DelayingRelay>(RelayMode::AuthTimed, 3));
  f.engine.set_corrupt(3, std::make_unique<SilentProcess>());
  f.engine.run(10);
  EXPECT_TRUE(f.user(1).delivered().empty());
}

TEST(Relay, TimedOmissionRequiresAllRelaysByzantine) {
  // One honest relay of two: delivery happens despite the delayer.
  Fixture f(2, RelayMode::AuthTimed);
  f.script(0, {{0, 1, Bytes{3}}});
  f.engine.set_corrupt(3, std::make_unique<DelayingRelay>(RelayMode::AuthTimed, 3));
  f.engine.run(10);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
}

TEST(Relay, MalformedFramesAreCountedNotFatal) {
  Fixture f(2, RelayMode::UnauthMajority);
  class Noise final : public Process {
   public:
    void on_round(Context& ctx, Inbox) override {
      if (ctx.round() == 0) ctx.send(0, Bytes{0xFF, 0xFF, 0xFF});
    }
  };
  f.engine.set_corrupt(2, std::make_unique<Noise>());
  EXPECT_NO_THROW(f.engine.run(3));
  EXPECT_GE(f.user(0).router().rejected(), 1U);
}

// ------------------------------------------------- shared payloads, views

/// True iff `body` lies inside `payload`'s buffer.
[[nodiscard]] bool points_into(std::span<const std::uint8_t> body, const Payload& payload) {
  return body.data() >= payload.data() &&
         body.data() + body.size() <= payload.data() + payload.size();
}

/// Routes its inbox, keeping both the envelopes (copies share payloads) and
/// the decoded messages; broadcasts `body` at round 0 if it has one.
class ViewRecorder final : public Process {
 public:
  ViewRecorder(RelayMode mode, Bytes body) : router_(mode), body_(std::move(body)) {}

  void on_round(Context& ctx, Inbox inbox) override {
    envelopes_.insert(envelopes_.end(), inbox.begin(), inbox.end());
    for (auto& msg : router_.route(ctx, inbox)) delivered_.push_back(std::move(msg));
    if (ctx.round() == 0 && !body_.empty()) {
      std::vector<PartyId> everyone;
      for (PartyId p = 0; p < ctx.topology().n(); ++p) everyone.push_back(p);
      router_.broadcast(ctx, everyone, body_);
    }
  }

  RelayRouter router_;
  Bytes body_;
  std::vector<Envelope> envelopes_;
  std::vector<AppMsg> delivered_;
};

TEST(RelayViews, BroadcastSharesOneDirectFrame) {
  Engine engine(Topology(TopologyKind::FullyConnected, 2), 1);
  engine.set_process(0, std::make_unique<ViewRecorder>(RelayMode::Direct, Bytes{4, 5, 6}));
  for (PartyId id = 1; id < 4; ++id) {
    engine.set_process(id, std::make_unique<ViewRecorder>(RelayMode::Direct, Bytes{}));
  }
  std::vector<Envelope> sent;
  engine.set_observer([&](const Envelope& env) { sent.push_back(env); });
  engine.run(2);
  ASSERT_EQ(sent.size(), 4U);
  for (const Envelope& env : sent) {
    EXPECT_EQ(env.from, 0U);
    EXPECT_EQ(env.payload.data(), sent.front().payload.data()) << "recipient " << env.to;
  }
}

TEST(RelayViews, DirectBodiesPointIntoTheReceivedPayload) {
  Engine engine(Topology(TopologyKind::FullyConnected, 2), 1);
  engine.set_process(0, std::make_unique<ViewRecorder>(RelayMode::Direct, Bytes{4, 5, 6}));
  for (PartyId id = 1; id < 4; ++id) {
    engine.set_process(id, std::make_unique<ViewRecorder>(RelayMode::Direct, Bytes{}));
  }
  engine.run(2);
  for (PartyId id = 0; id < 4; ++id) {
    const auto& rec = dynamic_cast<const ViewRecorder&>(engine.process(id));
    ASSERT_EQ(rec.envelopes_.size(), 1U);
    ASSERT_EQ(rec.delivered_.size(), 1U);
    const AppMsg& msg = rec.delivered_[0];
    EXPECT_EQ(msg.keep.data(), rec.envelopes_[0].payload.data());
    EXPECT_TRUE(points_into(msg.body, rec.envelopes_[0].payload));
    EXPECT_EQ(body_of(msg), (Bytes{4, 5, 6}));
  }
}

TEST(RelayViews, RelayedBodiesPointIntoAForwardedPayload) {
  // One-sided k = 3: L-to-L traffic goes through the R relays, on both the
  // signed and the majority acceptance paths.
  for (const RelayMode mode : {RelayMode::AuthSigned, RelayMode::UnauthMajority}) {
    Engine engine(Topology(TopologyKind::OneSided, 3), 1);
    for (PartyId id = 0; id < 6; ++id) {
      engine.set_process(
          id, std::make_unique<ViewRecorder>(mode, id == 0 ? Bytes{1, 2, 3, 4} : Bytes{}));
    }
    engine.run(3);
    const auto& rec = dynamic_cast<const ViewRecorder&>(engine.process(1));
    ASSERT_EQ(rec.delivered_.size(), 1U);  // party 1 hears party 0 once
    const AppMsg& msg = rec.delivered_[0];
    EXPECT_EQ(msg.from, 0U);
    EXPECT_EQ(body_of(msg), (Bytes{1, 2, 3, 4}));
    EXPECT_TRUE(points_into(msg.body, msg.keep));
    EXPECT_TRUE(std::any_of(rec.envelopes_.begin(), rec.envelopes_.end(), [&](const Envelope& e) {
      return e.payload.data() == msg.keep.data();
    })) << "the body must view a payload that arrived in the inbox";
  }
}

/// Instance that broadcasts `value` at step 0 and records, at the last
/// step, every message it was handed (views and owned copies).
class RecordingInstance final : public broadcast::Instance {
 public:
  explicit RecordingInstance(Bytes value) : value_(std::move(value)) {}

  void step(broadcast::InstanceIo& io, std::uint32_t s, const std::vector<AppMsg>& inbox) override {
    if (s == 0) io.broadcast(value_);
    for (const auto& msg : inbox) {
      views_.push_back(msg);
      copies_.push_back(body_of(msg));
    }
    if (s == duration()) decide(std::nullopt);
  }
  [[nodiscard]] std::uint32_t duration() const override { return 1; }

  Bytes value_;
  std::vector<AppMsg> views_;
  std::vector<Bytes> copies_;
};

/// Hosts one RecordingInstance on channel 0; optionally keeps copies of its
/// envelopes (which would also keep their payloads alive).
class HubHost final : public Process {
 public:
  HubHost(std::uint32_t stride, std::uint32_t k, Bytes value, bool keep_envelopes)
      : hub_(RelayMode::Direct, stride), keep_envelopes_(keep_envelopes) {
    std::vector<PartyId> everyone;
    for (PartyId p = 0; p < 2 * k; ++p) everyone.push_back(p);
    auto instance = std::make_unique<RecordingInstance>(std::move(value));
    instance_ = instance.get();
    hub_.add_instance(0, /*base=*/0, std::move(everyone), std::move(instance));
  }

  void on_round(Context& ctx, Inbox inbox) override {
    if (keep_envelopes_) envelopes_.insert(envelopes_.end(), inbox.begin(), inbox.end());
    hub_.ingest(ctx, inbox);
    hub_.step_due(ctx);
  }

  broadcast::InstanceHub hub_;
  bool keep_envelopes_;
  RecordingInstance* instance_ = nullptr;
  std::vector<Envelope> envelopes_;
};

[[nodiscard]] Bytes hub_value(PartyId id) {
  return Bytes(24, static_cast<std::uint8_t>(0xA0 + id));
}

TEST(RelayViews, IngestedBodiesPointIntoTheReceivedPayload) {
  Engine engine(Topology(TopologyKind::FullyConnected, 2), 1);
  for (PartyId id = 0; id < 4; ++id) {
    engine.set_process(id, std::make_unique<HubHost>(/*stride=*/1, 2, hub_value(id), true));
  }
  engine.run(2);
  for (PartyId id = 0; id < 4; ++id) {
    const auto& host = dynamic_cast<const HubHost&>(engine.process(id));
    ASSERT_EQ(host.envelopes_.size(), 4U);
    ASSERT_EQ(host.instance_->views_.size(), 4U);
    for (std::size_t i = 0; i < 4; ++i) {
      const AppMsg& msg = host.instance_->views_[i];
      const Envelope& env = host.envelopes_[i];  // both in sender order
      EXPECT_EQ(msg.from, env.from);
      EXPECT_EQ(msg.keep.data(), env.payload.data());
      EXPECT_TRUE(points_into(msg.body, env.payload));
      EXPECT_EQ(host.instance_->copies_[i], hub_value(env.from));
    }
  }
}

TEST(RelayViews, StrideTwoBufferedBodiesOutliveTheMailbox) {
  // With stride 2 the messages of step 0 arrive at round 1 but are handed
  // to the instance only at round 2, after the engine recycled round 1's
  // mailbox arena and released its envelopes: the buffered views alone
  // must keep their bytes alive (the sanitizer build turns a dangling view
  // into a hard failure).
  Engine engine(Topology(TopologyKind::FullyConnected, 2), 1);
  for (PartyId id = 0; id < 4; ++id) {
    engine.set_process(id, std::make_unique<HubHost>(/*stride=*/2, 2, hub_value(id), false));
  }
  engine.run(3);
  for (PartyId id = 0; id < 4; ++id) {
    const auto& host = dynamic_cast<const HubHost&>(engine.process(id));
    ASSERT_TRUE(host.instance_->done());
    ASSERT_EQ(host.instance_->copies_.size(), 4U);
    for (PartyId from = 0; from < 4; ++from) {
      EXPECT_EQ(host.instance_->views_[from].from, from);
      EXPECT_EQ(host.instance_->copies_[from], hub_value(from));
    }
  }
}

}  // namespace
}  // namespace bsm::net
