// Tests for the virtual-channel relay layer (Lemmas 6, 8, 10): delivery
// through honest relays, majority voting against garbling relays, signature
// rejection, replay protection, and the 2-Delta timing window.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "broadcast/instance.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
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
      Payload original_;
      Payload garbled_;
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

// ------------------------------------------------------- malformed frames

/// Decodes frames one at a time outside the engine: the real topology and
/// PKI, one fixed party and round, and sends recorded instead of queued.
class ProbeContext final : public Context {
 public:
  ProbeContext(const Topology& topo, const crypto::Pki& pki, PartyId self, Round round)
      : topo_(&topo), pki_(&pki), signer_(pki.signer_for(self)), self_(self), round_(round) {}

  void send(PartyId to, const Payload& payload) override {
    sent.push_back({self_, to, round_, payload});
  }
  [[nodiscard]] Round round() const override { return round_; }
  [[nodiscard]] PartyId self() const override { return self_; }
  [[nodiscard]] const Topology& topology() const override { return *topo_; }
  [[nodiscard]] const crypto::Signer& signer() const override { return signer_; }
  [[nodiscard]] const crypto::Pki& pki() const override { return *pki_; }

  std::vector<Envelope> sent;

 private:
  const Topology* topo_;
  const crypto::Pki* pki_;
  crypto::Signer signer_;
  PartyId self_;
  Round round_;
};

/// One mutated frame; `malformed` marks mutants that cannot decode.
struct Mutant {
  Bytes bytes;
  bool malformed;
};

/// The seeded mutation battery over one frame whose variable-length field
/// has its u32 length prefix at `len_at`: truncation at every length, that
/// prefix inflated past the real length (by one, into a trailing signature,
/// at random, and to the maximum), and random bit flips and byte
/// overwrites. Truncated and inflated frames cannot decode; a flipped one
/// may still decode (to other content).
[[nodiscard]] std::vector<Mutant> mutants(const Bytes& frame, std::size_t len_at, Rng& rng) {
  std::vector<Mutant> out;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    out.push_back({Bytes(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len)), true});
  }
  const auto inflate = [&](std::uint64_t len) {
    Bytes bad = frame;
    for (std::size_t i = 0; i < 4; ++i) {
      bad[len_at + i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
    out.push_back({std::move(bad), true});
  };
  const std::uint64_t real = Reader(std::span<const std::uint8_t>(frame).subspan(len_at)).u32();
  inflate(real + 1);
  inflate(real + 12);  // the size of a trailing signature
  inflate(real + 1 + rng.below(1U << 20));
  inflate(0xFFFFFFFF);
  for (int i = 0; i < 64; ++i) {
    Bytes bad = frame;
    const std::uint64_t flips = 1 + rng.below(3);
    for (std::uint64_t f = 0; f < flips; ++f) bad[rng.below(bad.size())] ^= 1U << rng.below(8);
    out.push_back({std::move(bad), false});
  }
  for (int i = 0; i < 16; ++i) {
    Bytes bad = frame;
    bad[rng.below(bad.size())] = static_cast<std::uint8_t>(rng.next());
    out.push_back({std::move(bad), false});
  }
  return out;
}

/// Offset of the body-length prefix in a transport frame, by its tag byte:
/// direct [tag][len]; relay request [tag][dst][id][tau][len]; forward
/// [tag][src][dst][id][tau][len].
[[nodiscard]] std::size_t transport_len_at(std::uint8_t tag) {
  if (tag == 0) return 1;
  return tag == 1 ? 1 + 4 + 8 + 4 : 1 + 4 + 4 + 8 + 4;
}

/// Every envelope a run delivered.
[[nodiscard]] std::vector<Envelope> capture(Engine& engine, Round rounds) {
  std::vector<Envelope> seen;
  engine.set_observer([&](const Envelope& env) { seen.push_back(env); });
  engine.run(rounds);
  engine.set_observer(nullptr);  // the observer refers to `seen`
  return seen;
}

// --------------------------------------------------- one forward per request

/// The forward a relay makes of relay request `req` from `src`, decoded
/// and encoded afresh: [kRelayFwd][src][dst][id][tau][body][signature?].
[[nodiscard]] Bytes fresh_forward(const Bytes& req, PartyId src) {
  Reader r(req);
  EXPECT_EQ(r.u8(), 1);  // RelayReq
  const PartyId dst = r.u32();
  const std::uint64_t id = r.u64();
  const std::uint32_t tau = r.u32();
  const auto body = r.bytes_view();
  Writer w;
  w.u8(2);  // RelayFwd
  w.u32(src);
  w.u32(dst);
  w.u64(id);
  w.u32(tau);
  w.bytes(body);
  if (!r.done()) crypto::Signature::decode(r).encode(w);
  return w.take();
}

/// Sends through its own router at round 0 via a shim that flips one bit
/// of every outgoing frame's last byte (in a signed request: the tag of
/// the sender's own signature), then routes like an honest party. Copies
/// of one frame stay one shared payload, so the relays after the first
/// meet the garbled request through the memo the first one left.
class SignatureGarbler final : public Process {
 public:
  SignatureGarbler(RelayMode mode, PartyId to) : router_(mode), to_(to) {}

  void on_round(Context& ctx, Inbox inbox) override {
    struct Shim final : Context {
      explicit Shim(Context& base) : base_(&base) {}
      void send(PartyId to, const Payload& payload) override {
        if (payload.data() != original_.data()) {
          Bytes mutated = payload.bytes();
          mutated.back() ^= 0x01;
          original_ = payload;
          garbled_ = Payload(std::move(mutated));
        }
        base_->send(to, garbled_);
      }
      [[nodiscard]] Round round() const override { return base_->round(); }
      [[nodiscard]] PartyId self() const override { return base_->self(); }
      [[nodiscard]] const Topology& topology() const override { return base_->topology(); }
      [[nodiscard]] const crypto::Signer& signer() const override { return base_->signer(); }
      [[nodiscard]] const crypto::Pki& pki() const override { return base_->pki(); }
      Context* base_;
      Payload original_;
      Payload garbled_;
    } shim(ctx);
    (void)router_.route(ctx, inbox);
    if (ctx.round() == 0) router_.send(shim, to_, Bytes{7, 7});
  }

 private:
  RelayRouter router_;
  PartyId to_;
};

/// Byzantine party that re-sends every relay request it receives, payload
/// and all, to `targets` under its own id (the Replayer strategy, aimed).
class RequestReplayer final : public Process {
 public:
  explicit RequestReplayer(std::vector<PartyId> targets) : targets_(std::move(targets)) {}

  void on_round(Context& ctx, Inbox inbox) override {
    for (const Envelope& env : inbox) {
      if (env.payload.bytes().at(0) != 1) continue;  // relay requests only
      for (PartyId to : targets_) ctx.send(to, env.payload);
    }
  }

 private:
  std::vector<PartyId> targets_;
};

TEST(RelayForward, RelaysOfOneRequestShareOneForwardPayload) {
  // One-sided k = 4: party 0 reaches party 1 through the four R relays.
  // Each relay's copy is the same buffer, byte-equal to a fresh encode.
  for (const RelayMode mode : {RelayMode::UnauthMajority, RelayMode::AuthSigned}) {
    Fixture f(4, mode);
    f.script(0, {{0, 1, Bytes{3, 1, 4, 1, 5}}});
    const auto seen = capture(f.engine, 3);
    std::vector<Envelope> requests;
    std::vector<Envelope> forwards;
    for (const Envelope& env : seen) {
      if (env.payload.bytes().at(0) == 1) requests.push_back(env);
      if (env.payload.bytes().at(0) == 2 && env.to == 1) forwards.push_back(env);
    }
    ASSERT_EQ(requests.size(), 4U);
    ASSERT_EQ(forwards.size(), 4U);
    const Bytes expected = fresh_forward(requests.front().payload.bytes(), 0);
    for (const Envelope& fwd : forwards) {
      EXPECT_EQ(fwd.payload.data(), forwards.front().payload.data()) << "relay " << fwd.from;
      EXPECT_EQ(fwd.payload.bytes(), expected) << "relay " << fwd.from;
      EXPECT_EQ(fwd.payload.digest(), fnv1a64(expected)) << "relay " << fwd.from;
    }
    ASSERT_EQ(f.user(1).delivered().size(), 1U);
    EXPECT_EQ(body_of(f.user(1).delivered()[0]), (Bytes{3, 1, 4, 1, 5}));
  }
}

TEST(RelayForward, BadSignatureIsRejectedByEveryRelayOnce) {
  for (const RelayMode mode : {RelayMode::AuthSigned, RelayMode::AuthTimed}) {
    Fixture f(4, mode);
    f.engine.set_corrupt(0, std::make_unique<SignatureGarbler>(mode, 1));
    const auto seen = capture(f.engine, 4);
    std::vector<const std::uint8_t*> requests;
    for (const Envelope& env : seen) {
      if (env.payload.bytes().at(0) == 1) requests.push_back(env.payload.data());
    }
    ASSERT_EQ(requests.size(), 4U);
    EXPECT_EQ(std::count(requests.begin(), requests.end(), requests.front()), 4)
        << "the four relays must share one garbled request payload";
    for (PartyId relay = 4; relay < 8; ++relay) {
      EXPECT_EQ(f.user(relay).router().rejected(), 1U) << "relay " << relay;
    }
    EXPECT_TRUE(std::none_of(seen.begin(), seen.end(), [](const Envelope& env) {
      return env.payload.bytes().at(0) == 2;
    })) << "no relay may forward a badly signed request";
    EXPECT_TRUE(f.user(1).delivered().empty());
  }
}

TEST(RelayForward, ReplayUnderAnotherIdIsForwardedForThatSource) {
  // Relay 4 is byzantine: it re-sends party 0's request payload to the
  // other relays as its own. Those relays already forwarded that payload
  // for source 0; for the replay they must build the forward for source 4
  // (majority mode), or reject it (the signature is party 0's).
  for (const RelayMode mode : {RelayMode::UnauthMajority, RelayMode::AuthSigned,
                               RelayMode::AuthTimed}) {
    Fixture f(4, mode);
    f.script(0, {{0, 1, Bytes{2, 7, 1, 8}}});
    f.engine.set_corrupt(4, std::make_unique<RequestReplayer>(std::vector<PartyId>{5, 6, 7}));
    const auto seen = capture(f.engine, 5);
    const auto request = std::find_if(seen.begin(), seen.end(), [](const Envelope& env) {
      return env.from == 0 && env.payload.bytes().at(0) == 1;
    });
    ASSERT_NE(request, seen.end());
    const Bytes& req = request->payload.bytes();
    std::vector<Envelope> for0;
    std::vector<Envelope> for4;
    for (const Envelope& env : seen) {
      if (env.payload.bytes().at(0) != 2) continue;
      if (env.payload.bytes() == fresh_forward(req, 0)) for0.push_back(env);
      if (env.payload.bytes() == fresh_forward(req, 4)) for4.push_back(env);
    }
    EXPECT_EQ(for0.size(), 3U) << "honest relays 5..7 forward the original";
    const bool auth = mode != RelayMode::UnauthMajority;
    EXPECT_EQ(for4.size(), auth ? 0U : 3U);
    for (PartyId relay = 5; relay < 8; ++relay) {
      EXPECT_EQ(f.user(relay).router().rejected(), auth ? 1U : 0U) << "relay " << relay;
    }
    const auto& got = f.user(1).delivered();
    ASSERT_EQ(got.size(), auth ? 1U : 2U);
    EXPECT_EQ(got[0].from, 0U);
    if (!auth) EXPECT_EQ(got[1].from, 4U);
    for (const AppMsg& msg : got) EXPECT_EQ(body_of(msg), (Bytes{2, 7, 1, 8}));
  }
}

TEST(RelayForward, DistinctBodiesForOneKeyKeepSeparateVotes) {
  // One-sided k = 5 (relays 5..9, majority 3): forwards for one (src, id)
  // carrying two bodies. Neither body's votes count for the other, a
  // relay's repeated vote counts once, and the first body to reach three
  // distinct relays is delivered, once.
  const Topology topo(TopologyKind::OneSided, 5);
  const crypto::Pki pki(topo.n(), 1);
  RelayRouter router(RelayMode::UnauthMajority);
  ProbeContext ctx(topo, pki, /*self=*/1, /*round=*/2);
  const auto forward = [](const Bytes& body) {
    Writer w;
    w.u8(2);   // RelayFwd
    w.u32(0);  // src
    w.u32(1);  // dst
    w.u64(7);  // id
    w.u32(0);  // tau
    w.bytes(body);
    return Payload(w.take());
  };
  const Bytes a{0xA};
  const Bytes b{0xB, 0xB};
  const Payload shared_a = forward(a);
  const std::vector<std::pair<PartyId, Payload>> copies = {
      {5, shared_a}, {5, shared_a}, {7, forward(b)}, {8, forward(b)}, {6, forward(a)},
      {9, forward(b)}, {8, shared_a}};
  std::vector<std::size_t> delivered_at;
  std::vector<AppMsg> got;
  for (std::size_t i = 0; i < copies.size(); ++i) {
    const Envelope env{copies[i].first, 1, 1, copies[i].second};
    for (AppMsg& msg : router.route(ctx, Inbox(&env, 1))) {
      delivered_at.push_back(i);
      got.push_back(std::move(msg));
    }
  }
  ASSERT_EQ(got.size(), 1U);
  EXPECT_EQ(delivered_at[0], 5U) << "body b reaches {7, 8, 9} first; a has only {5, 6}";
  EXPECT_EQ(got[0].from, 0U);
  EXPECT_EQ(body_of(got[0]), b);
  EXPECT_EQ(got[0].keep.data(), copies[2].second.data()) << "the first copy of b is kept";
  EXPECT_EQ(router.rejected(), 0U);
  EXPECT_TRUE(ctx.sent.empty());
}

// ----------------------------------------------------- the mutation battery

TEST(Relay, MalformedFramesAreCountedNotFatal) {
  {
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

  // The mutation battery over real transport frames of every relay mode
  // (a direct L-to-R send, or an L-to-L send through the R relays): each
  // mutant goes alone through a fresh router at its recipient. A mutant
  // that fails to decode is counted once and yields no body and no
  // forward; one that decodes yields only views into its own payload.
  // Failures name (mode, frame, mutant).
  Rng rng(0x5eed);
  for (int m = 0; m < 4; ++m) {
    const auto mode = static_cast<RelayMode>(m);
    const bool direct = mode == RelayMode::Direct;
    Fixture f(2, mode);
    f.script(0, {{0, direct ? PartyId{2} : PartyId{1}, Bytes{9, 8, 7, 6, 5}}});
    const auto frames = capture(f.engine, 4);
    unsigned tags = 0;  // bit t set: a frame with tag t was captured
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const Envelope& env = frames[i];
      const Bytes& frame = env.payload.bytes();
      tags |= 1U << frame.at(0);
      {
        RelayRouter router(mode);
        ProbeContext ctx(f.engine.topology(), f.engine.pki(), env.to, env.sent_round + 1);
        (void)router.route(ctx, Inbox(&env, 1));
        ASSERT_EQ(router.rejected(), 0U) << "pristine frames decode";
      }
      const auto battery = mutants(frame, transport_len_at(frame[0]), rng);
      for (std::size_t b = 0; b < battery.size(); ++b) {
        const std::string where = ::testing::PrintToString(std::tuple(m, i, b));
        Envelope bad = env;
        bad.payload = Payload(battery[b].bytes);
        RelayRouter router(mode);
        ProbeContext ctx(f.engine.topology(), f.engine.pki(), env.to, env.sent_round + 1);
        const auto out = router.route(ctx, Inbox(&bad, 1));
        ASSERT_LE(router.rejected(), 1U) << where;
        if (battery[b].malformed) EXPECT_EQ(router.rejected(), 1U) << where;
        if (router.rejected() == 1) {
          EXPECT_TRUE(out.empty()) << where;
          EXPECT_TRUE(ctx.sent.empty()) << where;
        }
        for (const AppMsg& msg : out) {
          EXPECT_TRUE(points_into(msg.body, bad.payload)) << where;
        }
      }
    }
    EXPECT_EQ(tags, direct ? 0b001U : 0b110U) << "mode " << m;
  }

  // The same battery over real hub channel frames ([u32 channel][u32 len]
  // [inner]), each wrapped in a well-formed direct frame and fed through
  // InstanceHub::ingest: a channel frame that fails to decode is counted
  // as malformed and reaches no mailbox. Failures name (frame, mutant).
  Engine engine(Topology(TopologyKind::FullyConnected, 2), 1);
  for (PartyId id = 0; id < 4; ++id) {
    engine.set_process(id, std::make_unique<HubHost>(/*stride=*/1, 2, hub_value(id), false));
  }
  const auto frames = capture(engine, 2);
  ASSERT_EQ(frames.size(), 16U);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Envelope& env = frames[i];
    Bytes channel_frame;
    {
      RelayRouter router(RelayMode::Direct);
      ProbeContext ctx(engine.topology(), engine.pki(), env.to, env.sent_round + 1);
      const auto out = router.route(ctx, Inbox(&env, 1));
      ASSERT_EQ(out.size(), 1U);
      channel_frame = body_of(out[0]);
    }
    const auto battery = mutants(channel_frame, /*len_at=*/4, rng);
    for (std::size_t b = 0; b < battery.size(); ++b) {
      const std::string where = ::testing::PrintToString(std::tuple(i, b));
      RelayRouter wrapper(RelayMode::Direct);
      ProbeContext wrap(engine.topology(), engine.pki(), env.from, env.sent_round);
      wrapper.send(wrap, env.to, battery[b].bytes);
      ASSERT_EQ(wrap.sent.size(), 1U);
      const Envelope& bad = wrap.sent[0];

      broadcast::InstanceHub hub(RelayMode::Direct, 1);
      hub.add_mailbox(0);
      ProbeContext ctx(engine.topology(), engine.pki(), env.to, env.sent_round + 1);
      hub.ingest(ctx, Inbox(&bad, 1));
      const auto got = hub.take_mailbox(0);
      EXPECT_EQ(hub.router().rejected(), 0U) << where;
      ASSERT_LE(hub.malformed(), 1U) << where;
      if (battery[b].malformed) EXPECT_EQ(hub.malformed(), 1U) << where;
      if (hub.malformed() == 1) EXPECT_TRUE(got.empty()) << where;
      EXPECT_LE(got.size(), 1U) << where;
      for (const AppMsg& msg : got) {
        EXPECT_TRUE(points_into(msg.body, bad.payload)) << where;
      }
    }
  }
}

}  // namespace
}  // namespace bsm::net
