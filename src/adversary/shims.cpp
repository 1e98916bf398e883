#include "adversary/shims.hpp"

#include "common/codec.hpp"

namespace bsm::adversary {

FilteringContext::SendFilter budgeted_omission_filter(core::PartySet targets,
                                                      std::uint32_t budget) {
  auto remaining = std::make_shared<std::uint32_t>(budget);
  return [targets = std::move(targets), remaining](PartyId to, const Bytes&) {
    if (!targets.contains(to) || *remaining == 0) return true;
    --*remaining;
    return false;
  };
}

namespace {

// Frame marker for world-tagged traffic between conspirators.
constexpr std::uint8_t kWorldTag = 0xB7;

[[nodiscard]] Bytes wrap_world(int world, std::span<const std::uint8_t> payload) {
  Writer w;
  w.reserve(1 + 1 + 4 + payload.size());
  w.u8(kWorldTag);
  w.u8(static_cast<std::uint8_t>(world));
  w.bytes(payload);
  return w.take();
}

[[nodiscard]] std::optional<std::pair<int, Bytes>> unwrap_world(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  if (r.u8() != kWorldTag) return std::nullopt;
  const int world = r.u8();
  Bytes inner = r.bytes();
  if (!r.done() || world > 1) return std::nullopt;
  return std::make_pair(world, std::move(inner));
}

}  // namespace

SplitBrain::SplitBrain(std::unique_ptr<net::Process> instance0,
                       std::unique_ptr<net::Process> instance1, GroupOf group,
                       std::set<PartyId> conspirators)
    : group_(std::move(group)), conspirators_(std::move(conspirators)) {
  require(instance0 != nullptr && instance1 != nullptr, "SplitBrain: two instances required");
  instances_[0] = std::move(instance0);
  instances_[1] = std::move(instance1);
}

void SplitBrain::on_round(net::Context& ctx, net::Inbox inbox) {
  // Partition the inbox into the two simulated worlds.
  std::vector<net::Envelope> world_inbox[2];
  for (int w = 0; w < 2; ++w) {
    world_inbox[w] = std::move(self_loop_[w]);
    self_loop_[w].clear();
  }
  for (const auto& env : inbox) {
    if (env.from == ctx.self()) continue;  // own sends are kept in self_loop_
    if (conspirators_.contains(env.from)) {
      if (auto unwrapped = unwrap_world(env.payload.span())) {
        auto tagged = env;
        tagged.payload = std::move(unwrapped->second);
        world_inbox[unwrapped->first].push_back(std::move(tagged));
      }
      continue;
    }
    const int w = group_(env.from);
    if (w == 0 || w == 1) world_inbox[w].push_back(env);
  }

  for (int world = 0; world < 2; ++world) {
    FilteringContext shim(ctx, [this, world, &ctx](PartyId to, const Bytes& payload) {
      if (to == ctx.self()) {
        self_loop_[world].push_back(
            net::Envelope{ctx.self(), ctx.self(), ctx.round(), payload});
        return false;
      }
      if (conspirators_.contains(to)) {
        // Deliver out-of-band with a world tag via the base context; the
        // shim itself returns false so the untagged copy is suppressed.
        ctx.send(to, wrap_world(world, payload));
        return false;
      }
      return group_(to) == world;
    });
    instances_[world]->on_round(shim, world_inbox[world]);
  }
}

}  // namespace bsm::adversary
