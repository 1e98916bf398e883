#include "core/btm.hpp"

#include "broadcast/bb_via_ba.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/phase_king.hpp"
#include "broadcast/quorums.hpp"

namespace bsm::core {

namespace {

[[nodiscard]] std::unique_ptr<broadcast::Instance> make_bb(const BsmConfig& cfg, BbKind bb,
                                                           PartyId sender,
                                                           const Bytes& input_if_sender) {
  if (bb == BbKind::DolevStrong) {
    return std::make_unique<broadcast::DolevStrong>(sender, cfg.tl + cfg.tr, input_if_sender);
  }

  // Only the BA-based broadcast falls back to the publicly known default.
  Bytes def = matching::encode_preference_list(
      matching::default_preference_list(side_of(sender, cfg.k), cfg.k));
  auto quorums = std::make_shared<const broadcast::ProductQuorums>(cfg.k, cfg.tl, cfg.tr);
  const std::uint32_t ba_duration = 3 * quorums->num_phases();
  return std::make_unique<broadcast::BBviaBA>(
      sender, input_if_sender, std::move(def), ba_duration,
      [quorums](Bytes input) -> std::unique_ptr<broadcast::Instance> {
        return std::make_unique<broadcast::PhaseKingBA>(std::move(input), quorums);
      });
}

}  // namespace

std::uint32_t BroadcastThenMatch::bb_duration(const BsmConfig& cfg, BbKind bb) {
  if (bb == BbKind::DolevStrong) return cfg.tl + cfg.tr + 1;
  return 1 + 3 * (cfg.tl + cfg.tr + 1);
}

Round BroadcastThenMatch::total_rounds(const BsmConfig& cfg, BbKind bb, std::uint32_t stride) {
  return bb_duration(cfg, bb) * stride + 1;
}

BroadcastThenMatch::BroadcastThenMatch(const BsmConfig& cfg, BbKind bb, net::RelayMode relay,
                                       std::uint32_t stride, PartyId self,
                                       matching::PreferenceList input)
    : cfg_(cfg), self_(self), hub_(relay, stride) {
  require(matching::is_valid_preference_list(input, side_of(self, cfg.k), cfg.k),
          "BroadcastThenMatch: invalid input list");
  const Bytes own = matching::encode_preference_list(input);

  std::vector<PartyId> everyone;
  everyone.reserve(cfg.n());
  for (PartyId p = 0; p < cfg.n(); ++p) everyone.push_back(p);

  for (PartyId sender = 0; sender < cfg.n(); ++sender) {
    hub_.add_instance(sender, /*base=*/0, everyone,
                      make_bb(cfg, bb, sender, sender == self ? own : Bytes{}));
  }
}

void BroadcastThenMatch::on_round(net::Context& ctx, net::Inbox inbox) {
  hub_.ingest(ctx, inbox);
  hub_.step_due(ctx);
  if (decided_ || !hub_.all_done()) return;

  // Identical broadcast outputs at every honest party => identical profile
  // => identical A_G-S matching (Theorem 1 is deterministic).
  matching::PreferenceProfile profile(cfg_.k);
  for (PartyId id = 0; id < cfg_.n(); ++id) {
    const Side side = side_of(id, cfg_.k);
    const auto& out = hub_.instance(id).output();
    std::optional<matching::PreferenceList> list;
    if (out.has_value()) list = matching::decode_preference_list(*out, side, cfg_.k);
    profile.set(id, list.value_or(matching::default_preference_list(side, cfg_.k)));
  }
  matching_ = matching::gale_shapley(profile).matching;
  decision_ = matching_[self_];
  decided_ = true;
}

}  // namespace bsm::core
