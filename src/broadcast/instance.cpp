#include "broadcast/instance.hpp"

#include <algorithm>
#include <utility>

namespace bsm::broadcast {

InstanceIo::InstanceIo(InstanceHub& hub, net::Context& ctx, std::uint32_t channel,
                       const std::vector<PartyId>& participants,
                       const core::PartySet& participant_mask)
    : hub_(&hub),
      ctx_(&ctx),
      channel_(channel),
      participants_(&participants),
      participant_mask_(&participant_mask) {}

void InstanceIo::send(PartyId to, std::span<const std::uint8_t> inner) {
  hub_->send_on_channel(*ctx_, channel_, to, inner);
}

void InstanceIo::broadcast(std::span<const std::uint8_t> inner) {
  hub_->broadcast_on_channel(*ctx_, channel_, *participants_, inner);
}

PartyId InstanceIo::self() const { return ctx_->self(); }
const crypto::Signer& InstanceIo::signer() const { return ctx_->signer(); }
const crypto::Pki& InstanceIo::pki() const { return ctx_->pki(); }

InstanceHub::InstanceHub(net::RelayMode mode, std::uint32_t stride)
    : router_(mode), stride_(stride) {
  require(stride >= 1, "InstanceHub: stride must be positive");
}

void InstanceHub::add_instance(std::uint32_t channel, Round base,
                               std::vector<PartyId> participants,
                               std::unique_ptr<Instance> instance) {
  require(instance != nullptr, "InstanceHub::add_instance: null instance");
  require(entry_at(channel) == nullptr &&
              (channel >= mailboxes_.size() || mailboxes_[channel] == nullptr),
          "InstanceHub::add_instance: duplicate channel");
  if (channel >= entries_.size()) entries_.resize(channel + 1);
  auto entry = std::make_unique<Entry>();
  entry->base = base;
  entry->participants = std::move(participants);
  for (PartyId p : entry->participants) entry->participant_mask.insert(p);
  // Honest traffic is at most about one message per participant per step.
  entry->buffer.reserve(entry->participants.size());
  entry->instance = std::move(instance);
  entries_[channel] = std::move(entry);
}

void InstanceHub::add_mailbox(std::uint32_t channel) {
  require(entry_at(channel) == nullptr &&
              (channel >= mailboxes_.size() || mailboxes_[channel] == nullptr),
          "InstanceHub::add_mailbox: duplicate channel");
  if (channel >= mailboxes_.size()) mailboxes_.resize(channel + 1);
  mailboxes_[channel] = std::make_unique<std::vector<net::AppMsg>>();
}

std::vector<net::AppMsg> InstanceHub::take_mailbox(std::uint32_t channel) {
  require(channel < mailboxes_.size() && mailboxes_[channel] != nullptr,
          "InstanceHub::take_mailbox: unknown mailbox");
  return std::exchange(*mailboxes_[channel], {});
}

const Bytes& InstanceHub::channel_frame(std::uint32_t channel,
                                       std::span<const std::uint8_t> inner) {
  frame_.truncate(0);
  frame_.reserve(4 + 4 + inner.size());
  frame_.u32(channel);
  frame_.bytes(inner);
  return frame_.data();
}

void InstanceHub::send_on_channel(net::Context& ctx, std::uint32_t channel, PartyId to,
                                  std::span<const std::uint8_t> inner) {
  router_.send(ctx, to, channel_frame(channel, inner));
}

void InstanceHub::broadcast_on_channel(net::Context& ctx, std::uint32_t channel,
                                       const std::vector<PartyId>& participants,
                                       std::span<const std::uint8_t> inner) {
  // One frame encode for the whole broadcast; recipients receive the same
  // bytes in the same order as the per-recipient encode they replace.
  router_.broadcast(ctx, participants, channel_frame(channel, inner));
}

void InstanceHub::send_raw(net::Context& ctx, std::uint32_t channel, PartyId to,
                           std::span<const std::uint8_t> body) {
  send_on_channel(ctx, channel, to, body);
}

void InstanceHub::ingest(net::Context& ctx, net::Inbox inbox) {
  for (net::AppMsg& msg : router_.route(ctx, inbox)) {
    Reader r(msg.body);
    const std::uint32_t channel = r.u32();
    const auto inner = r.bytes_view();
    if (!r.done()) {
      ++malformed_;
      continue;
    }
    msg.body = inner;  // strip the channel frame: narrow the view, copy nothing

    if (Entry* entry = entry_at(channel); entry != nullptr) {
      // Only participants may speak on an instance's channel.
      if (!entry->participant_mask.contains(msg.from)) continue;
      entry->buffer.push_back(std::move(msg));
    } else if (channel < mailboxes_.size() && mailboxes_[channel] != nullptr) {
      mailboxes_[channel]->push_back(std::move(msg));
    }
    // Unknown channel: drop.
  }
}

void InstanceHub::step_due(net::Context& ctx) {
  const Round now = ctx.round();
  for (std::uint32_t channel = 0; channel < entries_.size(); ++channel) {
    Entry* entry = entries_[channel].get();
    if (entry == nullptr) continue;
    if (now < entry->base || (now - entry->base) % stride_ != 0) continue;
    const std::uint32_t s = (now - entry->base) / stride_;
    // Hand the buffer over by swapping with the (empty) step scratch: the
    // entry keeps a buffer with capacity for the next round's arrivals,
    // and the messages are released right after the step.
    std::swap(step_inbox_, entry->buffer);
    if (!entry->instance->done() && s <= entry->instance->duration()) {
      InstanceIo io(*this, ctx, channel, entry->participants, entry->participant_mask);
      entry->instance->step(io, s, step_inbox_);
    }
    step_inbox_.clear();
  }
}

bool InstanceHub::all_done() const {
  return std::all_of(entries_.begin(), entries_.end(), [](const auto& entry) {
    return entry == nullptr || entry->instance->done();
  });
}

Instance& InstanceHub::instance(std::uint32_t channel) {
  Entry* entry = entry_at(channel);
  require(entry != nullptr, "InstanceHub::instance: unknown channel");
  return *entry->instance;
}

const Instance& InstanceHub::instance(std::uint32_t channel) const {
  const Entry* entry = entry_at(channel);
  require(entry != nullptr, "InstanceHub::instance: unknown channel");
  return *entry->instance;
}

}  // namespace bsm::broadcast
