// Message kinds shared by the agreement/broadcast instances on a channel.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/codec.hpp"
#include "common/types.hpp"

namespace bsm::broadcast {

enum class MsgKind : std::uint8_t {
  Value = 1,    ///< phase-king round-1 value exchange
  Propose = 2,  ///< phase-king round-2 proposal
  King = 3,     ///< phase-king round-3 king value
  Final = 4,    ///< Pi_BA closing echo round
  Input = 5,    ///< BB sender's initial dissemination
  Chain = 6,    ///< Dolev-Strong signed value chain
};

/// Encode {kind, value} — the common shape of phase-king traffic.
[[nodiscard]] inline Bytes encode_kv(MsgKind kind, std::span<const std::uint8_t> value) {
  Writer w;
  w.reserve(1 + 4 + value.size());
  w.u8(static_cast<std::uint8_t>(kind));
  w.bytes(value);
  return w.take();
}

struct KvMsg {
  MsgKind kind;
  Bytes value;
};

/// Decode {kind, value}; nullopt on malformed input.
[[nodiscard]] inline std::optional<KvMsg> decode_kv(std::span<const std::uint8_t> body) {
  Reader r(body);
  const auto kind = r.u8();
  Bytes value = r.bytes();
  if (!r.done() || kind < 1 || kind > 6) return std::nullopt;
  return KvMsg{static_cast<MsgKind>(kind), std::move(value)};
}

/// Zero-copy variant of KvMsg: `value` borrows from the decoded body, so it
/// is valid only while that buffer is alive and unmodified. The tally hot
/// loop uses this to classify messages without one allocation per message.
struct KvView {
  MsgKind kind;
  std::span<const std::uint8_t> value;
};

/// Decode {kind, value} as a view; accepts and rejects exactly the same
/// inputs as decode_kv (the tally differential tests rely on it).
[[nodiscard]] inline std::optional<KvView> decode_kv_view(std::span<const std::uint8_t> body) {
  Reader r(body);
  const auto kind = r.u8();
  const auto value = r.bytes_view();
  if (!r.done() || kind < 1 || kind > 6) return std::nullopt;
  return KvView{static_cast<MsgKind>(kind), value};
}

}  // namespace bsm::broadcast
