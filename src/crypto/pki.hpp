// Idealized public-key infrastructure with unforgeable-by-capability
// signatures.
//
// The paper assumes a trusted setup with a secure digital signature scheme
// and, "for simplicity of presentation", treats signatures as unforgeable.
// We reproduce that idealization: `Pki` is the trusted dealer holding one
// secret per party; a party (honest or byzantine) can only produce
// signatures under its own identity because signing is reachable solely
// through the `Signer` capability handed to that party by the engine.
// Verification is public. Byzantine parties may sign anything they like as
// themselves — exactly the power the paper grants them — but can never
// output a signature that verifies under an honest party's identity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/codec.hpp"
#include "common/types.hpp"

namespace bsm::crypto {

/// A signature tag bound to (signer, message).
struct Signature {
  PartyId signer = kNobody;
  std::uint64_t tag = 0;

  void encode(Writer& w) const {
    w.u32(signer);
    w.u64(tag);
  }
  [[nodiscard]] static Signature decode(Reader& r) {
    Signature s;
    s.signer = r.u32();
    s.tag = r.u64();
    return s;
  }
  [[nodiscard]] bool operator==(const Signature&) const = default;
};

class Signer;

/// Trusted dealer: generates per-party secrets and verifies signatures.
class Pki {
 public:
  Pki(std::uint32_t n, std::uint64_t seed);

  [[nodiscard]] std::uint32_t n() const noexcept { return static_cast<std::uint32_t>(secret_.size()); }

  /// Public verification: does `sig` bind `signer` to `msg`?
  [[nodiscard]] bool verify(PartyId signer, const Bytes& msg, const Signature& sig) const;
  /// verify() for a message known by its fnv1a64 digest: the same verdict
  /// as verify(signer, msg, sig) whenever digest == fnv1a64(msg), for
  /// callers that already hold the digest.
  [[nodiscard]] bool verify_digest(PartyId signer, std::uint64_t digest,
                                   const Signature& sig) const;

  /// Issue the signing capability for `id`. The engine calls this once per
  /// party; nothing else should.
  [[nodiscard]] Signer signer_for(PartyId id) const;

 private:
  friend class Signer;
  [[nodiscard]] std::uint64_t tag_for(PartyId id, std::uint64_t digest) const;

  std::vector<std::uint64_t> secret_;
};

/// Capability to sign under exactly one identity.
class Signer {
 public:
  Signer() = default;

  [[nodiscard]] Signature sign(const Bytes& msg) const;
  [[nodiscard]] PartyId id() const noexcept { return id_; }

 private:
  friend class Pki;
  Signer(const Pki* pki, PartyId id) noexcept : pki_(pki), id_(id) {}

  const Pki* pki_ = nullptr;
  PartyId id_ = kNobody;
};

}  // namespace bsm::crypto
