#include "crypto/pki.hpp"

#include "common/hash.hpp"

namespace bsm::crypto {

Pki::Pki(std::uint32_t n, std::uint64_t seed) {
  secret_.reserve(n);
  std::uint64_t s = splitmix64(seed ^ 0xb5b5b5b5ULL);
  for (std::uint32_t i = 0; i < n; ++i) {
    s = splitmix64(s + i);
    secret_.push_back(s);
  }
}

std::uint64_t Pki::tag_for(PartyId id, std::uint64_t digest) const {
  require(id < secret_.size(), "Pki::tag_for: unknown party");
  // HMAC-shaped: mix the secret in twice, around the message digest, so the
  // tag is not a simple function of the digest alone.
  const std::uint64_t inner = hash_combine(secret_[id], digest);
  return hash_combine(inner, secret_[id] ^ 0x5c5c5c5c5c5c5c5cULL);
}

bool Pki::verify(PartyId signer, const Bytes& msg, const Signature& sig) const {
  return verify_digest(signer, fnv1a64(msg), sig);
}

bool Pki::verify_digest(PartyId signer, std::uint64_t digest, const Signature& sig) const {
  if (signer >= secret_.size() || sig.signer != signer) return false;
  return sig.tag == tag_for(signer, digest);
}

Signer Pki::signer_for(PartyId id) const {
  require(id < secret_.size(), "Pki::signer_for: unknown party");
  return Signer{this, id};
}

Signature Signer::sign(const Bytes& msg) const {
  require(pki_ != nullptr, "Signer: default-constructed signer cannot sign");
  return Signature{id_, pki_->tag_for(id_, fnv1a64(msg))};
}

}  // namespace bsm::crypto
