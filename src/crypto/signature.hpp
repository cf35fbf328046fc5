// Simulated digital signatures for the message-passing substrate (§4).
//
// The paper assumes unforgeable signatures; a production system would use
// Ed25519. Offline we substitute a MAC-based scheme whose unforgeability is
// *enforced by the simulator*: every node's signing key lives inside the
// KeyRegistry and the Byzantine adversary object is only ever handed the
// verify interface plus its own keys. Within the simulation this gives
// existential unforgeability, which is all the ABD-style proofs need
// (documented as a substitution in DESIGN.md §2).
#pragma once

#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "crypto/siphash.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace amm::crypto {

/// A signature over a message digest; valid only relative to the registry
/// that issued the signer's key.
struct Signature {
  NodeId signer;
  u64 tag = 0;

  constexpr auto operator<=>(const Signature&) const = default;
};

/// Issues one secret key per node and performs sign/verify. The registry is
/// a stand-in for a PKI: verification is public (any holder of the registry
/// reference may verify), signing requires naming a node whose key you are
/// entitled to use — the protocol runner only ever passes Byzantine code a
/// SigningHandle for Byzantine nodes.
class KeyRegistry {
 public:
  KeyRegistry(u32 node_count, u64 seed);

  u32 node_count() const { return static_cast<u32>(keys_.size()); }

  /// Signs `digest` with `signer`'s secret key.
  Signature sign(NodeId signer, u64 digest) const;

  /// Verifies that `sig` is `sig.signer`'s signature over `digest`.
  bool verify(u64 digest, const Signature& sig) const;

 private:
  std::vector<SipKey> keys_;
};

/// Capability handle restricting signing to a fixed subset of nodes.
/// Handed to protocol node implementations so that a Byzantine node cannot
/// sign on behalf of a correct node (the unforgeability substitution).
class SigningHandle {
 public:
  SigningHandle(const KeyRegistry& registry, std::vector<NodeId> allowed)
      : registry_(&registry), allowed_(std::move(allowed)) {}

  Signature sign(NodeId as, u64 digest) const {
    AMM_EXPECTS(is_allowed(as));
    return registry_->sign(as, digest);
  }

  bool verify(u64 digest, const Signature& sig) const { return registry_->verify(digest, sig); }

  bool is_allowed(NodeId id) const {
    for (const NodeId a : allowed_) {
      if (a == id) return true;
    }
    return false;
  }

 private:
  const KeyRegistry* registry_;
  std::vector<NodeId> allowed_;
};

/// Order-sensitive digest combiner (not a cryptographic hash; collision
/// resistance against the simulated adversary is provided by the keyed
/// finalization inside sign()).
class DigestBuilder {
 public:
  DigestBuilder& add(u64 word) {
    words_.push_back(word);
    return *this;
  }

  u64 finish() const {
    // Fixed public key: this is a plain hash; secrecy comes from sign().
    return siphash24(SipKey{0x414d4d2064696765ULL, 0x7374206275696c64ULL}, std::span(words_));
  }

 private:
  std::vector<u64> words_;
};

/// Memoizes *successful* verifications so a triple checked twice pays
/// for one registry verification. Keyed by (digest, signer, tag), so a
/// forgery that reuses a verified record's digest with a different signer
/// or tag never hits the cache; negative results are never cached, so
/// forged signatures are re-checked (and re-rejected) every time.
///
/// No node uses it: with the simulated signatures a hit (one SipHash over
/// the key plus a set probe) costs more than the one SipHash of a fresh
/// verify, so AbdNode checks each signature against the registry and
/// skips records it already holds instead. The class stays for
/// perfbench's pb_layers (retired by the next perfbench/ change); it
/// would pay only under a costly scheme such as Ed25519.
///
/// Bounded: entries live in two generations (hot, cold). Admissions go to
/// hot; a cold hit promotes back to hot. When hot exceeds capacity/2 the
/// cold generation is dropped and hot becomes cold — a segmented LRU whose
/// working set survives every rotation while entries untouched for two
/// rotations fall out. Total footprint stays <= ~capacity keys.
class VerifyCache {
 public:
  /// `capacity` bounds hot+cold key count; 0 means unbounded (no rotation
  /// except explicit rotate() calls).
  explicit VerifyCache(const KeyRegistry& registry, usize capacity = kDefaultCapacity)
      : registry_(&registry), capacity_(capacity) {}

  /// Same contract as KeyRegistry::verify, plus memoization of successes.
  /// A hit is a triple that verified before; every miss costs exactly one
  /// registry check.
  bool verify(u64 digest, const Signature& sig) {
    const u64 key = cache_key(digest, sig);
    if (lookup(key)) return true;
    if (!registry_->verify(digest, sig)) return false;
    insert_hot(key);
    return true;
  }

  /// Ages both generations one step: cold is dropped (counted as
  /// evictions), hot becomes cold.
  void rotate() {
    evictions_ += cold_.size();
    cold_ = std::move(hot_);
    hot_.clear();
  }

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u64 evictions() const { return evictions_; }
  usize capacity() const { return capacity_; }
  usize size() const { return hot_.size() + cold_.size(); }

  static constexpr usize kDefaultCapacity = 1u << 16;

 private:
  static u64 cache_key(u64 digest, const Signature& sig) {
    return DigestBuilder{}
        .add(digest)
        .add(static_cast<u64>(sig.signer.index))
        .add(sig.tag)
        .finish();
  }

  /// Cache-only probe: true (counted as a hit) iff this key's triple
  /// verified successfully before; otherwise counted as a miss. A cold hit
  /// is promoted back to hot.
  bool lookup(u64 key) {
    if (hot_.contains(key)) {
      ++hits_;
      return true;
    }
    if (cold_.erase(key) > 0) {
      insert_hot(key);  // promotion: recently useful entries survive rotation
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }

  void insert_hot(u64 key) {
    hot_.insert(key);
    if (capacity_ != 0 && hot_.size() > capacity_ / 2) rotate();
  }

  const KeyRegistry* registry_;
  usize capacity_;
  std::unordered_set<u64> hot_;
  std::unordered_set<u64> cold_;
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 evictions_ = 0;
};

}  // namespace amm::crypto
