// crypto::VerifyCache and crypto::verify_batch: the memo is keyed by the
// whole (digest, signer, tag) triple, caches only successes, is bounded
// by generation rotation, and a batch is one cache verify per check.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/batch.hpp"
#include "crypto/signature.hpp"

namespace amm::crypto {
namespace {

constexpr u32 kNodes = 4;

TEST(VerifyCache, ForgedTagRejectedEveryTimeAndNeverCached) {
  const KeyRegistry keys(kNodes, 1);
  VerifyCache cache(keys);
  Signature forged = keys.sign(NodeId{1}, 42);
  forged.tag ^= 1;
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_FALSE(cache.verify(42, forged)) << "attempt " << attempt;
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 3u);  // each rejection was a fresh registry check

  // The genuine signature still verifies, and only it is cached.
  EXPECT_TRUE(cache.verify(42, keys.sign(NodeId{1}, 42)));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.verify(42, forged));
}

TEST(VerifyCache, SameDigestUnderAnotherSignerOrTagMisses) {
  const KeyRegistry keys(kNodes, 1);
  VerifyCache cache(keys);
  const Signature sig = keys.sign(NodeId{0}, 7);
  ASSERT_TRUE(cache.verify(7, sig));
  ASSERT_TRUE(cache.verify(7, sig));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Another signer's genuine signature over the same digest: a new entry.
  EXPECT_TRUE(cache.verify(7, keys.sign(NodeId{2}, 7)));
  EXPECT_EQ(cache.misses(), 2u);
  // The cached signer with a tampered tag, or the cached tag claimed by
  // another signer: misses, and the registry rejects both.
  Signature tampered = sig;
  tampered.tag ^= 0x80;
  EXPECT_FALSE(cache.verify(7, tampered));
  Signature swapped = sig;
  swapped.signer = NodeId{3};
  EXPECT_FALSE(cache.verify(7, swapped));
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(VerifyCache, RotateAgesEntriesOutAfterTwoGenerations) {
  const KeyRegistry keys(kNodes, 1);
  VerifyCache cache(keys, /*capacity=*/0);  // unbounded: only rotate() ages
  const Signature sig = keys.sign(NodeId{1}, 5);
  ASSERT_TRUE(cache.verify(5, sig));
  cache.rotate();                      // hot -> cold
  EXPECT_TRUE(cache.verify(5, sig));   // cold hit, promoted back to hot
  EXPECT_EQ(cache.hits(), 1u);
  cache.rotate();                      // hot -> cold
  cache.rotate();                      // cold dropped
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.verify(5, sig));  // verifies again, as a miss
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(VerifyCache, CapacityBoundsTheFootprint) {
  const KeyRegistry keys(kNodes, 1);
  constexpr usize kCapacity = 4;
  VerifyCache cache(keys, kCapacity);
  // Hot rotates once it exceeds capacity/2, so six first-seen digests
  // rotate twice: the first three are evicted, the last three stay cold.
  // Hot never holds more than capacity/2 keys and cold one more.
  for (u64 digest = 0; digest < 6; ++digest) {
    ASSERT_TRUE(cache.verify(digest, keys.sign(NodeId{0}, digest)));
    EXPECT_LE(cache.size(), kCapacity + 1);
  }
  EXPECT_EQ(cache.evictions(), 3u);
  EXPECT_TRUE(cache.verify(0, keys.sign(NodeId{0}, 0)));  // aged out: a miss
  EXPECT_TRUE(cache.verify(5, keys.sign(NodeId{0}, 5)));  // still cold: a hit
  EXPECT_EQ(cache.misses(), 7u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(VerifyBatch, DuplicateInsideOneBatchCostsOneMiss) {
  const KeyRegistry keys(kNodes, 1);
  VerifyCache cache(keys);
  const Signature a = keys.sign(NodeId{0}, 10);
  const Signature b = keys.sign(NodeId{1}, 11);
  std::vector<BatchCheck> checks{{10, a, false}, {11, b, false}, {10, a, false}};
  verify_batch(cache, checks);
  for (const BatchCheck& check : checks) EXPECT_TRUE(check.ok);
  EXPECT_EQ(cache.misses(), 2u);  // one registry check per distinct triple
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(VerifyBatch, NullPoolCallShapeFillsEveryVerdict) {
  const KeyRegistry keys(kNodes, 1);
  VerifyCache cache(keys);
  std::vector<BatchCheck> checks;
  for (u64 digest = 0; digest < 8; ++digest) {
    Signature sig = keys.sign(NodeId{static_cast<u32>(digest % kNodes)}, digest);
    if (digest % 3 == 0) sig.tag ^= 1;  // every third check is forged
    checks.push_back(BatchCheck{digest, sig, /*ok=*/digest % 3 == 0});  // the wrong verdict
  }
  verify_batch(cache, checks, nullptr);
  for (u64 digest = 0; digest < 8; ++digest) {
    EXPECT_EQ(checks[digest].ok, digest % 3 != 0) << "digest " << digest;
  }
  EXPECT_EQ(cache.size(), 5u);  // only the genuine signatures were cached
}

}  // namespace
}  // namespace amm::crypto
