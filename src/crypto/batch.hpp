// A span of signature checks resolved through one VerifyCache.
//
// The node path does not batch: AbdNode verifies each message as it
// handles it (mp/abd.hpp). verify_batch remains only for perfbench's
// pb_layers, which times one event-loop cycle's worth of first-seen
// signatures, and is retired by the next perfbench/ change. Each check
// goes through VerifyCache::verify, so a duplicate triple costs one
// registry check and then hits, and a failure is never cached.
#pragma once

#include <cstddef>
#include <span>

#include "crypto/signature.hpp"

namespace amm::crypto {

/// One signature check. `ok` is the verdict after verify_batch.
struct BatchCheck {
  u64 digest = 0;
  Signature sig;
  bool ok = false;
};

/// Verifies every check in `checks`, setting each `ok` in place. The
/// trailing null argument has no effect: it lets perfbench's call
/// `verify_batch(cache, checks, nullptr)` compile unchanged.
inline void verify_batch(VerifyCache& cache, std::span<BatchCheck> checks,
                         std::nullptr_t /*no_pool*/ = nullptr) {
  for (BatchCheck& check : checks) check.ok = cache.verify(check.digest, check.sig);
}

}  // namespace amm::crypto
