// amm_analyze --self-test corpus: nondeterministic value sources feeding
// protocol-visible state (expected: determinism-taint).
#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

namespace selftest {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

struct Tracker {
  std::unordered_map<u32, u64> seen;
  std::map<int*, u32> by_addr;  // VIOLATION: pointer-keyed ordering (ASLR)

  u64 checkpoint() const {
    u64 h = 0;
    // VIOLATION: structured-binding range-for over an unordered container.
    for (const auto& [node, seq] : seen) {
      h = h * 31 + node + seq;
    }
    return h;
  }

  u64 checkpoint_iter() const {
    u64 h = 0;
    // VIOLATION: iterator loop over an unordered container.
    for (auto it = seen.begin(); it != seen.end(); ++it) {
      h = h * 31 + it->first;
    }
    return h;
  }

  void snapshot(std::vector<u64>& out) const {
    // VIOLATION: order-sensitive algorithm fed from unordered begin().
    std::transform(seen.begin(), seen.end(), std::back_inserter(out),
                   [](const auto& kv) { return kv.second; });
  }

  u32 roll() {
    std::mt19937 gen(42);  // VIOLATION: randomness outside support/rng streams
    return static_cast<u32>(gen());
  }
};

int tally() {
  std::unordered_map<int, int> votes;
  int sum = 0;
  // VIOLATION: plain range-for over a local unordered container.
  for (const auto& kv : votes) sum = sum * 31 + kv.second;
  return sum;
}

}  // namespace selftest
