// amm_analyze --self-test corpus: determinism-clean patterns — ordered
// iteration, the sorted-copy idiom, an annotated order-insensitive fold,
// and a declaration returning an unordered container (expected: no
// findings).
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace selftest {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

struct Tracker {
  std::unordered_map<u32, u64> seen;
  std::vector<u32> order;

  u64 checkpoint() const {
    // Sorted-copy idiom: canonicalize before iterating.
    std::vector<std::pair<u32, u64>> sorted(seen.begin(), seen.end());
    std::sort(sorted.begin(), sorted.end());
    u64 h = 0;
    for (const auto& [node, seq] : sorted) {
      h = h * 31 + node + seq;
    }
    return h;
  }

  u64 total() const {
    u64 sum = 0;
    // analyze:allow(determinism-taint): commutative sum — order cannot matter
    for (const auto& [node, seq] : seen) {
      sum += seq;
    }
    return sum;
  }

  u64 walk() const {
    u64 h = 0;
    for (const u32 node : order) {
      h = h * 31 + node;
    }
    return h;
  }
};

// A function returning an unordered container is not a container to iterate.
std::unordered_map<int, int> m();

}  // namespace selftest
