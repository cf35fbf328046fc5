// Golden digests of the BlockGraph analytics: the topological order, the
// GHOST weights, both pivot rules and both linearizations, each folded into
// one FNV-1a digest per fixed input history. A DAG's total order is a
// deterministic function of the DAG, so any change to the graph's data
// layout must leave every digest unchanged. The expected values were
// recorded from a build of the node-vector BlockGraph (per-node heap
// vectors, vector-of-vectors referrer lists, a deque FIFO and a depth sort
// for the weights), before the flat-pool layout replaced it.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "chain/block_graph.hpp"
#include "chain/rules.hpp"
#include "support/rng.hpp"

namespace amm::chain {
namespace {

using am::AppendMemory;
using am::MemoryView;

/// FNV-1a over a sequence of 32-bit words.
class Fnv {
 public:
  void add(u32 word) {
    for (int b = 0; b < 4; ++b) {
      h_ ^= (word >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(MsgId id) {
    add(id.author);
    add(id.seq);
  }
  void add(std::span<const MsgId> ids) {
    add(static_cast<u32>(ids.size()));
    for (const MsgId id : ids) add(id);
  }
  u64 value() const { return h_; }

 private:
  u64 h_ = 0xcbf29ce484222325ULL;
};

/// One digest per analytics output.
struct Digests {
  u64 topo = 0;
  u64 weights = 0;
  u64 pivot_ghost = 0;
  u64 pivot_longest = 0;
  u64 linearize_ghost = 0;
  u64 linearize_longest = 0;

  bool operator==(const Digests&) const = default;
};

/// Folds the analytics of `g` into the running digests `f` (one Fnv per
/// field, in Digests order).
void fold(const BlockGraph& g, Fnv (&f)[6]) {
  const std::vector<MsgId>& topo = g.topo_order();
  f[0].add(topo);
  f[1].add(static_cast<u32>(topo.size()));
  for (const MsgId id : topo) f[1].add(g.subtree_weight(id));
  f[2].add(select_pivot(g, PivotRule::kGhost));
  f[3].add(select_pivot(g, PivotRule::kLongestChain));
  f[4].add(linearize_dag(g, PivotRule::kGhost));
  f[5].add(linearize_dag(g, PivotRule::kLongestChain));
}

Digests finish(const Fnv (&f)[6]) {
  return {f[0].value(), f[1].value(), f[2].value(), f[3].value(), f[4].value(), f[5].value()};
}

Digests digest(const BlockGraph& g) {
  Fnv f[6];
  fold(g, f);
  return finish(f);
}

void expect_digests(const Digests& got, const Digests& want) {
  EXPECT_EQ(got, want) << std::hex << "got {0x" << got.topo << "ULL, 0x" << got.weights
                       << "ULL, 0x" << got.pivot_ghost << "ULL, 0x" << got.pivot_longest
                       << "ULL, 0x" << got.linearize_ghost << "ULL, 0x"
                       << got.linearize_longest << "ULL}";
}

/// bench_hotpath's history: each append references 1–3 distinct blocks
/// among the 8 most recent, timestamps strictly increasing.
AppendMemory hotpath_history(u32 n, u32 history, u64 seed) {
  AppendMemory memory(n);
  Rng rng(seed);
  std::vector<MsgId> all;
  all.reserve(history);
  for (u32 i = 0; i < history; ++i) {
    std::vector<MsgId> refs;
    if (!all.empty()) {
      const u32 want = 1 + static_cast<u32>(rng.uniform_below(3));
      for (u32 r = 0; r < want; ++r) {
        const MsgId pick = all[all.size() - 1 - rng.uniform_below(std::min<usize>(all.size(), 8))];
        if (std::find(refs.begin(), refs.end(), pick) == refs.end()) refs.push_back(pick);
      }
    }
    all.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(n))}, Vote::kPlus,
                                /*payload=*/0, std::move(refs), static_cast<SimTime>(i + 1)));
  }
  return memory;
}

/// dag_ba's shape: every block references all tips of a view lagging 6–16
/// appends behind, the deepest tip (ties toward the oldest) first — about
/// ten references per block.
AppendMemory dag_ba_history(u32 n, u32 blocks, u64 seed) {
  AppendMemory memory(n);
  Rng rng(seed);
  std::vector<MsgId> ids;
  std::vector<u32> depth;
  std::vector<u32> first_referrer;  // append index of the first referrer
  for (u32 i = 0; i < blocks; ++i) {
    const u32 lag = 6 + static_cast<u32>(rng.uniform_below(11));
    const u32 horizon = i > lag ? i - lag : 0;
    std::vector<u32> tips;
    for (u32 j = horizon > 64 ? horizon - 64 : 0; j < horizon; ++j) {
      if (first_referrer[j] >= horizon) tips.push_back(j);
    }
    u32 d = 1;
    if (!tips.empty()) {
      usize best = 0;
      for (usize t = 1; t < tips.size(); ++t) {
        if (depth[tips[t]] > depth[tips[best]]) best = t;
      }
      std::swap(tips[0], tips[best]);
      d = depth[tips[0]] + 1;
    }
    std::vector<MsgId> refs;
    for (const u32 t : tips) {
      refs.push_back(ids[t]);
      first_referrer[t] = std::min(first_referrer[t], i);
    }
    const Vote vote = rng.bernoulli(0.3) ? Vote::kMinus : Vote::kPlus;
    ids.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(n))}, vote,
                                /*payload=*/0, std::move(refs), static_cast<SimTime>(i + 1)));
    depth.push_back(d);
    first_referrer.push_back(~u32{0});
  }
  return memory;
}

TEST(BlockGraphGolden, HotpathHistory1000) {
  const AppendMemory memory = hotpath_history(8, 1000, 20200717);
  expect_digests(digest(BlockGraph(memory.read())),
                 {0xd020e6d29acc2182ULL, 0xb4baed5f64a6ac22ULL, 0x817c4f730529a8cULL, 0xa66d8f738de5f238ULL,
                  0x114cbeadf2f68c22ULL, 0x1ecda8fdb5b93a82ULL});
}

TEST(BlockGraphGolden, HotpathHistory10000) {
  const AppendMemory memory = hotpath_history(8, 10000, 20200717);
  expect_digests(digest(BlockGraph(memory.read())),
                 {0xf9ef55b6c931b4e0ULL, 0xfee0cf655a3effeaULL, 0xbaf7d85c5008c809ULL, 0xbaf7d85c5008c809ULL,
                  0xc802cc0189e60908ULL, 0xc802cc0189e60908ULL});
}

TEST(BlockGraphGolden, DagBaShapedHistory) {
  const AppendMemory memory = dag_ba_history(20, 1001, 7);
  const BlockGraph g(memory.read());
  usize refs = 0;
  for (const MsgId id : g.topo_order()) refs += g.refs(id).size();
  EXPECT_GE(refs, 9 * g.block_count());  // the ~10-refs-per-block shape holds
  expect_digests(digest(g), {0xe8ba0e44d07fa87dULL, 0x7b6df325b1f0d53ULL, 0x3f372025683e646aULL, 0x3f372025683e646aULL,
                  0xc8f84ab45f2f0bdULL, 0xc8f84ab45f2f0bdULL});
}

TEST(BlockGraphGolden, GrowingViewsThroughPendingAndReparenting) {
  // Random DAG trace over 5 registers; each view advances the registers
  // independently, so a message is often visible before the blocks it
  // references (parked as pending) and is reparented once they appear.
  Rng rng(20200715);
  constexpr u32 kN = 5;
  AppendMemory memory(kN);
  std::vector<MsgId> ids;
  SimTime now = 0.0;
  for (int i = 0; i < 400; ++i) {
    now += 0.25 * static_cast<double>(1 + rng.uniform_below(4));
    std::vector<MsgId> refs;
    if (!ids.empty()) {
      const usize want = rng.uniform_below(4);
      for (usize r = 0; r < want; ++r) {
        const MsgId cand = ids[ids.size() - 1 - rng.uniform_below(std::min<usize>(ids.size(), 24))];
        if (std::find(refs.begin(), refs.end(), cand) == refs.end()) refs.push_back(cand);
      }
    }
    ids.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(kN))}, Vote::kPlus,
                                /*payload=*/0, std::move(refs), now));
  }

  const std::vector<u32> full = memory.read().lens();
  std::vector<u32> cur(kN, 0);
  BlockGraph inc;
  Fnv f[6];
  usize reparented = 0;
  while (cur != full) {
    for (u32 r = 0; r < kN; ++r) {
      if (cur[r] < full[r] && !rng.bernoulli(0.4)) {
        cur[r] = std::min(full[r], cur[r] + 1 + static_cast<u32>(rng.uniform_below(6)));
      }
    }
    std::vector<MsgId> rooted;  // visible blocks that reference something but hang off the root
    for (const MsgId id : inc.topo_order()) {
      if (inc.parent(id) == kRootId && !inc.msg(id).refs.empty()) rooted.push_back(id);
    }
    inc.extend(MemoryView(&memory, cur));
    for (const MsgId id : rooted) {
      if (inc.parent(id) != kRootId) ++reparented;
    }
    fold(inc, f);
  }
  EXPECT_GT(reparented, 0u);  // the late-reveal path really ran
  expect_digests(finish(f), {0xd054ed7c65d403fcULL, 0x338e52bf1672a1edULL, 0xcd8fc6999db5362aULL, 0x84ea5105879d4ee3ULL,
                  0x773f4ae6499cb05cULL, 0xb131cff5d56839fcULL});
}

}  // namespace
}  // namespace amm::chain
