#include "chain/rules.hpp"

#include <algorithm>

namespace amm::chain {

MsgId choose_longest_tip(const BlockGraph& graph, TieBreak rule, Rng& rng) {
  const auto& deepest = graph.deepest_blocks();
  AMM_EXPECTS(!deepest.empty());
  switch (rule) {
    case TieBreak::kDeterministicFirst:
      return deepest.front();
    case TieBreak::kRandomized:
      return deepest[rng.uniform_below(deepest.size())];
  }
  AMM_ASSERT(false);
  return kRootId;
}

namespace {

/// select_pivot by dense position.
std::vector<u32> pivot_positions(const BlockGraph& graph, PivotRule rule) {
  std::vector<u32> pivot;
  if (graph.block_count() == 0) return pivot;

  // The longest-chain rule needs, per block, the deepest depth reachable in
  // its subtree. Reverse topological order visits every child before its
  // parent (parent edges are a subset of reference edges), so each block
  // pushes its reach up one edge. GHOST reads the graph's subtree weights
  // instead and skips this pass.
  std::vector<u32> reach;
  if (rule == PivotRule::kLongestChain) {
    reach.assign(graph.block_count(), 0);
    const std::vector<u32>& topo = graph.topo_positions();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const u32 p = *it;
      reach[p] = std::max(reach[p], graph.depth_at(p));
      const u32 parent = graph.parent_at(p);
      if (parent != BlockGraph::kNoPos) reach[parent] = std::max(reach[parent], reach[p]);
    }
  }
  const auto score = [&](u32 p) {
    return rule == PivotRule::kGhost ? graph.weight_at(p) : reach[p];
  };

  for (std::span<const u32> frontier = graph.children_at(BlockGraph::kNoPos); !frontier.empty();
       frontier = graph.children_at(pivot.back())) {
    u32 best = frontier.front();
    u32 best_score = score(best);
    for (const u32 c : frontier.subspan(1)) {
      const u32 s = score(c);
      if (s > best_score) {  // strict: ties stay with the earliest child
        best = c;
        best_score = s;
      }
    }
    pivot.push_back(best);
  }
  return pivot;
}

}  // namespace

std::vector<MsgId> select_pivot(const BlockGraph& graph, PivotRule rule) {
  const std::vector<u32> positions = pivot_positions(graph, rule);
  std::vector<MsgId> pivot;
  pivot.reserve(positions.size());
  for (const u32 p : positions) pivot.push_back(graph.id_at(p));
  return pivot;
}

std::vector<MsgId> linearize_dag(const BlockGraph& graph, PivotRule rule) {
  const std::vector<u32> pivot = pivot_positions(graph, rule);

  // Epoch assignment: a non-pivot block belongs to the epoch of the first
  // pivot block that (transitively) references it. Walking the global topo
  // order once per pivot step would be quadratic; instead process pivot
  // blocks in order, collecting not-yet-emitted ancestors via DFS over
  // reference edges. An epoch is collected as topo ranks, so sorting it
  // into the global deterministic topo order is a plain integer sort.
  const usize n = graph.block_count();
  const std::vector<MsgId>& topo = graph.topo_order();
  std::vector<u8> emitted(n, 0);
  std::vector<MsgId> order;
  order.reserve(n);
  std::vector<u32> stack;
  std::vector<u32> epoch;
  for (const u32 p : pivot) {
    epoch.clear();
    stack.push_back(p);
    while (!stack.empty()) {
      const u32 cur = stack.back();
      stack.pop_back();
      if (emitted[cur] != 0) continue;
      emitted[cur] = 1;
      epoch.push_back(graph.topo_rank(cur));
      for (const u32 ref : graph.refs_at(cur)) {
        if (emitted[ref] == 0) stack.push_back(ref);
      }
    }
    std::sort(epoch.begin(), epoch.end());
    for (const u32 rank : epoch) order.push_back(topo[rank]);
  }
  // Blocks unreachable from the pivot (withheld side branches nobody
  // referenced) are appended last in topo order, so the output is total.
  const std::vector<u32>& topo_pos = graph.topo_positions();
  for (usize rank = 0; rank < n; ++rank) {
    if (emitted[topo_pos[rank]] == 0) order.push_back(topo[rank]);
  }
  AMM_ENSURES(order.size() == n);
  return order;
}

std::vector<MsgId> first_k_of_chain(const BlockGraph& graph, MsgId tip, usize k) {
  std::vector<MsgId> chain = graph.chain_to(tip);
  if (chain.size() > k) chain.resize(k);
  return chain;
}

i64 vote_sum(const BlockGraph& graph, const std::vector<MsgId>& ids) {
  i64 sum = 0;
  for (const MsgId id : ids) sum += vote_value(graph.msg(id).value);
  return sum;
}

}  // namespace amm::chain
