#include "chain/block_graph.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "am/order.hpp"

namespace amm::chain {
namespace {

/// Grows `v`'s capacity to hold `n` elements, to the next power of two —
/// the capacities push_back would reach, in one allocation instead of
/// log(n). Reserving an exact fit would make the next extend reallocate,
/// and doing so on every extend would turn repeated extension into an
/// O(total) copy per call.
template <typename T>
void reserve_for(std::vector<T>& v, usize n) {
  if (n > v.capacity()) v.reserve(std::bit_ceil(n));
}

}  // namespace

BlockGraph::BlockGraph(u32 authors, std::span<const BlockRecord> records,
                       std::span<const usize> ref_pool)
    : records_built_(true) {
  // Every array is allocated once, at its exact size: a records-built graph
  // never grows. Per-author counts size the dense index.
  index_.resize(authors);
  {
    std::vector<u32> per_author(authors, 0);
    for (const BlockRecord& r : records) {
      AMM_EXPECTS(r.id.author < authors);
      ++per_author[r.id.author];
    }
    for (u32 a = 0; a < authors; ++a) index_[a].reserve(per_author[a]);
  }
  nodes_.reserve(records.size());
  ref_pos_.resize(ref_pool.size());
  ref_ids_.resize(ref_pool.size());

  // Record i becomes position i and keeps its slots of the pool.
  // References are positions already, each of an earlier record whose
  // depth is settled, so parent and depth come straight from refs[0].
  for (usize i = 0; i < records.size(); ++i) {
    const BlockRecord& r = records[i];
    AMM_EXPECTS(i == 0 || r.time >= records[i - 1].time);
    AMM_EXPECTS(r.ref_off + r.ref_count <= ref_pool.size());
    add_node(r.id, r.time, r.ref_off);
    Node& n = nodes_.back();
    for (usize j = r.ref_off; j < r.ref_off + r.ref_count; ++j) {
      const usize q = ref_pool[j];
      AMM_EXPECTS(q < i);
      ref_pos_[j] = static_cast<u32>(q);
      ref_ids_[j] = nodes_[q].id;
    }
    n.ref_count = static_cast<u32>(r.ref_count);
    n.parent = r.ref_count == 0 ? kNoPos : ref_pos_[r.ref_off];
    n.depth = r.ref_count == 0 ? 1 : nodes_[n.parent].depth + 1;
  }

  // Canonical (appended_at, id) order. Append times never decrease, so the
  // records are in that order except inside a run of equal times, where
  // blocks of different authors can come against id order (a runner may
  // append a block of author 5 and then one of author 2 at the same
  // instant). Sorting each such run restores it.
  order_.resize(records.size());
  std::iota(order_.begin(), order_.end(), 0u);
  for (usize lo = 0, hi = 0; lo < order_.size(); lo = hi) {
    hi = lo + 1;
    while (hi < order_.size() && nodes_[hi].time == nodes_[lo].time) ++hi;
    if (hi - lo > 1) {
      std::sort(order_.begin() + static_cast<std::ptrdiff_t>(lo),
                order_.begin() + static_cast<std::ptrdiff_t>(hi),
                [this](u32 a, u32 b) { return key_less(a, b); });
    }
  }
  recompute_frontier();
}

void BlockGraph::add_node(MsgId id, SimTime time, usize ref_off) {
  AMM_EXPECTS(index_[id.author].size() == id.seq);
  index_[id.author].push_back(static_cast<u32>(nodes_.size()));
  Node n;
  n.id = id;
  n.time = time;
  n.ref_off = static_cast<u32>(ref_off);
  nodes_.push_back(n);
}

void BlockGraph::extend(const MemoryView& newer) {
  AMM_EXPECTS(!records_built_);
  AMM_EXPECTS(newer.valid());
  if (!view_.valid()) {
    // First extension binds the graph to the view's memory.
    view_ = MemoryView(&newer.memory(), std::vector<u32>(newer.register_count(), 0));
    index_.resize(newer.register_count());
  }
  AMM_EXPECTS(&view_.memory() == &newer.memory());
  AMM_EXPECTS(view_.subset_of(newer));

  // Only the newly visible messages, in canonical (appended_at, id) order —
  // a k-way merge over the per-register delta ranges.
  const std::vector<MsgId> delta =
      am::merge_append_order(newer.memory(), view_.lens(), newer.lens());
  view_ = newer;
  if (delta.empty()) return;

  // Pass 1: create nodes, dense index entries and reference-pool slots.
  // Within one register the delta arrives in sequence order, so the
  // per-author index grows by push_back.
  const usize first_new = nodes_.size();
  for (u32 a = 0; a < index_.size(); ++a) reserve_for(index_[a], view_.register_len(a));
  reserve_for(nodes_, first_new + delta.size());
  reserve_for(order_, first_new + delta.size());
  usize pool = ref_pos_.size();
  for (const MsgId id : delta) {
    const Message& m = view_.msg(id);
    add_node(id, m.appended_at, pool);
    pool += m.refs.size();
  }
  reserve_for(ref_pos_, pool);
  reserve_for(ref_ids_, pool);
  ref_pos_.resize(pool);
  ref_ids_.resize(pool);

  // Canonical order: the old prefix and the delta are each sorted, so a
  // single in-place merge restores the invariant. The common case (all new
  // messages later than everything seen) is a pure append.
  const usize old_order = order_.size();
  for (usize p = first_new; p < nodes_.size(); ++p) order_.push_back(static_cast<u32>(p));
  if (old_order != 0 && key_less(order_[old_order], order_[old_order - 1])) {
    std::inplace_merge(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(old_order),
                       order_.end(), [this](u32 a, u32 b) { return key_less(a, b); });
  }

  // Pass 2: resolve the new nodes' references. References outside the view
  // (a Byzantine message may cite an append this observer has not seen) are
  // parked in pending_; such a block hangs off the root until the target
  // becomes visible.
  for (usize p = first_new; p < nodes_.size(); ++p) {
    nodes_[p].parent = resolve_refs(static_cast<u32>(p), /*park=*/true);
  }

  // Pass 3: wake waiters whose awaited target just became visible. The
  // parent is the *first visible* reference, so a late-revealed earlier
  // reference can reparent an existing block — exactly what a from-scratch
  // build of the larger view would have done.
  bool reparented = false;
  for (usize i = 0; i < delta.size() && !pending_.empty(); ++i) {
    const auto it = pending_.find(delta[i]);
    if (it == pending_.end()) continue;
    for (const u32 wp : it->second) {
      const u32 new_parent = resolve_refs(wp, /*park=*/false);
      if (new_parent != nodes_[wp].parent) {
        nodes_[wp].parent = new_parent;
        reparented = true;
      }
    }
    pending_.erase(it);
  }

  if (reparented) {
    // Reparenting cascades through depths; recompute wholesale (cold path —
    // requires a Byzantine dangling reference resolved late).
    for (Node& n : nodes_) n.depth = 0;
    settle_depths(0);
    recompute_frontier();
  } else {
    settle_depths(first_new);
    // Frontier update, keeping deepest_ in append-time order (a new block
    // at the frontier lands at the end; a late-revealed equal-depth block
    // slots into position).
    for (usize i = first_new; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      if (n.depth > max_depth_) {
        max_depth_ = n.depth;
        deepest_.clear();
      }
      if (n.depth != max_depth_) continue;
      const auto before = [this](MsgId a, MsgId b) {
        return key_less(static_cast<u32>(index_of(a)), static_cast<u32>(index_of(b)));
      };
      if (deepest_.empty() || before(deepest_.back(), n.id)) {
        deepest_.push_back(n.id);
      } else {
        deepest_.insert(std::lower_bound(deepest_.begin(), deepest_.end(), n.id, before), n.id);
      }
    }
  }

  topo_valid_ = false;
  weights_valid_ = false;
  children_valid_ = false;
}

u32 BlockGraph::resolve_refs(u32 pos, bool park) {
  Node& n = nodes_[pos];
  u32 count = 0;
  for (const MsgId ref : view_.msg(n.id).refs) {
    if (view_.contains(ref)) {
      ref_pos_[n.ref_off + count] = index_[ref.author][ref.seq];
      ref_ids_[n.ref_off + count] = ref;
      ++count;
    } else if (park) {
      pending_[ref].push_back(pos);
    }
  }
  n.ref_count = count;
  return count == 0 ? kNoPos : ref_pos_[n.ref_off];
}

void BlockGraph::settle_depths(usize from) {
  // Iterative (chains can be long): climb to the first settled ancestor,
  // then assign depths on the way back down. A parent is either settled or
  // reachable this way; the stack is only used when a parent is unsettled.
  std::vector<u32> stack;
  for (usize i = from; i < nodes_.size(); ++i) {
    if (nodes_[i].depth != 0) continue;
    u32 cur = static_cast<u32>(i);
    while (nodes_[cur].parent != kNoPos && nodes_[nodes_[cur].parent].depth == 0) {
      stack.push_back(cur);
      cur = nodes_[cur].parent;
    }
    for (;;) {
      const u32 p = nodes_[cur].parent;
      nodes_[cur].depth = p == kNoPos ? 1 : nodes_[p].depth + 1;
      if (stack.empty()) break;
      cur = stack.back();
      stack.pop_back();
    }
  }
}

void BlockGraph::recompute_frontier() {
  max_depth_ = 0;
  for (const Node& n : nodes_) max_depth_ = std::max(max_depth_, n.depth);
  deepest_.clear();
  for (const u32 p : order_) {
    if (nodes_[p].depth == max_depth_) deepest_.push_back(nodes_[p].id);
  }
}

void BlockGraph::build_topo() const {
  // Deterministic topological order over all visible ref edges: Kahn, with
  // the ready set processed in append order through a FIFO seeded in
  // canonical order. The FIFO is topo_pos_ itself — every block enters it
  // once, in exactly the order it leaves.
  const usize n = nodes_.size();
  std::vector<u32> in_degree(n);
  std::vector<u32> off(n + 1, 0);  // referrer CSR: ref -> referrers
  for (usize p = 0; p < n; ++p) {
    in_degree[p] = nodes_[p].ref_count;
    for (const u32 q : refs_at(static_cast<u32>(p))) ++off[q + 1];
  }
  for (usize q = 0; q < n; ++q) off[q + 1] += off[q];
  std::vector<u32> referrers(off[n]);
  std::vector<u32> cursor(off.begin(), off.end() - 1);
  for (const u32 p : order_) {  // each list in append order
    for (const u32 q : refs_at(p)) referrers[cursor[q]++] = p;
  }

  topo_pos_.clear();
  topo_pos_.reserve(n);
  for (const u32 p : order_) {
    if (in_degree[p] == 0) topo_pos_.push_back(p);
  }
  for (usize head = 0; head < topo_pos_.size(); ++head) {
    const u32 p = topo_pos_[head];
    for (u32 e = off[p]; e < off[p + 1]; ++e) {
      if (--in_degree[referrers[e]] == 0) topo_pos_.push_back(referrers[e]);
    }
  }
  AMM_ENSURES(topo_pos_.size() == n);  // views are acyclic by construction

  topo_.resize(n);
  topo_rank_.resize(n);
  for (usize i = 0; i < n; ++i) {
    topo_[i] = nodes_[topo_pos_[i]].id;
    topo_rank_[topo_pos_[i]] = static_cast<u32>(i);
  }
  topo_valid_ = true;
}

void BlockGraph::build_weights() const {
  // GHOST weights, accumulated bottom-up in reverse topological order:
  // parent edges are reference edges, so every child is folded into its
  // parent before the parent is folded into its own.
  const std::vector<u32>& topo = topo_positions();
  weights_.assign(nodes_.size(), 1);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const u32 parent = nodes_[*it].parent;
    if (parent != kNoPos) weights_[parent] += weights_[*it];
  }
  weights_valid_ = true;
}

void BlockGraph::build_children() const {
  // Parent-edge child lists as one CSR array (bucket block_count() is the
  // root's), each filled in append order.
  const usize n = nodes_.size();
  child_off_.assign(n + 2, 0);
  for (const Node& node : nodes_) ++child_off_[bucket(node.parent) + 1];
  for (usize b = 0; b <= n; ++b) child_off_[b + 1] += child_off_[b];
  std::vector<u32> cursor(child_off_.begin(), child_off_.end() - 1);
  child_pos_.resize(n);
  child_ids_.resize(n);
  for (const u32 p : order_) {
    const u32 slot = cursor[bucket(nodes_[p].parent)]++;
    child_pos_[slot] = p;
    child_ids_[slot] = nodes_[p].id;
  }
  children_valid_ = true;
}

std::vector<MsgId> BlockGraph::tips() const {
  std::vector<u8> referenced(nodes_.size(), 0);
  for (usize p = 0; p < nodes_.size(); ++p) {
    for (const u32 q : refs_at(static_cast<u32>(p))) referenced[q] = 1;
  }
  std::vector<MsgId> result;
  for (const u32 p : order_) {
    if (referenced[p] == 0) result.push_back(nodes_[p].id);
  }
  return result;
}

std::vector<MsgId> BlockGraph::chain_to(MsgId tip) const {
  std::vector<MsgId> chain;
  if (tip == kRootId) return chain;
  for (u32 cur = static_cast<u32>(index_of(tip)); cur != kNoPos; cur = nodes_[cur].parent) {
    chain.push_back(nodes_[cur].id);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace amm::chain
