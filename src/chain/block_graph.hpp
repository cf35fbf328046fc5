// Interprets a MemoryView as a block graph.
//
// Every message references earlier appends; the first reference acts as the
// *parent edge* (the chain/pivot structure), any further references are
// inclusion edges (the DAG structure, as in inclusive blockchains /
// Conflux). Messages with no references attach to a virtual root — the
// paper's "dummy append, e.g. the empty state of the memory" (§5.3).
//
// Views of the append memory form a lattice and only ever grow (§2, §5.3),
// so the graph is *incrementally extendable*: `extend(newer)` ingests only
// the messages of `newer` that the current view does not contain, instead
// of reconstructing the whole graph. Protocols that observe a growing view
// carry one graph across rounds; an extension costs O(delta) for the graph
// structure, while the order-dependent analytics (GHOST weights, the
// deterministic topological order, the parent-edge child lists) are
// recomputed lazily on first access after a change. Extending to view V
// yields a graph bit-identical to `BlockGraph(V)` built from scratch — the
// property tests assert this.
//
// Layout. Blocks live at dense positions (ingestion order, stable across
// extends); every edge is stored as a position, so the analytics index flat
// arrays and never hash or chase per-block heap vectors. A block's node is
// a fixed 32-byte record (id, time, parent position, depth, and an offset
// and count into one shared reference pool). The pool reserves each block
// its message's full reference count, so a late-revealed reference is
// resolved in place. The lazy analytics are compressed-sparse-row arrays
// built by counting sort: referrers per block (for Kahn's topological
// order, filled in append order with a vector FIFO) and parent-edge
// children per block (append order; one extra bucket for the root). GHOST
// weights accumulate in reverse topological order — parent edges are a
// subset of reference edges, so every child precedes its parent there.
// MsgId mirrors of the reference pool, the child lists and the order back
// the id-valued accessors.
//
// A graph can also be built straight from a Monte-Carlo runner's
// append-ordered records (BlockRecord), with no memory behind it: position
// i is record i, every reference is already a position, so parents and
// depths are read off in one pass and each array is allocated once at its
// exact size. Such a graph has no view; it cannot be extended and holds no
// messages.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "am/memory.hpp"
#include "support/assert.hpp"

namespace amm::chain {

using am::MemoryView;
using am::Message;
using am::MsgId;

/// Sentinel id for the virtual root block.
inline constexpr MsgId kRootId{~u32{0}, ~u32{0}};

/// One block of a runner's records, for BlockGraph's records constructor:
/// its id, its append time and its references, which are positions of
/// earlier records stored in a shared pool, the parent first.
struct BlockRecord {
  MsgId id;
  SimTime time = 0.0;
  usize ref_off = 0;    ///< this block's references in the pool ...
  usize ref_count = 0;  ///< ... and how many there are
};

class BlockGraph {
 public:
  /// Position of the virtual root in the positional accessors.
  static constexpr u32 kNoPos = ~u32{0};

  /// An empty graph; bound to a memory by the first extend().
  BlockGraph() = default;

  /// Builds the graph of every message visible in `view`. O(messages·log
  /// registers + refs).
  explicit BlockGraph(const MemoryView& view) { extend(view); }

  /// Builds the graph of `records`, given in append order, over `authors`
  /// registers; `ref_pool` holds the references the records point into.
  /// The records must be appends a memory would accept: authors in range,
  /// per-author seqs 0, 1, 2, ..., append times non-decreasing, references
  /// to earlier records only. Record i is position i. Every id-valued
  /// accessor and analytic is bit-identical to BlockGraph(memory.read())
  /// for a memory holding the same appends. O(records + refs), plus a sort
  /// of each run of records with equal append times.
  BlockGraph(u32 authors, std::span<const BlockRecord> records, std::span<const usize> ref_pool);

  /// Ingests every message visible in `newer` but not in the current view.
  /// `newer` must be a superset view of the same memory (views only grow).
  /// Postcondition: *this is bit-identical to BlockGraph(newer). Not
  /// available on a records-built graph.
  void extend(const MemoryView& newer);

  usize block_count() const { return nodes_.size(); }  // excludes the root

  bool contains(MsgId id) const {
    return id.author < index_.size() && id.seq < index_[id.author].size();
  }

  /// Dense position of `id` in [0, block_count()): MsgId = (author, seq) is
  /// a perfect 2D index, so the lookup is two array loads — no hashing.
  /// Positions are stable across extend() calls.
  usize index_of(MsgId id) const {
    AMM_EXPECTS(contains(id));
    return index_[id.author][id.seq];
  }

  /// The block at dense position `pos` (inverse of index_of).
  MsgId id_at(usize pos) const { return nodes_[pos].id; }

  /// Parent in the chain sense (first reference), kRootId for ref-less
  /// messages. Unseen parents (possible for Byzantine messages referencing
  /// appends outside this view) also map to kRootId.
  MsgId parent(MsgId id) const {
    const u32 p = node(id).parent;
    return p == kNoPos ? kRootId : nodes_[p].id;
  }

  /// Depth = distance from the virtual root along parent edges (root = 0).
  u32 depth(MsgId id) const { return node(id).depth; }

  /// Number of blocks in the subtree rooted at `id` (including itself)
  /// under parent edges — the GHOST weight.
  u32 subtree_weight(MsgId id) const { return weight_at(static_cast<u32>(index_of(id))); }

  /// Children along parent edges, in append-time order.
  std::span<const MsgId> children(MsgId id) const {
    return child_ids(static_cast<u32>(index_of(id)));
  }
  std::span<const MsgId> root_children() const { return child_ids(kNoPos); }

  /// All references of `id` that are visible in the view (parent included).
  std::span<const MsgId> refs(MsgId id) const {
    const Node& n = node(id);
    return {ref_ids_.data() + n.ref_off, n.ref_count};
  }

  /// The message of block `id` (not on a records-built graph).
  const Message& msg(MsgId id) const {
    AMM_EXPECTS(!records_built_);
    return view_.msg(id);
  }

  /// Maximum depth over all blocks (0 if the view is empty).
  u32 max_depth() const { return max_depth_; }

  /// All blocks at maximal depth, in append-time order — the set C of "last
  /// states in the longest chains" of Algorithm 5.
  const std::vector<MsgId>& deepest_blocks() const { return deepest_; }

  /// Blocks never referenced by any other visible block (so without
  /// parent-edge children either), in append-time order — the DAG tips
  /// Algorithm 6 appends to.
  std::vector<MsgId> tips() const;

  /// The chain from the root to `tip` (root excluded), oldest first.
  std::vector<MsgId> chain_to(MsgId tip) const;

  /// Blocks in a deterministic topological order (parents and referenced
  /// blocks before referrers; ties by append order).
  const std::vector<MsgId>& topo_order() const {
    if (!topo_valid_) build_topo();
    return topo_;
  }

  // Positional accessors: the same graph by dense position, for the hot
  // decision rules (chain/rules.cpp). kNoPos stands for the virtual root.

  u32 parent_at(u32 pos) const { return nodes_[pos].parent; }
  u32 depth_at(u32 pos) const { return nodes_[pos].depth; }
  std::span<const u32> refs_at(u32 pos) const {
    const Node& n = nodes_[pos];
    return {ref_pos_.data() + n.ref_off, n.ref_count};
  }
  /// Parent-edge children of `pos` (kNoPos: the root's), append-time order.
  std::span<const u32> children_at(u32 pos) const {
    if (!children_valid_) build_children();
    const usize b = bucket(pos);
    return {child_pos_.data() + child_off_[b], child_off_[b + 1] - child_off_[b]};
  }
  /// topo_order() as positions.
  const std::vector<u32>& topo_positions() const {
    if (!topo_valid_) build_topo();
    return topo_pos_;
  }
  /// Index of block `pos` in topo_order().
  u32 topo_rank(u32 pos) const {
    if (!topo_valid_) build_topo();
    return topo_rank_[pos];
  }
  u32 weight_at(u32 pos) const {
    if (!weights_valid_) build_weights();
    return weights_[pos];
  }

 private:
  struct Node {
    MsgId id;
    SimTime time = 0.0;  // appended_at, cached for order keys
    u32 parent = kNoPos;
    u32 depth = 0;
    u32 ref_off = 0;    // this block's slots in ref_pos_/ref_ids_ ...
    u32 ref_count = 0;  // ... of which the first ref_count are visible
  };

  const Node& node(MsgId id) const { return nodes_[index_of(id)]; }

  /// Canonical (appended_at, id) order — the order a from-scratch build
  /// ingests nodes in.
  bool key_less(u32 a, u32 b) const {
    const Node& na = nodes_[a];
    const Node& nb = nodes_[b];
    if (na.time != nb.time) return na.time < nb.time;
    return na.id < nb.id;
  }

  usize bucket(u32 pos) const { return pos == kNoPos ? nodes_.size() : pos; }
  std::span<const MsgId> child_ids(u32 pos) const {
    if (!children_valid_) build_children();
    const usize b = bucket(pos);
    return {child_ids_.data() + child_off_[b], child_off_[b + 1] - child_off_[b]};
  }

  /// Appends block `id` at the next position, its reference slots starting
  /// at `ref_off` in the pool: its node (no parent or depth yet) and its
  /// index entry. Each author's blocks must come in seq order.
  void add_node(MsgId id, SimTime time, usize ref_off);
  /// Writes the visible references of block `pos` into its pool slots and
  /// returns its parent position; references outside the view are parked
  /// in pending_ when `park` is set.
  u32 resolve_refs(u32 pos, bool park);
  /// Depths of every block at position >= `from` whose depth is 0.
  void settle_depths(usize from);
  void recompute_frontier();

  // Lazy analytics: rebuilt on first access after an extend. NOT
  // thread-safe for concurrent first access — a graph belongs to one
  // simulation trial (Core Guidelines CP.3), like the memory it reads.
  void build_topo() const;
  void build_weights() const;
  void build_children() const;

  MemoryView view_;
  bool records_built_ = false;           // built from records: no view_
  std::vector<Node> nodes_;              // ingestion order; positions stable
  std::vector<std::vector<u32>> index_;  // [author][seq] -> position (dense)
  std::vector<u32> order_;               // positions in (appended_at, id) order
  std::vector<u32> ref_pos_;             // reference pool, by position ...
  std::vector<MsgId> ref_ids_;           // ... and its MsgId mirror
  std::vector<MsgId> deepest_;           // append-time order
  u32 max_depth_ = 0;
  /// Unresolved references (targets outside every view seen so far) ->
  /// waiting positions. Cold path: only Byzantine messages cite appends
  /// their observer has not seen, so a hash map is fine here.
  std::unordered_map<MsgId, std::vector<u32>> pending_;

  mutable std::vector<MsgId> topo_;
  mutable std::vector<u32> topo_pos_;   // topo_ as positions
  mutable std::vector<u32> topo_rank_;  // by position: index in topo_
  mutable std::vector<u32> weights_;    // by position
  mutable std::vector<u32> child_off_;  // CSR offsets, block_count() + 2 (root last)
  mutable std::vector<u32> child_pos_;
  mutable std::vector<MsgId> child_ids_;
  mutable bool topo_valid_ = false;
  mutable bool weights_valid_ = false;
  mutable bool children_valid_ = false;
};

}  // namespace amm::chain
