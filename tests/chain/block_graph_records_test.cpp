// Property: a BlockGraph built from a runner's append-ordered records is
// bit-identical, in every id-valued accessor and analytic, to the graph of
// an append memory holding the same appends — the contract the exact DAG
// decision relies on when it builds its graph without a memory behind it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chain/block_graph.hpp"
#include "chain/rules.hpp"
#include "support/rng.hpp"

namespace amm::chain {
namespace {

using am::AppendMemory;

/// The same appends twice: in an append memory and as runner records
/// (references as record positions, parent first).
struct Trace {
  explicit Trace(u32 n) : authors(n), memory(n) {}

  void append(u32 author, SimTime now, const std::vector<usize>& refs) {
    std::vector<MsgId> ids;
    for (const usize r : refs) ids.push_back(records[r].id);
    BlockRecord rec;
    rec.id = memory.append(NodeId{author}, Vote::kPlus, /*payload=*/0, std::move(ids), now);
    rec.time = now;
    rec.ref_off = pool.size();
    rec.ref_count = refs.size();
    pool.insert(pool.end(), refs.begin(), refs.end());
    records.push_back(rec);
  }

  BlockGraph from_records() const { return BlockGraph(authors, records, pool); }

  u32 authors;
  AppendMemory memory;
  std::vector<BlockRecord> records;
  std::vector<usize> pool;
};

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// Asserts every observable of the records-built graph equals the same
/// observable of the graph of the trace's memory, and that record i sits
/// at position i.
void expect_identical(const Trace& trace) {
  const BlockGraph rec = trace.from_records();
  const BlockGraph ref(trace.memory.read());
  ASSERT_EQ(rec.block_count(), ref.block_count());
  for (usize i = 0; i < trace.records.size(); ++i) {
    const MsgId id = trace.records[i].id;
    ASSERT_TRUE(rec.contains(id));
    EXPECT_EQ(rec.index_of(id), i);
    EXPECT_EQ(rec.id_at(i), id);
  }
  EXPECT_FALSE(rec.contains(MsgId{0, static_cast<u32>(trace.records.size())}));
  EXPECT_EQ(rec.max_depth(), ref.max_depth());
  EXPECT_EQ(rec.deepest_blocks(), ref.deepest_blocks());
  EXPECT_EQ(to_vector(rec.root_children()), to_vector(ref.root_children()));
  EXPECT_EQ(rec.tips(), ref.tips());
  EXPECT_EQ(rec.topo_order(), ref.topo_order());
  for (const MsgId id : ref.topo_order()) {
    EXPECT_EQ(rec.parent(id), ref.parent(id)) << "parent of (" << id.author << "," << id.seq
                                              << ")";
    EXPECT_EQ(rec.depth(id), ref.depth(id));
    EXPECT_EQ(rec.subtree_weight(id), ref.subtree_weight(id));
    EXPECT_EQ(to_vector(rec.refs(id)), to_vector(ref.refs(id)));
    EXPECT_EQ(to_vector(rec.children(id)), to_vector(ref.children(id)));
    EXPECT_EQ(rec.chain_to(id), ref.chain_to(id));
  }
  for (const PivotRule rule : {PivotRule::kGhost, PivotRule::kLongestChain}) {
    EXPECT_EQ(select_pivot(rec, rule), select_pivot(ref, rule));
    EXPECT_EQ(linearize_dag(rec, rule), linearize_dag(ref, rule));
  }
}

/// A random trace: append times that often repeat (so equal-time blocks of
/// different authors arrive in random id order), ref-less blocks, and
/// blocks with up to 3, sometimes up to 8, distinct earlier references.
Trace random_trace(u32 n, usize appends, Rng& rng) {
  Trace trace(n);
  SimTime now = 0.0;
  for (usize i = 0; i < appends; ++i) {
    if (!rng.bernoulli(0.4)) now += 0.25 * static_cast<double>(1 + rng.uniform_below(4));
    std::vector<usize> refs;
    if (i != 0) {
      const usize want = rng.uniform_below(rng.bernoulli(0.1) ? 9 : 4);
      for (usize r = 0; r < want; ++r) {
        const usize cand = rng.uniform_below(i);
        if (std::find(refs.begin(), refs.end(), cand) == refs.end()) refs.push_back(cand);
      }
    }
    trace.append(static_cast<u32>(rng.uniform_below(n)), now, refs);
  }
  return trace;
}

TEST(BlockGraphRecords, MatchesMemoryBuiltGraphOnRandomRecords) {
  Rng seed_rng(20200715);
  for (int trial = 0; trial < 40; ++trial) {
    Rng rng = Rng::for_stream(seed_rng.next(), static_cast<u64>(trial));
    const u32 n = trial % 5 == 0 ? 20 : 2 + static_cast<u32>(rng.uniform_below(6));
    expect_identical(random_trace(n, 20 + rng.uniform_below(150), rng));
    if (::testing::Test::HasFailure()) return;  // don't spam on first divergence
  }
}

TEST(BlockGraphRecords, EmptyRecords) {
  const Trace trace(3);
  const BlockGraph g = trace.from_records();
  EXPECT_EQ(g.block_count(), 0u);
  EXPECT_EQ(g.max_depth(), 0u);
  EXPECT_TRUE(g.tips().empty());
  EXPECT_TRUE(linearize_dag(g, PivotRule::kGhost).empty());
  expect_identical(trace);
}

TEST(BlockGraphRecords, RefLessBlocksHangOffTheRoot) {
  Trace trace(3);
  trace.append(2, 1.0, {});
  trace.append(0, 1.0, {});
  trace.append(1, 2.0, {});
  trace.append(0, 2.0, {0});
  expect_identical(trace);
  EXPECT_EQ(trace.from_records().root_children().size(), 3u);
}

TEST(BlockGraphRecords, MultiReferenceBlocks) {
  Trace trace(4);
  for (u32 a = 0; a < 4; ++a) trace.append(a, 1.0, {});
  trace.append(3, 2.0, {2, 0, 1, 3});  // parent (2,0); includes every tip
  trace.append(1, 3.0, {1, 4});        // parent (1,0), not the deepest block
  trace.append(0, 3.0, {5, 4, 0});
  expect_identical(trace);
  const BlockGraph g = trace.from_records();
  EXPECT_EQ(g.parent(trace.records[4].id), trace.records[2].id);
  EXPECT_EQ(g.refs(trace.records[4].id).size(), 4u);
}

TEST(BlockGraphRecords, OneAuthorChainAtOneTime) {
  Trace trace(2);
  trace.append(1, 5.0, {});
  for (usize i = 1; i < 12; ++i) trace.append(1, 5.0, {i - 1});
  expect_identical(trace);
  EXPECT_EQ(trace.from_records().max_depth(), 12u);
}

TEST(BlockGraphRecords, EqualTimeBlocksAgainstIdOrder) {
  // A runner can append a later author's blocks and then an earlier
  // author's at the same instant (a banked publish followed by a correct
  // append): record order is not (time, id) order, and every order-dependent
  // output — tips, child lists, the topological order and the pivot ties —
  // must still follow (time, id).
  Trace trace(4);
  trace.append(3, 1.0, {});
  trace.append(3, 1.0, {});
  trace.append(0, 1.0, {});
  trace.append(2, 1.0, {});
  trace.append(1, 2.0, {2});
  trace.append(3, 2.0, {0, 1, 3});
  trace.append(0, 2.0, {1});
  expect_identical(trace);
  const BlockGraph g = trace.from_records();
  EXPECT_EQ(g.root_children().front(), (MsgId{0, 0}));
  EXPECT_EQ(g.tips().front(), (MsgId{0, 1}));
}

/// Records without a memory, for the inputs a memory would refuse.
BlockRecord record(MsgId id, SimTime time, usize ref_off, usize ref_count) {
  BlockRecord r;
  r.id = id;
  r.time = time;
  r.ref_off = ref_off;
  r.ref_count = ref_count;
  return r;
}

TEST(BlockGraphRecordsDeathTest, ReferenceToALaterRecordAborts) {
  const std::vector<BlockRecord> records = {record({0, 0}, 1.0, 0, 1),
                                            record({1, 0}, 1.0, 1, 0)};
  const std::vector<usize> pool = {1};
  EXPECT_DEATH(BlockGraph(2, records, pool), "precondition.*q < i");
  const std::vector<usize> self = {0};
  EXPECT_DEATH(BlockGraph(2, records, self), "precondition.*q < i");
}

TEST(BlockGraphRecordsDeathTest, PerAuthorSeqGapAborts) {
  const std::vector<BlockRecord> records = {record({0, 0}, 1.0, 0, 0),
                                            record({0, 2}, 2.0, 0, 0)};
  EXPECT_DEATH(BlockGraph(1, records, {}), "precondition.*== id.seq");
}

TEST(BlockGraphRecordsDeathTest, BadAuthorTimeOrPoolRangeAborts) {
  const std::vector<BlockRecord> unknown_author = {record({2, 0}, 1.0, 0, 0)};
  EXPECT_DEATH(BlockGraph(2, unknown_author, {}), "precondition.*< authors");
  const std::vector<BlockRecord> time_goes_back = {record({0, 0}, 2.0, 0, 0),
                                                   record({1, 0}, 1.0, 0, 0)};
  EXPECT_DEATH(BlockGraph(2, time_goes_back, {}), "precondition.*r.time >=");
  const std::vector<BlockRecord> past_the_pool = {record({0, 0}, 1.0, 0, 0),
                                                  record({1, 0}, 1.0, 0, 2)};
  const std::vector<usize> pool = {0};
  EXPECT_DEATH(BlockGraph(2, past_the_pool, pool), "precondition.*ref_pool.size");
}

TEST(BlockGraphRecordsDeathTest, NoViewOnARecordsBuiltGraph) {
  Trace trace(2);
  trace.append(0, 1.0, {});
  BlockGraph g = trace.from_records();
  EXPECT_DEATH(g.extend(trace.memory.read()), "precondition.*records_built_");
  EXPECT_DEATH((void)g.msg(trace.records[0].id), "precondition.*records_built_");
}

}  // namespace
}  // namespace amm::chain
