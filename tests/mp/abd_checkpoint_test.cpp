// Decided-prefix compaction (DESIGN.md §8): CheckpointBuilder folding,
// retain/summary compaction on live worlds, quorum checkpoint sync with a
// lying forger outvoted, parked-cap admission refusal, and the node's
// stats() snapshot.
#include "mp/abd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "inject_transport.hpp"
#include "mp/network.hpp"
#include "net/decision.hpp"

namespace amm::mp {
namespace {

SignedAppend make_signed(const crypto::KeyRegistry& keys, u32 author, u32 seq, i64 value) {
  SignedAppend rec;
  rec.author = NodeId{author};
  rec.seq = seq;
  rec.value = value;
  rec.sig = keys.sign(rec.author, rec.digest());
  return rec;
}

/// A full history: every author 0..n-1 with every seq 0..depth-1, values
/// alternating sign. Arrival order deliberately interleaved by seq.
std::vector<SignedAppend> full_history(const crypto::KeyRegistry& keys, u32 n, u32 depth) {
  std::vector<SignedAppend> view;
  for (u32 seq = 0; seq < depth; ++seq) {
    for (u32 a = 0; a < n; ++a) {
      view.push_back(make_signed(keys, a, seq, (seq + a) % 2 == 0 ? 1 : -1));
    }
  }
  return view;
}

TEST(CheckpointBuilder, FoldsExactlyAndIncrementally) {
  crypto::KeyRegistry keys(3, 7);
  const std::vector<SignedAppend> view = full_history(keys, 3, 4);
  CheckpointBuilder builder(3);

  Checkpoint all_at_once;
  EXPECT_EQ(builder.extend(all_at_once, view, 4), 12u);
  EXPECT_EQ(all_at_once.folded_below, 4u);
  EXPECT_EQ(all_at_once.folded_records, 12u);
  EXPECT_TRUE(builder.well_formed(all_at_once));

  // Folding 0→2 then 2→4 lands on the same checkpoint: the digest chain
  // is per-author seq-ordered, so incremental folds compose.
  Checkpoint stepped;
  EXPECT_EQ(builder.extend(stepped, view, 2), 6u);
  EXPECT_EQ(builder.extend(stepped, view, 4), 6u);
  EXPECT_TRUE(stepped.structurally_equal(all_at_once));

  // vote_sum is the exact ±1 sign sum over the folded set.
  i64 sum = 0;
  for (const SignedAppend& rec : view) sum += rec.value >= 0 ? 1 : -1;
  EXPECT_EQ(all_at_once.vote_sum, sum);

  // The chain is order-sensitive: a different value at one slot moves it.
  std::vector<SignedAppend> tampered = view;
  tampered[0].value = -tampered[0].value;
  Checkpoint other;
  builder.extend(other, tampered, 4);
  EXPECT_NE(other.chains[tampered[0].author.index],
            all_at_once.chains[tampered[0].author.index]);
}

TEST(CheckpointBuilder, EmptyCheckpointIsWellFormed) {
  CheckpointBuilder builder(5);
  const Checkpoint empty;
  EXPECT_TRUE(builder.well_formed(empty));

  // A node is born with a signed empty checkpoint.
  Network net(3, 0.05, 0.5, Rng(3));
  crypto::KeyRegistry keys(3, 3);
  AbdNode node(NodeId{1}, net, keys);
  EXPECT_EQ(node.checkpoint().folded_below, 0u);
  EXPECT_EQ(node.checkpoint().sig.signer, NodeId{1});
  EXPECT_TRUE(keys.verify(node.checkpoint().digest(), node.checkpoint().sig));
}

struct SmallWorld {
  crypto::KeyRegistry keys;
  Network net;
  std::vector<std::unique_ptr<AbdNode>> nodes;

  SmallWorld(u32 n, u64 seed, AbdConfig config)
      : keys(n, seed), net(n, 0.05, 0.5, Rng(seed + 1)) {
    for (u32 i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<AbdNode>(NodeId{i}, net, keys, config));
    }
  }

  /// Every node appends `rounds` values; run to idle between rounds so all
  /// watermarks converge (every author's prefix is everywhere).
  void drive(u32 rounds) {
    i64 value = 1;
    for (u32 r = 0; r < rounds; ++r) {
      for (auto& node : nodes) node->begin_append((value % 3 == 0) ? -value : value, [] {});
      ++value;
      net.queue().run();
    }
  }
};

TEST(AbdCheckpoint, ManualRetainCompactionIsCrossCheckable) {
  SmallWorld world(3, 11, AbdConfig{.compact = CompactConfig{.enabled = true,
                                                             .auto_interval = 0}});
  world.drive(6);
  for (auto& node : world.nodes) {
    EXPECT_EQ(node->stability_cut(), 6u);
    const usize before = node->live_records();
    node->compact_below(node->stability_cut());
    EXPECT_EQ(node->live_records(), before);  // retain mode keeps bodies
    EXPECT_EQ(node->checkpoint().folded_below, 6u);
    EXPECT_EQ(node->stats().records_folded, 18u);
  }
  // Same cut ⇒ byte-identical summaries: the cross-check peers run.
  for (const auto& node : world.nodes) {
    EXPECT_TRUE(node->checkpoint().structurally_equal(world.nodes[0]->checkpoint()));
    EXPECT_TRUE(world.keys.verify(node->checkpoint().digest(), node->checkpoint().sig));
  }
  // Clamped to the stability cut; re-compacting at the cut is a no-op:
  // the checkpoint neither advances nor changes its digest.
  const u64 digest = world.nodes[0]->checkpoint().digest();
  world.nodes[0]->compact_below(1000);
  world.nodes[0]->compact_below(6);
  EXPECT_EQ(world.nodes[0]->checkpoint().folded_below, 6u);
  EXPECT_EQ(world.nodes[0]->checkpoint().digest(), digest);
}

TEST(AbdCheckpoint, SummaryModeErasesFoldedBodiesAndDecidesExactly) {
  const AbdConfig summary{.compact = CompactConfig{.enabled = true,
                                                   .retain_records = false,
                                                   .auto_interval = 0}};
  SmallWorld world(3, 13, summary);
  SmallWorld twin(3, 13, AbdConfig{});  // same seeds, compaction off
  world.drive(8);
  twin.drive(8);

  for (usize i = 0; i < world.nodes.size(); ++i) {
    AbdNode& node = *world.nodes[i];
    const std::vector<SignedAppend> before = node.local_view();
    // Fold below 5 of the 8 stable rows so a live suffix survives the cut.
    node.compact_below(5);
    const Checkpoint& ckpt = node.checkpoint();
    EXPECT_EQ(ckpt.folded_below, 5u);
    // Bodies below the cut are gone; the suffix survives in arrival order.
    EXPECT_EQ(node.live_records(), before.size() - ckpt.folded_records);
    for (const SignedAppend& rec : node.local_view()) {
      EXPECT_GE(rec.seq, ckpt.folded_below);
    }
    // Algorithm 6 over (checkpoint, suffix) equals the uncompacted twin's
    // plain rule for every k at or past the fold.
    const std::vector<SignedAppend> twin_view = twin.nodes[i]->local_view();
    ASSERT_EQ(before.size(), twin_view.size());
    for (u32 k = static_cast<u32>(ckpt.folded_records);
         k <= static_cast<u32>(twin_view.size()); ++k) {
      const net::Decision direct = net::decide_first_k(twin_view, k);
      const net::Decision folded =
          net::decide_first_k_with_checkpoint(ckpt, node.local_view(), k);
      EXPECT_EQ(folded.sign, direct.sign) << "k=" << k;
      EXPECT_EQ(folded.decided_over, direct.decided_over) << "k=" << k;
    }
  }
}

TEST(AbdCheckpoint, AutoCompactionQuantizedCutsAgree) {
  // Auto-compaction with a shared quantum: nodes fold on their own
  // cadence, but every cut is a multiple of the quantum, so any two nodes
  // at the same folded_below are byte-identical (quorum sync depends on
  // this).
  const AbdConfig config{.compact = CompactConfig{.enabled = true,
                                                  .retain_records = true,
                                                  .lag = 2,
                                                  .quantum = 4,
                                                  .auto_interval = 8}};
  SmallWorld world(3, 17, config);
  world.drive(12);
  u64 folded = 0;
  for (const auto& node : world.nodes) {
    EXPECT_EQ(node->checkpoint().folded_below % 4, 0u);
    folded += node->stats().records_folded;
    for (const auto& other : world.nodes) {
      if (node->checkpoint().folded_below == other->checkpoint().folded_below) {
        EXPECT_TRUE(node->checkpoint().structurally_equal(other->checkpoint()));
      }
    }
  }
  EXPECT_GT(folded, 0u);
}

TEST(AbdCheckpoint, SyncAdoptsQuorumAgreedSummaryAndOutvotesForger) {
  // Restart scenario: a summary-mode node with empty state syncs the
  // decided prefix from its peers. Node 4 answers with a self-signed lie;
  // three honest replies agree structurally and win the vote.
  constexpr u32 kN = 5;
  constexpr u32 kCut = 8;
  crypto::KeyRegistry keys(kN, 23);
  InjectTransport net(kN);
  const AbdConfig summary{.compact = CompactConfig{.enabled = true,
                                                   .retain_records = false,
                                                   .auto_interval = 0}};
  AbdNode node(NodeId{0}, net, keys, summary);

  // The agreed history: all authors, seqs 0..kCut+1 (two live rows).
  const std::vector<SignedAppend> history = full_history(keys, kN, kCut + 2);
  CheckpointBuilder builder(kN);
  Checkpoint honest;
  builder.extend(honest, history, kCut);
  ASSERT_TRUE(builder.well_formed(honest));

  bool synced = false;
  u32 sync_calls = 0;
  node.begin_checkpoint_sync([&](bool ok) {
    synced = ok;
    ++sync_calls;
  });
  ASSERT_FALSE(net.outbox.empty());
  ASSERT_EQ(net.outbox.back().second.kind, WireMessage::Kind::kCheckpointReq);
  const u64 rid = net.outbox.back().second.read_id;

  const auto reply_from = [&](u32 peer, const Checkpoint& cp) {
    WireMessage reply;
    reply.kind = WireMessage::Kind::kCheckpointReply;
    reply.read_id = rid;
    reply.checkpoint = cp;
    reply.checkpoint.sig = keys.sign(NodeId{peer}, reply.checkpoint.digest());
    net.deliver(NodeId{peer}, NodeId{0}, reply);
  };

  // A structurally valid lie (well-formed, self-signed) from node 4.
  Checkpoint lie;
  std::vector<SignedAppend> lying_history = history;
  for (SignedAppend& rec : lying_history) rec.value = -1;  // all-minus
  builder.extend(lie, lying_history, kCut);
  ASSERT_TRUE(builder.well_formed(lie));
  reply_from(4, lie);
  EXPECT_FALSE(synced);

  // A reply whose signature is not the responder's own is ignored.
  WireMessage relayed;
  relayed.kind = WireMessage::Kind::kCheckpointReply;
  relayed.read_id = rid;
  relayed.checkpoint = honest;
  relayed.checkpoint.sig = keys.sign(NodeId{2}, relayed.checkpoint.digest());
  net.deliver(NodeId{1}, NodeId{0}, relayed);
  EXPECT_FALSE(synced);

  reply_from(1, honest);
  reply_from(2, honest);
  EXPECT_FALSE(synced);  // two honest + one lie: no quorum of three yet
  reply_from(3, honest);
  EXPECT_TRUE(synced);

  // Adopted: the honest summary, re-signed locally, watermarks jumped.
  EXPECT_TRUE(node.checkpoint().structurally_equal(honest));
  EXPECT_EQ(node.checkpoint().sig.signer, NodeId{0});
  EXPECT_EQ(node.live_records(), 0u);

  // The live suffix now admits contiguously from the cut...
  for (u32 seq = kCut; seq < kCut + 2; ++seq) {
    for (u32 a = 0; a < kN; ++a) {
      WireMessage append;
      append.kind = WireMessage::Kind::kAppend;
      append.append = make_signed(keys, a, seq, 1);
      net.deliver(NodeId{a}, NodeId{0}, append);
    }
  }
  EXPECT_EQ(node.live_records(), usize{kN} * 2);
  // ...and a folded record is recognized as already held.
  WireMessage replay;
  replay.kind = WireMessage::Kind::kAppend;
  replay.append = make_signed(keys, 1, 3, 1);
  net.deliver(NodeId{1}, NodeId{0}, replay);
  EXPECT_EQ(node.live_records(), usize{kN} * 2);

  // The adopted sync completed once: a late fifth reply finds no pending
  // sync and the callback does not fire again.
  reply_from(4, honest);
  EXPECT_EQ(sync_calls, 1u);
  EXPECT_TRUE(synced);
}

TEST(AbdCheckpoint, StatsReportStorageViewAndAdoptedFold) {
  // AbdNode::stats() is the node's one telemetry source: storage fields
  // read through the seam, the view fields agree with each other, and
  // records_folded is the checkpoint's count — also after a quorum
  // adoption, where the node folded nothing itself.
  constexpr u32 kN = 3;
  constexpr u32 kCut = 4;
  crypto::KeyRegistry keys(kN, 37);
  InjectTransport net(kN);
  MemStorage store;
  AbdConfig summary{.compact = CompactConfig{.enabled = true,
                                             .retain_records = false,
                                             .auto_interval = 0}};
  summary.storage = &store;
  AbdNode node(NodeId{0}, net, keys, summary);

  const auto expect_consistent = [&] {
    const NodeStats stats = node.stats();
    EXPECT_EQ(stats.log_bytes, store.stats().log_bytes);
    EXPECT_EQ(stats.snapshot_count, store.stats().snapshot_count);
    EXPECT_EQ(stats.live_records, stats.view_size);
    EXPECT_EQ(stats.view_size, node.local_view().size());
    EXPECT_EQ(stats.appends_issued, node.appends_issued());
    EXPECT_EQ(stats.records_folded, node.checkpoint().folded_records);
  };
  const auto deliver_append = [&](u32 author, u32 seq) {
    WireMessage append;
    append.kind = WireMessage::Kind::kAppend;
    append.append = make_signed(keys, author, seq, 1);
    net.deliver(NodeId{author}, NodeId{0}, append);
  };

  deliver_append(1, 0);
  expect_consistent();
  EXPECT_GT(node.stats().log_bytes, 0u);

  // Peers 1 and 2 (a quorum of 3) agree on a fold of every author below
  // kCut; the node adopts it and snapshots.
  CheckpointBuilder builder(kN);
  Checkpoint agreed;
  builder.extend(agreed, full_history(keys, kN, kCut), kCut);
  node.begin_checkpoint_sync([](bool) {});
  const u64 rid = net.outbox.back().second.read_id;
  for (const u32 peer : {1u, 2u}) {
    WireMessage reply;
    reply.kind = WireMessage::Kind::kCheckpointReply;
    reply.read_id = rid;
    reply.checkpoint = agreed;
    reply.checkpoint.sig = keys.sign(NodeId{peer}, agreed.digest());
    net.deliver(NodeId{peer}, NodeId{0}, reply);
  }
  ASSERT_EQ(node.checkpoint().folded_below, kCut);
  EXPECT_EQ(node.stats().records_folded, u64{kN} * kCut);
  EXPECT_GE(node.stats().snapshot_count, 1u);
  expect_consistent();

  for (u32 a = 0; a < kN; ++a) deliver_append(a, kCut);
  EXPECT_EQ(node.stats().live_records, kN);
  expect_consistent();
}

TEST(AbdCheckpoint, ParkedCapRefusesOutOfOrderFlood) {
  crypto::KeyRegistry keys(3, 29);
  InjectTransport net(3);
  const AbdConfig capped{.compact = CompactConfig{.parked_cap = 2}};
  AbdNode node(NodeId{0}, net, keys, capped);

  // Author 1 arrives far out of order: seqs 5..1 with seq 0 missing. Only
  // parked_cap records park; the rest are refused, not buffered.
  for (u32 seq = 5; seq >= 1; --seq) {
    WireMessage append;
    append.kind = WireMessage::Kind::kAppend;
    append.append = make_signed(keys, 1, seq, 1);
    net.deliver(NodeId{1}, NodeId{0}, append);
  }
  EXPECT_EQ(node.live_records(), 2u);
  EXPECT_EQ(node.stats().parked_rejects, 3u);

  // The refused records stayed above the advertised frontier, so the
  // prefix still heals: seq 0 arrives, the two parked records chain in.
  WireMessage base;
  base.kind = WireMessage::Kind::kAppend;
  base.append = make_signed(keys, 1, 0, 1);
  net.deliver(NodeId{1}, NodeId{0}, base);
  EXPECT_EQ(node.live_records(), 3u);
}

}  // namespace
}  // namespace amm::mp
