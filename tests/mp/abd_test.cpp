#include "mp/abd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "mp/network.hpp"

namespace amm::mp {
namespace {

struct Cluster {
  Cluster(u32 n, u32 crashed = 0, u64 seed = 1, AbdConfig config = {})
      : keys(n, seed), net(n, 0.05, 0.5, Rng(seed + 1)) {
    for (u32 i = 0; i < n - crashed; ++i) {
      nodes.push_back(std::make_unique<AbdNode>(NodeId{i}, net, keys, config));
    }
    for (u32 i = n - crashed; i < n; ++i) {
      dead.push_back(std::make_unique<CrashedNode>(NodeId{i}, net));
    }
  }

  crypto::KeyRegistry keys;
  Network net;
  std::vector<std::unique_ptr<AbdNode>> nodes;
  std::vector<std::unique_ptr<CrashedNode>> dead;
};

constexpr AbdConfig kLegacy{.delta_reads = false, .max_pipeline = 1};

TEST(Abd, AppendCompletesWithAllCorrect) {
  Cluster c(5);
  bool done = false;
  c.nodes[0]->begin_append(42, [&] { done = true; });
  c.net.queue().run();
  EXPECT_TRUE(done);
}

TEST(Abd, AppendVisibleInEveryLocalViewEventually) {
  Cluster c(4);
  c.nodes[1]->begin_append(7, [] {});
  c.net.queue().run();
  for (const auto& node : c.nodes) {
    ASSERT_EQ(node->local_view().size(), 1u);
    EXPECT_EQ(node->local_view()[0].value, 7);
    EXPECT_EQ(node->local_view()[0].author, NodeId{1});
  }
}

TEST(Abd, ReadMergesMajorityViews) {
  Cluster c(5);
  bool append_done = false;
  c.nodes[0]->begin_append(10, [&] { append_done = true; });
  c.net.queue().run();
  ASSERT_TRUE(append_done);

  std::vector<SignedAppend> result;
  c.nodes[4]->begin_read([&](const std::vector<SignedAppend>& view) { result = view; });
  c.net.queue().run();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].value, 10);
}

TEST(Abd, RegularityCompletedAppendVisibleToLaterRead) {
  // Lemma 4.2: an append acked by a majority intersects every read quorum.
  for (u64 seed = 1; seed < 15; ++seed) {
    Cluster c(5, /*crashed=*/2, seed);
    bool append_done = false;
    c.nodes[0]->begin_append(99, [&] { append_done = true; });
    c.net.queue().run();
    ASSERT_TRUE(append_done) << "append must terminate with 3/5 correct";

    bool found = false;
    c.nodes[2]->begin_read([&](const std::vector<SignedAppend>& view) {
      for (const auto& rec : view) found |= (rec.value == 99);
    });
    c.net.queue().run();
    EXPECT_TRUE(found) << "seed=" << seed;
  }
}

TEST(Abd, MinorityCrashStillLive) {
  Cluster c(7, /*crashed=*/3);
  bool append_done = false, read_done = false;
  c.nodes[0]->begin_append(1, [&] { append_done = true; });
  c.net.queue().run();
  c.nodes[1]->begin_read([&](const std::vector<SignedAppend>&) { read_done = true; });
  c.net.queue().run();
  EXPECT_TRUE(append_done);
  EXPECT_TRUE(read_done);
}

TEST(Abd, MajorityCrashBlocksTermination) {
  Cluster c(5, /*crashed=*/3);
  bool done = false;
  c.nodes[0]->begin_append(1, [&] { done = true; });
  c.net.queue().run();
  EXPECT_FALSE(done);  // only 2 acks possible, quorum is 3
}

TEST(Abd, SequentialAppendsGetIncreasingSeq) {
  Cluster c(3);
  bool first = false;
  c.nodes[0]->begin_append(1, [&] { first = true; });
  c.net.queue().run();
  ASSERT_TRUE(first);
  c.nodes[0]->begin_append(2, [] {});
  c.net.queue().run();
  EXPECT_EQ(c.nodes[0]->appends_issued(), 2u);
  // Both records present everywhere, with distinct seq.
  for (const auto& node : c.nodes) {
    ASSERT_EQ(node->local_view().size(), 2u);
    EXPECT_NE(node->local_view()[0].seq, node->local_view()[1].seq);
  }
}

TEST(Abd, ForgedRecordsRejected) {
  // 4 correct + 1 forger targeting node 0: no correct view may ever
  // contain a record attributed to node 0 that node 0 did not append.
  crypto::KeyRegistry keys(5, 7);
  Network net(5, 0.05, 0.5, Rng(8));
  std::vector<std::unique_ptr<AbdNode>> nodes;
  for (u32 i = 0; i < 4; ++i) nodes.push_back(std::make_unique<AbdNode>(NodeId{i}, net, keys));
  ForgerNode forger(NodeId{4}, /*victim=*/NodeId{0}, net, keys);

  bool done = false;
  nodes[1]->begin_append(5, [&] { done = true; });
  net.queue().run();
  ASSERT_TRUE(done);

  nodes[2]->begin_read([](const std::vector<SignedAppend>&) {});
  net.queue().run();

  for (const auto& node : nodes) {
    for (const auto& rec : node->local_view()) {
      if (rec.author == NodeId{0}) {
        FAIL() << "forged record for node 0 admitted into a correct view";
      }
    }
  }
}

TEST(Abd, MessageComplexityPerAppendIsTwoN) {
  // Algorithm 2: n broadcast messages + n acks (self-delivery included).
  Cluster c(6);
  const u64 before = c.net.messages_sent();
  c.nodes[0]->begin_append(1, [] {});
  c.net.queue().run();
  EXPECT_EQ(c.net.messages_sent() - before, 12u);
}

TEST(Abd, ReadReplySizeGrowsWithHistory) {
  // §4's observation (legacy full-view reads, kept as the reference): local
  // views grow with every append, so read replies carry ever more bytes —
  // the cost the append memory abstracts away.
  Cluster c(3, 0, 1, kLegacy);
  u64 bytes_first, bytes_second;
  c.nodes[0]->begin_append(1, [] {});
  c.net.queue().run();
  u64 before = c.net.bytes_sent();
  c.nodes[1]->begin_read([](const std::vector<SignedAppend>&) {});
  c.net.queue().run();
  bytes_first = c.net.bytes_sent() - before;

  for (int i = 0; i < 5; ++i) {
    c.nodes[0]->begin_append(i, [] {});
    c.net.queue().run();
  }
  before = c.net.bytes_sent();
  c.nodes[1]->begin_read([](const std::vector<SignedAppend>&) {});
  c.net.queue().run();
  bytes_second = c.net.bytes_sent() - before;
  EXPECT_GT(bytes_second, bytes_first);
}

TEST(Abd, DeltaReadBytesStayFlatInHistory) {
  // Frontier reads: once a reader's watermarks cover the history, a read
  // costs the same bytes no matter how long the history is — only the
  // delta (here: nothing) travels.
  Cluster c(3);  // default config: delta reads on
  c.nodes[0]->begin_append(1, [] {});
  c.net.queue().run();
  u64 before = c.net.bytes_sent();
  c.nodes[1]->begin_read([](const std::vector<SignedAppend>&) {});
  c.net.queue().run();
  const u64 bytes_first = c.net.bytes_sent() - before;

  for (int i = 0; i < 5; ++i) {
    c.nodes[0]->begin_append(i, [] {});
    c.net.queue().run();
  }
  before = c.net.bytes_sent();
  c.nodes[1]->begin_read([](const std::vector<SignedAppend>&) {});
  c.net.queue().run();
  const u64 bytes_second = c.net.bytes_sent() - before;
  EXPECT_EQ(bytes_second, bytes_first)
      << "steady-state delta reads must not grow with history";
}

TEST(Abd, DeltaReadShipsOnlyMissingRecords) {
  // A reader that missed appends (crashed responders kept it at quorum
  // size) still converges: the delta carries exactly what it lacks.
  Cluster c(5);
  for (int i = 0; i < 4; ++i) {
    c.nodes[2]->begin_append(10 + i, [] {});
    c.net.queue().run();
  }
  // Every node already holds all 4 records via the append broadcasts, so
  // the reader's frontier covers everything and replies ship 0 records.
  const u64 records_before = c.nodes[0]->stats().read_records_sent;
  std::vector<SignedAppend> result;
  c.nodes[1]->begin_read([&](const std::vector<SignedAppend>& view) { result = view; });
  c.net.queue().run();
  ASSERT_EQ(result.size(), 4u);
  u64 shipped = 0;
  for (const auto& node : c.nodes) shipped += node->stats().read_records_sent;
  EXPECT_EQ(shipped - records_before, 0u) << "fully synced reader must receive an empty delta";
}

TEST(Abd, PipelinedAppendsAllComplete) {
  // Algorithm 2's one-outstanding-op restriction is lifted: issue a burst
  // of appends at once; acks for each in-flight record resolve
  // independently and every operation completes.
  Cluster c(5);
  u32 completed = 0;
  for (i64 v = 0; v < 100; ++v) {
    c.nodes[0]->begin_append(v, [&] { ++completed; });
  }
  EXPECT_EQ(c.nodes[0]->appends_in_flight(), 32u);  // default max_pipeline
  EXPECT_EQ(c.nodes[0]->appends_queued(), 68u);
  c.net.queue().run();
  EXPECT_EQ(completed, 100u);
  EXPECT_EQ(c.nodes[0]->appends_in_flight(), 0u);
  EXPECT_EQ(c.nodes[0]->appends_queued(), 0u);
  for (const auto& node : c.nodes) {
    EXPECT_EQ(node->local_view().size(), 100u);
  }
}

TEST(Abd, PipelineBoundIsRespected) {
  Cluster c(3, 0, 1, AbdConfig{.delta_reads = true, .max_pipeline = 4});
  for (i64 v = 0; v < 10; ++v) c.nodes[0]->begin_append(v, [] {});
  EXPECT_EQ(c.nodes[0]->appends_in_flight(), 4u);
  EXPECT_EQ(c.nodes[0]->appends_queued(), 6u);
  c.net.queue().run();
  EXPECT_EQ(c.nodes[0]->local_view().size(), 10u);
  // Queued appends launch in submission order: value v was submitted v-th
  // and must carry seq v (the view itself is in arrival order, which the
  // concurrent round-trips are free to scramble).
  for (const auto& rec : c.nodes[0]->local_view()) {
    if (rec.author == NodeId{0}) {
      EXPECT_EQ(static_cast<i64>(rec.seq), rec.value);
    }
  }
}

TEST(Abd, ForgerDeltaRepliesRejectedWithoutViewCorruption) {
  // Lemma 4.1 under delta reads: the forger answers read requests with an
  // above-frontier forgery plus below-frontier replays of genuine records.
  // Correct nodes must reject the forgery on every path (it is held by no
  // one, so the held-first merge never skips it) and deduplicate the
  // replays.
  crypto::KeyRegistry keys(5, 7);
  Network net(5, 0.05, 0.5, Rng(8));
  std::vector<std::unique_ptr<AbdNode>> nodes;
  for (u32 i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<AbdNode>(NodeId{i}, net, keys));
  }
  ForgerNode forger(NodeId{4}, /*victim=*/NodeId{0}, net, keys);

  for (i64 v = 0; v < 3; ++v) {
    bool done = false;
    nodes[1]->begin_append(v, [&] { done = true; });
    net.queue().run();
    ASSERT_TRUE(done);
  }
  // Two reads: the first establishes watermarks, the second is the delta
  // read the forger answers with replays of now-below-frontier records.
  for (int round = 0; round < 2; ++round) {
    nodes[2]->begin_read([](const std::vector<SignedAppend>&) {});
    net.queue().run();
  }

  for (const auto& node : nodes) {
    EXPECT_EQ(node->local_view().size(), 3u) << "replays must deduplicate";
    for (const auto& rec : node->local_view()) {
      EXPECT_NE(rec.author, NodeId{0}) << "forged record admitted into a correct view";
    }
    EXPECT_EQ(node->stats().read_fallbacks, 0u)
        << "a correctly echoed (if lying) reply must not trigger the fallback";
  }
}

TEST(Abd, BadFrontierEchoFallsBackToFullRead) {
  // Frontier-divergence fallback: a responder that echoes a digest the
  // reader never sent forces one full (empty-frontier) retry of the same
  // read id; the read still completes with the correct result.
  crypto::KeyRegistry keys(3, 11);
  Network net(3, 0.05, 0.5, Rng(12));
  AbdNode reader(NodeId{0}, net, keys);  // default config: delta reads on
  CrashedNode crashed(NodeId{1}, net);
  // Node 2 acks appends like a correct node but mis-echoes the first read
  // request it sees. The reader cannot reach quorum (2 of 3) without node
  // 2, so the fallback is the only path to completion.
  bool lied = false;
  net.attach(NodeId{2}, [&](NodeId from, const WireMessage& msg) {
    if (msg.kind == WireMessage::Kind::kAppend) {
      WireMessage ack;
      ack.kind = WireMessage::Kind::kAck;
      ack.append = msg.append;
      ack.ack_sig = keys.sign(NodeId{2}, msg.append.digest());
      net.send(NodeId{2}, msg.append.author, std::move(ack));
    } else if (msg.kind == WireMessage::Kind::kReadReq) {
      WireMessage reply;
      reply.kind = WireMessage::Kind::kReadReply;
      reply.read_id = msg.read_id;
      reply.frontier_echo = lied ? frontier_digest(msg.frontier) : 0xdeadbeefULL;
      lied = true;
      net.send(NodeId{2}, from, std::move(reply));
    }
  });

  bool appended = false;
  reader.begin_append(77, [&] { appended = true; });
  net.queue().run();
  ASSERT_TRUE(appended);

  std::vector<SignedAppend> result;
  reader.begin_read([&](const std::vector<SignedAppend>& view) { result = view; });
  net.queue().run();
  ASSERT_EQ(result.size(), 1u) << "read must complete via the full-read fallback";
  EXPECT_EQ(result[0].value, 77);
  EXPECT_EQ(reader.stats().read_fallbacks, 1u);
}

TEST(Abd, FullReadOfHeldRecordsMakesNoRegistryCheck) {
  // Each record travels to a node several times (broadcast, then again in
  // every full-view read reply); only the broadcast pays a registry
  // verification. A reply record the node already holds is skipped before
  // any check: admission would drop it anyway. Forged records are covered
  // by ForgerDeltaRepliesRejectedWithoutViewCorruption: they are held by
  // no one, so they are checked and rejected on every delivery.
  Cluster legacy(4, 0, 2, kLegacy);
  for (i64 v = 0; v < 3; ++v) {
    legacy.nodes[0]->begin_append(v, [] {});
    legacy.net.queue().run();
  }
  ASSERT_EQ(legacy.nodes[1]->local_view().size(), 3u);
  const u64 before = legacy.nodes[1]->stats().verify_cache_misses;
  std::vector<SignedAppend> result;
  legacy.nodes[1]->begin_read([&](const std::vector<SignedAppend>& view) { result = view; });
  legacy.net.queue().run();
  // The read re-delivered all 3 records to node 1 in the full views of a
  // quorum of responders; none of them cost a registry check.
  EXPECT_EQ(result.size(), 3u);
  EXPECT_EQ(legacy.nodes[1]->stats().verify_cache_misses, before);
  EXPECT_EQ(legacy.nodes[1]->verify_cache_hits(), 0u);
}

// ---- a store that refuses appends (durability gap 2, DESIGN.md §10) ----

/// MemStorage whose append fails for the first `refusals` records and
/// succeeds afterwards.
class RefusingStorage final : public Storage {
 public:
  explicit RefusingStorage(u32 refusals) : refusals_(refusals) {}

  bool append(const SignedAppend& rec) override {
    if (refusals_ > 0) {
      --refusals_;
      return false;
    }
    return inner_.append(rec);
  }
  std::optional<Snapshot> load_snapshot() override { return inner_.load_snapshot(); }
  bool write_snapshot(const Snapshot& snap) override { return inner_.write_snapshot(snap); }
  u64 replay(u64 from_seq, const std::function<void(const SignedAppend&)>& cb) override {
    return inner_.replay(from_seq, cb);
  }
  u64 log_seq() const override { return inner_.log_seq(); }
  FsyncPolicy fsync_policy() const override { return inner_.fsync_policy(); }
  const StorageStats& stats() const override { return inner_.stats(); }

 private:
  u32 refusals_;
  MemStorage inner_;
};

/// n = 3 over the simulated network; nodes in `refusing` get a store that
/// refuses every append, the others a working one.
struct DurableCluster {
  explicit DurableCluster(std::vector<u32> refusing, u64 seed = 3)
      : keys(3, seed), net(3, 0.05, 0.5, Rng(seed + 1)) {
    for (u32 i = 0; i < 3; ++i) {
      const bool refuses = std::find(refusing.begin(), refusing.end(), i) != refusing.end();
      if (refuses) {
        stores.push_back(std::make_unique<RefusingStorage>(~0u));
      } else {
        stores.push_back(std::make_unique<MemStorage>());
      }
      AbdConfig config;
      config.storage = stores.back().get();
      nodes.push_back(std::make_unique<AbdNode>(NodeId{i}, net, keys, config));
    }
  }

  crypto::KeyRegistry keys;
  Network net;
  std::vector<std::unique_ptr<Storage>> stores;
  std::vector<std::unique_ptr<AbdNode>> nodes;
};

TEST(AbdStorageFailure, OneRefusingStoreStillCompletesAppends) {
  DurableCluster c({2});
  bool from_healthy = false, from_refusing = false;
  c.nodes[0]->begin_append(1, [&] { from_healthy = true; });
  c.nodes[2]->begin_append(2, [&] { from_refusing = true; });
  c.net.queue().run();
  // Nodes 0 and 1 ack both appends: a quorum of 2 without node 2.
  EXPECT_TRUE(from_healthy);
  EXPECT_TRUE(from_refusing);
  // The refusing node still admitted both records, memory-only.
  EXPECT_EQ(c.nodes[2]->local_view().size(), 2u);
  EXPECT_EQ(c.nodes[2]->stats().log_bytes, 0u);
}

TEST(AbdStorageFailure, TwoRefusingStoresBlockAppends) {
  DurableCluster c({1, 2});
  bool appended = false;
  c.nodes[0]->begin_append(7, [&] { appended = true; });
  c.net.queue().run();
  // Only node 0 acks: one of a quorum of two.
  EXPECT_FALSE(appended);
  EXPECT_EQ(c.nodes[0]->appends_in_flight(), 1u);
  for (const auto& node : c.nodes) {
    ASSERT_EQ(node->local_view().size(), 1u);
    EXPECT_EQ(node->local_view()[0].value, 7);
  }
  // The refusing nodes still serve reads.
  std::vector<SignedAppend> result;
  c.nodes[1]->begin_read([&](const std::vector<SignedAppend>& view) { result = view; });
  c.net.queue().run();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].value, 7);
}

TEST(AbdStorageFailure, FirstRefusalWithholdsEveryLaterAck) {
  // One refusal, then a store that accepts again: the node stays silent,
  // as it would behind a FileLog whose degraded mode never recovers.
  crypto::KeyRegistry keys(3, 5);
  Network net(3, 0.05, 0.5, Rng(6));
  RefusingStorage refuses_once(1);
  MemStorage healthy;
  AbdConfig refusing_config;
  refusing_config.storage = &refuses_once;
  AbdConfig healthy_config;
  healthy_config.storage = &healthy;
  AbdNode author(NodeId{0}, net, keys, healthy_config);
  AbdNode degraded(NodeId{1}, net, keys, refusing_config);
  CrashedNode crashed(NodeId{2}, net);

  u32 completed = 0;
  for (i64 v = 0; v < 3; ++v) author.begin_append(v, [&] { ++completed; });
  net.queue().run();
  EXPECT_EQ(completed, 0u);
  EXPECT_EQ(degraded.local_view().size(), 3u);
  EXPECT_EQ(refuses_once.stats().log_records, 2u);  // the store took the later two
}

}  // namespace
}  // namespace amm::mp
