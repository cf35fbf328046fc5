// AbdNode crash/recovery through the mp::Storage seam (DESIGN.md §10).
//
// A "restart" here is the MemStorage fixture the seam was designed around:
// destroy the AbdNode, keep the storage instance, construct a fresh node
// on the same storage and call recover_from_storage(). The properties
// pinned:
//
//   * replaying the log reproduces the pre-crash local view byte for byte
//     (records in admission order, signatures included) and preserves
//     next_seq, so a recovered author never reuses a sequence number;
//   * recovery from *any* log prefix — every possible crash point — yields
//     exactly that prefix of the pre-crash view, never a permutation or an
//     invented record;
//   * a tampered snapshot fails its self-signature and is rejected
//     wholesale (the node falls back to replaying the retained log);
//   * the same lifecycle holds for the real storage::FileLog backend
//     against a temp directory, including a torn tail from a mid-write
//     crash.
#include "mp/abd.hpp"

#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "mp/network.hpp"
#include "mp/storage.hpp"
#include "storage/file_log.hpp"

namespace amm::mp {
namespace {

struct Cluster {
  Cluster(u32 n, u64 seed, const AbdConfig& zero_config, const AbdConfig& rest_config = {})
      : keys(n, seed), net(n, 0.05, 0.5, Rng(seed + 1)) {
    nodes.push_back(std::make_unique<AbdNode>(NodeId{0}, net, keys, zero_config));
    for (u32 i = 1; i < n; ++i) {
      nodes.push_back(std::make_unique<AbdNode>(NodeId{i}, net, keys, rest_config));
    }
  }

  void run() { net.queue().run(); }

  /// Issues `count` appends round-robin across the nodes and drains the
  /// network — every correct node ends up admitting every record.
  void append_round_robin(u32 count, i64 base) {
    for (u32 i = 0; i < count; ++i) {
      nodes[i % nodes.size()]->begin_append(base + i, [] {});
    }
    run();
  }

  /// Like append_round_robin, but drains the network after every append —
  /// records arrive (mostly) in seq order, so watermarks and the stability
  /// cut advance as the history grows (what compaction tests need).
  void append_sequential(u32 count, i64 base) {
    for (u32 i = 0; i < count; ++i) {
      nodes[i % nodes.size()]->begin_append(base + i, [] {});
      run();
    }
  }

  /// Simulates a crash+restart of node 0: the old instance is destroyed
  /// (its storage survives it) and a fresh one recovers from storage.
  u64 restart_zero(const AbdConfig& config) {
    nodes[0].reset();
    nodes[0] = std::make_unique<AbdNode>(NodeId{0}, net, keys, config);
    return nodes[0]->recover_from_storage();
  }

  crypto::KeyRegistry keys;
  Network net;
  std::vector<std::unique_ptr<AbdNode>> nodes;
};

void expect_views_equal(const std::vector<SignedAppend>& got,
                        const std::vector<SignedAppend>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (usize i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "record " << i;
    EXPECT_TRUE(got[i].sig == want[i].sig) << "record " << i;
  }
}

void expect_no_duplicate_author_seq(const std::vector<SignedAppend>& view) {
  for (usize i = 0; i < view.size(); ++i) {
    for (usize j = i + 1; j < view.size(); ++j) {
      EXPECT_FALSE(view[i].author == view[j].author && view[i].seq == view[j].seq)
          << "duplicate (author " << view[i].author.index << ", seq " << view[i].seq << ")";
    }
  }
}

TEST(Recovery, LogReplayReproducesViewAndNextSeq) {
  MemStorage store;
  AbdConfig cfg;
  cfg.storage = &store;
  cfg.snapshot_interval = 0;  // pure log replay, no snapshot involved
  Cluster c(4, 7, cfg);
  c.append_round_robin(20, 100);

  const std::vector<SignedAppend> before = c.nodes[0]->local_view();
  const u32 issued = c.nodes[0]->appends_issued();
  ASSERT_EQ(before.size(), 20u);
  ASSERT_EQ(store.log_seq(), before.size());  // every admission persisted

  const u64 replayed = c.restart_zero(cfg);
  EXPECT_EQ(replayed, before.size());
  EXPECT_EQ(c.nodes[0]->stats().recovery_replayed_records, replayed);
  expect_views_equal(c.nodes[0]->local_view(), before);
  EXPECT_EQ(c.nodes[0]->appends_issued(), issued);  // no seq reuse after restart

  // The recovered node keeps participating; nothing is double-appended.
  c.append_round_robin(8, 500);
  for (const auto& node : c.nodes) {
    EXPECT_EQ(node->local_view().size(), 28u);
    expect_no_duplicate_author_seq(node->local_view());
  }
}

TEST(Recovery, EveryCrashPointYieldsExactViewPrefix) {
  MemStorage store;
  AbdConfig cfg;
  cfg.storage = &store;
  cfg.snapshot_interval = 0;
  Cluster c(4, 11, cfg);
  c.append_round_robin(12, 100);

  std::vector<SignedAppend> log;
  store.replay(0, [&](const SignedAppend& r) { log.push_back(r); });
  // Admission order *is* the log order, so the pre-crash view and the full
  // log agree record for record.
  ASSERT_NO_FATAL_FAILURE(expect_views_equal(log, c.nodes[0]->local_view()));

  for (usize crash = 0; crash <= log.size(); ++crash) {
    MemStorage partial;
    for (usize i = 0; i < crash; ++i) ASSERT_TRUE(partial.append(log[i]));
    Network lone(4, 0.05, 0.5, Rng(99));
    AbdConfig recover_cfg = cfg;
    recover_cfg.storage = &partial;
    AbdNode node(NodeId{0}, lone, c.keys, recover_cfg);
    EXPECT_EQ(node.recover_from_storage(), crash);
    const std::vector<SignedAppend> prefix(log.begin(),
                                           log.begin() + static_cast<std::ptrdiff_t>(crash));
    ASSERT_NO_FATAL_FAILURE(expect_views_equal(node.local_view(), prefix)) << "crash=" << crash;
  }
}

TEST(Recovery, SnapshotPlusSuffixReplayMatchesFullView) {
  MemStorage store;
  AbdConfig cfg;
  cfg.storage = &store;
  cfg.snapshot_interval = 8;
  Cluster c(4, 13, cfg);
  c.append_round_robin(30, 100);

  const std::vector<SignedAppend> before = c.nodes[0]->local_view();
  ASSERT_GE(store.stats().snapshot_count, 2u);
  ASSERT_TRUE(store.load_snapshot().has_value());

  const u64 replayed = c.restart_zero(cfg);
  // The snapshot absorbed a prefix; only the suffix above it replays.
  EXPECT_LT(replayed, before.size());
  expect_views_equal(c.nodes[0]->local_view(), before);

  c.append_round_robin(6, 900);
  for (const auto& node : c.nodes) {
    EXPECT_EQ(node->local_view().size(), 36u);
    expect_no_duplicate_author_seq(node->local_view());
  }
}

TEST(Recovery, TamperedSnapshotRejectedFallsBackToLogReplay) {
  MemStorage store;
  AbdConfig cfg;
  cfg.storage = &store;
  cfg.snapshot_interval = 8;
  Cluster c(4, 17, cfg);
  c.append_round_robin(20, 100);

  auto snap = store.load_snapshot();
  ASSERT_TRUE(snap.has_value());
  snap->next_seq += 1000;  // tamper; the old self-signature no longer covers it
  ASSERT_TRUE(store.write_snapshot(*snap));

  u64 retained = 0;
  store.replay(0, [&](const SignedAppend&) { ++retained; });

  const u64 replayed = c.restart_zero(cfg);
  // The snapshot is rejected wholesale: everything the node recovers
  // locally is the retained log suffix, and the forged next_seq is not
  // adopted (the counter rebuilds from the node's own replayed records).
  EXPECT_EQ(replayed, retained);
  EXPECT_EQ(c.nodes[0]->local_view().size(), retained);
  EXPECT_LT(c.nodes[0]->appends_issued(), 1000u);
}

TEST(Recovery, CheckpointAndSummaryModeSurviveRestart) {
  MemStorage store;
  AbdConfig cfg;
  cfg.storage = &store;
  cfg.snapshot_interval = 8;
  cfg.compact.enabled = true;
  cfg.compact.retain_records = false;  // summary mode: folded bodies erased
  cfg.compact.lag = 0;
  cfg.compact.quantum = 1;
  cfg.compact.auto_interval = 4;
  AbdConfig rest = cfg;
  rest.storage = nullptr;
  Cluster c(3, 19, cfg, rest);
  c.append_sequential(30, 100);

  const Checkpoint before_cp = c.nodes[0]->checkpoint();
  const std::vector<SignedAppend> before = c.nodes[0]->local_view();
  ASSERT_GT(before_cp.folded_records, 0u);
  ASSERT_LT(before.size(), 30u);  // summary mode really erased a prefix

  c.restart_zero(cfg);
  EXPECT_TRUE(c.nodes[0]->checkpoint().structurally_equal(before_cp));
  expect_views_equal(c.nodes[0]->local_view(), before);

  c.append_round_robin(6, 700);
  expect_no_duplicate_author_seq(c.nodes[0]->local_view());
}

TEST(Recovery, FileLogBackendSurvivesRestartWithTornTail) {
  char tmpl[] = "/tmp/amm_recovery_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string store_dir = dir;

  storage::FileLogConfig store_cfg{.dir = store_dir, .fsync = mp::FsyncPolicy::kAlways};
  AbdConfig cfg;
  cfg.snapshot_interval = 8;

  std::vector<SignedAppend> before;
  u32 issued = 0;
  {
    auto store = std::make_unique<storage::FileLog>(store_cfg);
    ASSERT_TRUE(store->ok()) << store->error();
    cfg.storage = store.get();
    Cluster c(3, 23, cfg);
    c.append_round_robin(20, 100);
    before = c.nodes[0]->local_view();
    issued = c.nodes[0]->appends_issued();
    c.nodes[0].reset();  // node dies before its backend
  }

  // The crash tore a partial frame onto the end of the last segment.
  const auto segments = storage::list_store_files(store_dir, "seg-", ".log");
  ASSERT_FALSE(segments.empty());
  std::FILE* f = std::fopen((store_dir + "/" + segments.back()).c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const u8 torn[7] = {1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(std::fwrite(torn, 1, sizeof torn, f), sizeof torn);
  std::fclose(f);

  auto store = std::make_unique<storage::FileLog>(store_cfg);
  ASSERT_TRUE(store->ok()) << store->error();
  EXPECT_EQ(store->stats().torn_tail_bytes, sizeof torn);
  cfg.storage = store.get();
  crypto::KeyRegistry keys(3, 23);
  Network lone(3, 0.05, 0.5, Rng(5));
  AbdNode node(NodeId{0}, lone, keys, cfg);
  const u64 replayed = node.recover_from_storage();
  // snapshot_interval=8 over 20 admissions: the newest snapshot covers log
  // position 16, so exactly the 4-record suffix replays.
  EXPECT_EQ(replayed, 4u);
  expect_views_equal(node.local_view(), before);
  EXPECT_EQ(node.appends_issued(), issued);

  store.reset();
  if (DIR* d = ::opendir(store_dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") ::unlink((store_dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(store_dir.c_str());
}

}  // namespace
}  // namespace amm::mp
