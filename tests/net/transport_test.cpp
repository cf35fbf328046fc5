// In-process TCP transport tests: a real loopback cluster of TcpTransports
// pumped round-robin from the test thread (the transport is a
// single-threaded reactor, so driving several of them from one thread is
// the supported composition). The same AbdNode code that the simulated
// Network drives runs here over real sockets — the transport seam's
// correctness condition.
#include "net/transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "mp/abd.hpp"
#include "net/decision.hpp"

namespace amm::net {
namespace {

using namespace std::chrono_literals;

/// A loopback cluster on ephemeral ports, fully wired.
struct TcpCluster {
  explicit TcpCluster(u32 n, u64 seed = 1) : keys(n, seed) {
    for (u32 i = 0; i < n; ++i) {
      TransportConfig config;
      config.self = NodeId{i};
      config.peers.assign(n, Endpoint{"127.0.0.1", 0});
      config.backoff_base = 5ms;  // tests should not wait out production backoff
      config.backoff_max = 50ms;
      transports.push_back(
          std::make_unique<TcpTransport>(config, keys, Rng::for_stream(seed, i)));
      EXPECT_TRUE(transports.back()->start());
    }
    for (u32 i = 0; i < n; ++i) {
      for (u32 j = 0; j < n; ++j) {
        transports[i]->set_peer_endpoint(NodeId{j},
                                         Endpoint{"127.0.0.1", transports[j]->listen_port()});
      }
    }
    for (auto& transport : transports) transport->connect_peers();
  }

  /// Pumps every transport until `done` or the deadline; returns done().
  bool pump_until(const std::function<bool()>& done,
                  std::chrono::milliseconds budget = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      for (auto& transport : transports) transport->poll_once(1ms);
      if (done()) return true;
    }
    return done();
  }

  /// Hosts an AbdNode on transport i, as amm_node does.
  std::unique_ptr<mp::AbdNode> host(u32 i, const mp::AbdConfig& config = {}) {
    return std::make_unique<mp::AbdNode>(NodeId{i}, *transports[i], keys, config);
  }

  crypto::KeyRegistry keys;
  std::vector<std::unique_ptr<TcpTransport>> transports;
};

TEST(TcpTransport, AbdAppendAndReadOverRealSockets) {
  TcpCluster cluster(3);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) {
    nodes.push_back(cluster.host(i));
  }

  bool append_done = false;
  nodes[0]->begin_append(42, [&] { append_done = true; });
  ASSERT_TRUE(cluster.pump_until([&] { return append_done; }));

  std::vector<mp::SignedAppend> result;
  bool read_done = false;
  nodes[2]->begin_read([&](const std::vector<mp::SignedAppend>& view) {
    result = view;
    read_done = true;
  });
  ASSERT_TRUE(cluster.pump_until([&] { return read_done; }));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].value, 42);
  EXPECT_EQ(result[0].author, NodeId{0});

  // §4 accounting: an append is one broadcast (n messages incl. self).
  EXPECT_GE(cluster.transports[0]->messages_sent(), 3u);
}

TEST(TcpTransport, PipelinedAppendsAndDeltaReadsOverRealSockets) {
  // Many appends issued back-to-back without waiting: the pipeline keeps
  // several in flight over the sockets and all complete; a subsequent read
  // is served from frontiers (delta mode is the default config).
  TcpCluster cluster(3);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) {
    nodes.push_back(cluster.host(i));
  }

  constexpr u32 kAppends = 48;
  u32 completed = 0;
  for (u32 v = 0; v < kAppends; ++v) {
    nodes[0]->begin_append(static_cast<i64>(v), [&] { ++completed; });
  }
  EXPECT_GT(nodes[0]->appends_in_flight(), 1u);  // actually pipelined
  EXPECT_EQ(nodes[0]->appends_in_flight() + nodes[0]->appends_queued(), kAppends);
  ASSERT_TRUE(cluster.pump_until([&] { return completed == kAppends; }));

  // Warm read syncs node 2's view; the second read's replies are deltas.
  for (int round = 0; round < 2; ++round) {
    std::vector<mp::SignedAppend> result;
    bool read_done = false;
    nodes[2]->begin_read([&](const std::vector<mp::SignedAppend>& view) {
      result = view;
      read_done = true;
    });
    ASSERT_TRUE(cluster.pump_until([&] { return read_done; }));
    ASSERT_EQ(result.size(), kAppends);
    // Submission order is preserved per author (the §1.1 register order).
    for (const mp::SignedAppend& rec : result) {
      EXPECT_EQ(static_cast<i64>(rec.seq), rec.value);
    }
  }
  u64 delta_served = 0, records_sent = 0;
  for (const auto& node : nodes) {
    delta_served += node->stats().reads_served_delta;
    records_sent += node->stats().read_records_sent;
  }
  EXPECT_GT(delta_served, 0u);
  // The second read was fully synced: far fewer records shipped than two
  // full-view reads (2 reads x 3 replies x 48 records = 288) would cost.
  EXPECT_LT(records_sent, 2u * 3u * kAppends);
}

TEST(TcpTransport, FollowerVerifiesEachReceivedSignatureOnce) {
  // The node is the one place signatures are checked: a follower's
  // registry verifications equal the distinct signatures it received,
  // however often each arrived — broadcast, then every full read reply,
  // which re-carries records the follower already holds.
  TcpCluster cluster(3);
  mp::AbdConfig full_reads;
  full_reads.delta_reads = false;  // replies re-carry every record
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) nodes.push_back(cluster.host(i, full_reads));

  constexpr u32 kAppends = 24;
  u32 completed = 0;
  for (u32 v = 0; v < kAppends; ++v) {
    nodes[0]->begin_append(static_cast<i64>(v), [&] { ++completed; });
  }
  ASSERT_TRUE(cluster.pump_until(
      [&] { return completed == kAppends && nodes[2]->local_view().size() == kAppends; }));
  for (int round = 0; round < 2; ++round) {
    bool read_done = false;
    nodes[2]->begin_read([&](const std::vector<mp::SignedAppend>&) { read_done = true; });
    ASSERT_TRUE(cluster.pump_until([&] { return read_done; }));
  }

  // Follower 2 received author 0's kAppends signatures and nothing else
  // signed: its acks go to the author, and the replies carry the same
  // records. Each verified once; every later sighting was skipped as held.
  const mp::NodeStats stats = nodes[2]->stats();
  EXPECT_EQ(stats.verify_cache_misses, kAppends);
  EXPECT_EQ(stats.verify_cache_hits, 0u);
}

TEST(TcpTransport, AppendCompletesWithMinorityDown) {
  // 3-node cluster, one transport never started its node: quorum 2 of 3
  // still completes — the Lemma 4.2 liveness condition on real sockets.
  TcpCluster cluster(3);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 2; ++i) {
    nodes.push_back(cluster.host(i));
  }
  cluster.transports[2]->stop();  // node 2 is dead

  bool append_done = false;
  nodes[0]->begin_append(7, [&] { append_done = true; });
  EXPECT_TRUE(cluster.pump_until([&] { return append_done; }));
}

TEST(TcpTransport, ReconnectsAfterKickAndDeliversQueuedFrames) {
  TcpCluster cluster(2);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 2; ++i) {
    nodes.push_back(cluster.host(i));
  }
  ASSERT_TRUE(
      cluster.pump_until([&] { return cluster.transports[0]->connected_outbound() == 1; }));

  cluster.transports[0]->kick_outbound();
  cluster.transports[1]->kick_outbound();

  // An append begun while the links are down must still complete: frames
  // queue per peer and flush after the backoff redial.
  bool append_done = false;
  nodes[0]->begin_append(5, [&] { append_done = true; });
  ASSERT_TRUE(cluster.pump_until([&] { return append_done; }));
  EXPECT_GE(cluster.transports[0]->reconnects(), 1u);
}

TEST(TcpTransport, UnauthenticatedHelloDropped) {
  TcpCluster cluster(2, /*seed=*/1);
  // An impostor with a *different* key universe dials node 0 and claims to
  // be node 1. Its hello signature cannot verify against the cluster's
  // registry, so the session must die with auth_rejects == 1.
  crypto::KeyRegistry foreign_keys(2, /*seed=*/999);
  TransportConfig config;
  config.self = NodeId{1};
  config.peers.assign(2, Endpoint{"127.0.0.1", 0});
  config.backoff_base = 5ms;
  TcpTransport impostor(config, foreign_keys, Rng(3));
  ASSERT_TRUE(impostor.start());
  impostor.set_peer_endpoint(NodeId{0},
                             Endpoint{"127.0.0.1", cluster.transports[0]->listen_port()});
  impostor.connect_peers();

  mp::WireMessage probe;
  probe.kind = mp::WireMessage::Kind::kReadReq;
  probe.read_id = 1;
  impostor.send(NodeId{1}, NodeId{0}, probe);

  u64 handler_calls = 0;
  cluster.transports[0]->attach(NodeId{0},
                                [&](NodeId, const mp::WireMessage&) { ++handler_calls; });

  const auto deadline = std::chrono::steady_clock::now() + 1000ms;
  while (std::chrono::steady_clock::now() < deadline &&
         cluster.transports[0]->auth_rejects() == 0) {
    impostor.poll_once(1ms);
    cluster.transports[0]->poll_once(1ms);
  }
  EXPECT_GE(cluster.transports[0]->auth_rejects(), 1u);
  EXPECT_EQ(handler_calls, 0u);
}

TEST(TcpTransport, ForgedAppendRejectedOnTheWire) {
  // A correctly authenticated peer injecting a record with a forged author
  // signature: the transport delivers it like any decoded message, and the
  // hosted node rejects it — neither admitted nor acked (Lemma 4.1 runs in
  // the node, for every transport).
  TcpCluster cluster(2);
  const std::unique_ptr<mp::AbdNode> node = cluster.host(0);
  u64 acks = 0, replies = 0;
  cluster.transports[1]->attach(NodeId{1}, [&](NodeId, const mp::WireMessage& msg) {
    if (msg.kind == mp::WireMessage::Kind::kAck) ++acks;
    if (msg.kind == mp::WireMessage::Kind::kReadReply) ++replies;
  });

  // Both claim node 1 as author, so an ack would come back to node 1.
  mp::WireMessage forged;
  forged.kind = mp::WireMessage::Kind::kAppend;
  forged.append.author = NodeId{1};
  forged.append.seq = 1;
  forged.append.value = -42;
  forged.append.sig = cluster.keys.sign(NodeId{0}, forged.append.digest());  // signer != author
  cluster.transports[1]->send(NodeId{1}, NodeId{0}, forged);
  forged.append.sig = cluster.keys.sign(NodeId{1}, forged.append.digest());
  forged.append.sig.tag ^= 1;  // the author's key, a forged tag
  cluster.transports[1]->send(NodeId{1}, NodeId{0}, forged);

  mp::WireMessage valid;
  valid.kind = mp::WireMessage::Kind::kReadReq;
  valid.read_id = 9;
  cluster.transports[1]->send(NodeId{1}, NodeId{0}, valid);

  // Per-session FIFO: the read reply means the forgeries were handled
  // first, and an ack would have been sent before it.
  ASSERT_TRUE(cluster.pump_until([&] { return replies > 0; }));
  EXPECT_EQ(acks, 0u);
  EXPECT_TRUE(node->local_view().empty());
  EXPECT_EQ(node->stats().sig_rejects, 2u);
}

TEST(TcpTransport, DecisionRuleAgreesAcrossNodes) {
  // Replicate a handful of appends, then apply Algorithm 6's decision rule
  // at two different nodes: identical views ⇒ identical decisions.
  TcpCluster cluster(3);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) {
    nodes.push_back(cluster.host(i));
  }
  for (int v : {1, -2, 3, -4, 5}) {
    bool done = false;
    nodes[static_cast<u32>(v > 0 ? 0 : 1)]->begin_append(v, [&] { done = true; });
    ASSERT_TRUE(cluster.pump_until([&] { return done; }));
  }

  std::vector<Decision> decisions;
  for (const u32 reader : {0u, 2u}) {
    bool done = false;
    nodes[reader]->begin_read([&](const std::vector<mp::SignedAppend>& view) {
      decisions.push_back(decide_first_k(view, 5));
      done = true;
    });
    ASSERT_TRUE(cluster.pump_until([&] { return done; }));
  }
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].sign, decisions[1].sign);
  EXPECT_EQ(decisions[0].decided_over, 5u);
  EXPECT_NE(decisions[0].sign, 0);
}

}  // namespace
}  // namespace amm::net
