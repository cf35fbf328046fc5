// EventLoop backend tests: unit semantics of both readiness backends, the
// timeout-clamp regression, writev batching (ctl replies included) and
// two-class flush ordering, per-peer backpressure, and the cross-backend
// parity suite — the same transport workload must deliver the same
// per-author message sequences and the same final ABD views whether epoll
// or poll is underneath.
#include "net/event_loop.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

#include "mp/abd.hpp"
#include "net/peer.hpp"
#include "net/transport.hpp"

namespace amm::net {
namespace {

using namespace std::chrono_literals;

/// Every backend constructible on this platform (poll everywhere, epoll
/// where the platform has it) — the unit tests run under each.
std::vector<LoopBackend> available_backends() {
  std::vector<LoopBackend> backends{LoopBackend::kPoll};
  if (EventLoop::make(LoopBackend::kEpoll)) backends.push_back(LoopBackend::kEpoll);
  return backends;
}

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int reader() const { return fds[0]; }
  int writer() const { return fds[1]; }
  void write_byte() const { ASSERT_EQ(::write(writer(), "x", 1), 1); }
};

TEST(EventLoop, ParseBackendNames) {
  EXPECT_EQ(parse_loop_backend("poll"), LoopBackend::kPoll);
  EXPECT_EQ(parse_loop_backend("epoll"), LoopBackend::kEpoll);
  EXPECT_EQ(parse_loop_backend("auto"), LoopBackend::kAuto);
  EXPECT_EQ(parse_loop_backend("bogus"), LoopBackend::kAuto);
}

TEST(EventLoop, AddModifyRemoveAndReadiness) {
  for (const LoopBackend backend : available_backends()) {
    const auto loop = EventLoop::make(backend);
    ASSERT_TRUE(loop);
    Pipe pipe;
    EXPECT_TRUE(loop->add(pipe.reader(), 7, EventLoop::kRead));
    EXPECT_FALSE(loop->add(pipe.reader(), 8, EventLoop::kRead));  // one reg per fd
    EXPECT_EQ(loop->watched(), 1u);

    std::vector<ReadyEvent> events;
    EXPECT_EQ(loop->wait(0ms, &events), 0) << loop->name();

    pipe.write_byte();
    ASSERT_EQ(loop->wait(1000ms, &events), 1) << loop->name();
    EXPECT_EQ(events[0].token, 7u);
    EXPECT_TRUE(events[0].readable);
    EXPECT_FALSE(events[0].writable);

    // Interest masked off: the pending byte no longer surfaces.
    EXPECT_TRUE(loop->modify(pipe.reader(), 7, 0));
    EXPECT_EQ(loop->wait(0ms, &events), 0) << loop->name();

    loop->remove(pipe.reader());
    EXPECT_EQ(loop->watched(), 0u);
    EXPECT_EQ(loop->wait(0ms, &events), 0) << loop->name();
    EXPECT_FALSE(loop->modify(pipe.reader(), 7, EventLoop::kRead));
  }
}

TEST(EventLoop, TokensSurviveFdReuse) {
  // The loop reports tokens, not fds: after remove+close, a new
  // registration that recycles the same descriptor number must surface
  // with the *new* token.
  for (const LoopBackend backend : available_backends()) {
    const auto loop = EventLoop::make(backend);
    ASSERT_TRUE(loop);
    auto first = std::make_unique<Pipe>();
    const int old_fd = first->reader();
    EXPECT_TRUE(loop->add(first->reader(), 1, EventLoop::kRead));
    loop->remove(first->reader());
    first.reset();  // closes the fds; the next pipe() typically reuses them

    Pipe second;
    EXPECT_TRUE(loop->add(second.reader(), 2, EventLoop::kRead));
    second.write_byte();
    std::vector<ReadyEvent> events;
    ASSERT_EQ(loop->wait(1000ms, &events), 1) << loop->name();
    EXPECT_EQ(events[0].token, 2u) << "stale registration for fd " << old_fd;
    loop->remove(second.reader());
  }
}

TEST(EventLoop, HugeTimeoutDoesNotTruncate) {
  // Regression: the old reactor passed static_cast<int>(wait_ms) straight
  // to ::poll, so a wait beyond INT_MAX ms went negative — an infinite
  // poll. A ready fd must surface immediately no matter how large the
  // timeout.
  for (const LoopBackend backend : available_backends()) {
    const auto loop = EventLoop::make(backend);
    ASSERT_TRUE(loop);
    Pipe pipe;
    ASSERT_TRUE(loop->add(pipe.reader(), 1, EventLoop::kRead));
    pipe.write_byte();
    std::vector<ReadyEvent> events;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(loop->wait(std::chrono::milliseconds(i64{1} << 31), &events), 1) << loop->name();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
    loop->remove(pipe.reader());
  }
}

TEST(EventLoop, TimeoutDeadlineHonored) {
  for (const LoopBackend backend : available_backends()) {
    const auto loop = EventLoop::make(backend);
    ASSERT_TRUE(loop);
    Pipe pipe;  // registered but never written — pure timeout path
    ASSERT_TRUE(loop->add(pipe.reader(), 1, EventLoop::kRead));
    std::vector<ReadyEvent> events;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(loop->wait(60ms, &events), 0) << loop->name();
    EXPECT_GE(std::chrono::steady_clock::now() - t0, 55ms) << loop->name();
    loop->remove(pipe.reader());
  }
}

// ---- vectored flush + two-class queue semantics (peer.hpp) ----

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int sender() const { return fds[0]; }
  int receiver() const { return fds[1]; }
  /// Drains whatever is currently readable into `out`.
  void drain(std::vector<u8>& out) const {
    u8 chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(receiver(), chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n <= 0) break;
      out.insert(out.end(), chunk, chunk + n);
    }
  }
};

std::vector<u8> blob(usize size, u8 fill) { return std::vector<u8>(size, fill); }

TEST(SessionQueue, WatermarkRefusesReplButNeverCtl) {
  Session session;
  session.paused = true;
  EXPECT_FALSE(session.queue_frame(TxClass::kRepl, blob(8, 1)));
  EXPECT_TRUE(session.queue_frame(TxClass::kCtl, blob(8, 2)));
  EXPECT_EQ(session.tx_bytes, 8u);
  session.paused = false;
  EXPECT_TRUE(session.queue_frame(TxClass::kRepl, blob(8, 3)));
  EXPECT_EQ(session.tx_bytes, 16u);
}

TEST(SessionFlush, CoalescesSmallFramesIntoFewSyscalls) {
  SocketPair pair;
  Session session;
  session.fd = pair.sender();
  constexpr usize kFrames = 100;
  for (usize i = 0; i < kFrames; ++i) {
    session.queue_frame(TxClass::kRepl, blob(64, static_cast<u8>(i)));
  }
  const FlushResult result = flush_session_buffers(session);
  EXPECT_FALSE(result.fatal);
  EXPECT_EQ(result.bytes, kFrames * 64u);
  EXPECT_EQ(session.tx_bytes, 0u);
  // 100 frames through 64-entry iovec chains: 2 sendmsg calls, not 100.
  EXPECT_EQ(result.syscalls, 2u);
}

TEST(SessionFlush, CtlCutsAheadOfUnstartedReplFramesAcrossPartialWrites) {
  SocketPair pair;
  const int sndbuf = 8 * 1024;
  ASSERT_EQ(::setsockopt(pair.sender(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);

  Session session;
  session.fd = pair.sender();
  constexpr usize kRepl = 10;
  constexpr usize kFrameSize = 4096;
  for (usize i = 0; i < kRepl; ++i) {
    session.queue_frame(TxClass::kRepl, blob(kFrameSize, static_cast<u8>(i)));
  }
  // First flush stalls on the tiny send buffer with frames left over.
  EXPECT_FALSE(flush_session_buffers(session).fatal);
  ASSERT_GT(session.tx_bytes, 0u);

  // Reconstruct the exact wire order the flush discipline promises: the
  // partially written front (if any) completes first, then the ctl frame,
  // then the remaining replication frames in order.
  auto& repl = session.tx[static_cast<usize>(TxClass::kRepl)];
  const usize remaining = repl.size();
  std::vector<u8> expected;
  for (usize i = 0; i < kRepl - remaining; ++i) {
    const auto f = blob(kFrameSize, static_cast<u8>(i));
    expected.insert(expected.end(), f.begin(), f.end());
  }
  usize next_repl = kRepl - remaining;
  if (session.tx_active == static_cast<int>(TxClass::kRepl)) {
    const auto f = blob(kFrameSize, static_cast<u8>(next_repl++));
    expected.insert(expected.end(), f.begin(), f.end());
  }
  const auto ctl = blob(kFrameSize, 0xCC);
  expected.insert(expected.end(), ctl.begin(), ctl.end());
  for (usize i = next_repl; i < kRepl; ++i) {
    const auto f = blob(kFrameSize, static_cast<u8>(i));
    expected.insert(expected.end(), f.begin(), f.end());
  }

  session.queue_frame(TxClass::kCtl, blob(kFrameSize, 0xCC));

  std::vector<u8> received;
  for (int round = 0; round < 1000 && (session.tx_bytes > 0 || round == 0); ++round) {
    pair.drain(received);
    ASSERT_FALSE(flush_session_buffers(session).fatal);
  }
  pair.drain(received);
  ASSERT_EQ(session.tx_bytes, 0u);
  ASSERT_EQ(received.size(), (kRepl + 1) * kFrameSize);
  EXPECT_EQ(received, expected);
  session.fd = -1;
}

TEST(SessionFlush, FatalErrorReported) {
  SocketPair pair;
  Session session;
  session.fd = pair.sender();
  ::close(pair.fds[1]);
  pair.fds[1] = -1;
  // Large enough to overflow the socket buffer so sendmsg must hit the
  // closed peer (a small first write can land entirely in the buffer).
  for (int i = 0; i < 64; ++i) session.queue_frame(TxClass::kRepl, blob(65536, 1));
  FlushResult result = flush_session_buffers(session);
  if (!result.fatal) result = flush_session_buffers(session);  // second write sees EPIPE
  EXPECT_TRUE(result.fatal);
}

// ---- transport-level suites, run under each backend ----

/// A loopback cluster on ephemeral ports with a fixed readiness backend.
struct BackendCluster {
  BackendCluster(u32 n, LoopBackend backend, u64 seed = 1,
                 usize high_watermark = 4u << 20, usize low_watermark = 1u << 20)
      : keys(n, seed) {
    for (u32 i = 0; i < n; ++i) {
      TransportConfig config;
      config.self = NodeId{i};
      config.peers.assign(n, Endpoint{"127.0.0.1", 0});
      config.backend = backend;
      config.backoff_base = 5ms;
      config.backoff_max = 50ms;
      config.outbound_high_watermark = high_watermark;
      config.outbound_low_watermark = low_watermark;
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
  }

  void connect_all() {
    for (auto& transport : transports) transport->connect_peers();
  }

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

/// Drives a fixed two-author workload under `backend` and returns the
/// receiver-side delivered sequence as (author, seq) pairs.
std::vector<std::pair<u32, u32>> delivered_sequence(LoopBackend backend) {
  BackendCluster cluster(3, backend);
  cluster.connect_all();
  std::vector<std::pair<u32, u32>> delivered;
  cluster.transports[2]->attach(NodeId{2}, [&](NodeId from, const mp::WireMessage& msg) {
    if (msg.kind == mp::WireMessage::Kind::kAppend) {
      delivered.emplace_back(from.index, msg.append.seq);
    }
  });
  constexpr u32 kPerAuthor = 200;
  for (u32 seq = 0; seq < kPerAuthor; ++seq) {
    for (const u32 author : {0u, 1u}) {
      mp::WireMessage msg;
      msg.kind = mp::WireMessage::Kind::kAppend;
      msg.append.author = NodeId{author};
      msg.append.seq = seq;
      msg.append.value = static_cast<i64>(seq);
      msg.append.sig = cluster.keys.sign(NodeId{author}, msg.append.digest());
      cluster.transports[author]->send(NodeId{author}, NodeId{2}, msg);
    }
  }
  EXPECT_TRUE(cluster.pump_until([&] { return delivered.size() == 2 * kPerAuthor; }))
      << "delivered " << delivered.size();
  return delivered;
}

TEST(TransportParity, SameDeliveredSequencesUnderEveryBackend) {
  const auto backends = available_backends();
  std::vector<std::vector<std::pair<u32, u32>>> runs;
  for (const LoopBackend backend : backends) runs.push_back(delivered_sequence(backend));
  for (const auto& run : runs) {
    // Per-author FIFO: each author's seqs arrive in order...
    u32 next[2] = {0, 0};
    for (const auto& [author, seq] : run) {
      ASSERT_LT(author, 2u);
      EXPECT_EQ(seq, next[author]);
      next[author] = seq + 1;
    }
  }
  // ...and every backend delivered the complete workload. Together with
  // per-author FIFO this pins the parity claim the transport makes: each
  // author's delivered subsequence is identical under every backend (the
  // cross-author interleaving is TCP-timing dependent on any backend, so
  // only the per-author projections are deterministic).
  for (usize i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].size(), runs[0].size());
  }
}

/// Full ABD parity: the same append workload must converge to the same
/// final view under every backend.
std::vector<mp::SignedAppend> final_view(LoopBackend backend) {
  BackendCluster cluster(3, backend);
  cluster.connect_all();
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) {
    nodes.push_back(cluster.host(i));
  }
  u32 completed = 0;
  constexpr u32 kAppends = 32;
  for (u32 v = 0; v < kAppends; ++v) {
    nodes[v % 2]->begin_append(static_cast<i64>(v), [&] { ++completed; });
  }
  EXPECT_TRUE(cluster.pump_until([&] { return completed == kAppends; }));
  std::vector<mp::SignedAppend> result;
  bool read_done = false;
  nodes[2]->begin_read([&](const std::vector<mp::SignedAppend>& view) {
    result = view;
    read_done = true;
  });
  EXPECT_TRUE(cluster.pump_until([&] { return read_done; }));
  return result;
}

TEST(TransportParity, SameFinalAbdViewUnderEveryBackend) {
  const auto backends = available_backends();
  std::vector<std::vector<mp::SignedAppend>> views;
  for (const LoopBackend backend : backends) views.push_back(final_view(backend));
  for (const auto& view : views) ASSERT_EQ(view.size(), 32u);
  for (usize i = 1; i < views.size(); ++i) {
    ASSERT_EQ(views[i].size(), views[0].size());
    for (usize r = 0; r < views[0].size(); ++r) {
      EXPECT_EQ(views[i][r], views[0][r]) << "record " << r << " differs between "
                                          << "backends";
    }
  }
}

TEST(TransportBackpressure, SlowReaderHitsWatermarkAndResumes) {
  for (const LoopBackend backend : available_backends()) {
    // Tight watermarks so a non-polling receiver trips them quickly.
    constexpr usize kHigh = 256u << 10;
    constexpr usize kLow = 64u << 10;
    BackendCluster cluster(2, backend, /*seed=*/1, kHigh, kLow);
    cluster.transports[0]->connect_peers();  // only 0 dials; 1 never polls yet

    // Pump only the sender: the receiver's TCP handshake completes in the
    // kernel via the listen backlog, but no byte is ever read, so the
    // socket buffers and then the sender's session queue fill up.
    const auto pump_sender = [&](const std::function<bool()>& done,
                                 std::chrono::milliseconds budget) {
      const auto deadline = std::chrono::steady_clock::now() + budget;
      while (std::chrono::steady_clock::now() < deadline) {
        cluster.transports[0]->poll_once(1ms);
        if (done()) return true;
      }
      return done();
    };
    ASSERT_TRUE(pump_sender(
        [&] { return cluster.transports[0]->connected_outbound() == 1; }, 2000ms));

    // ~28 KB per message: a few hundred overwhelm the socket buffers of a
    // receiver that never drains, pushing the session over the watermark.
    mp::WireMessage big;
    big.kind = mp::WireMessage::Kind::kReadReply;
    big.read_id = 1;
    for (u32 r = 0; r < 1000; ++r) {
      mp::SignedAppend rec;
      rec.author = NodeId{0};
      rec.seq = r;
      rec.value = static_cast<i64>(r);
      rec.sig = cluster.keys.sign(NodeId{0}, rec.digest());
      big.view.push_back(rec);
    }
    const usize frame_bytes = big.wire_size() + kFrameHeaderBytes + 1;
    constexpr u32 kMessages = 300;
    for (u32 m = 0; m < kMessages; ++m) {
      cluster.transports[0]->send(NodeId{0}, NodeId{1}, big);
      cluster.transports[0]->poll_once(0ms);
      if (cluster.transports[0]->backpressure_drops() > 0) break;
    }
    EXPECT_GT(cluster.transports[0]->backpressure_drops(), 0u) << "backend "
        << cluster.transports[0]->backend_name();
    EXPECT_TRUE(cluster.transports[0]->outbound_paused(NodeId{1}));
    // Memory stays bounded: the queue never exceeds the high watermark by
    // more than the single frame that crossed it.
    EXPECT_LE(cluster.transports[0]->outbound_queued_bytes(NodeId{1}), kHigh + frame_bytes);

    // The receiver wakes up: the queue drains below the low watermark and
    // replication resumes; the delivered messages are intact.
    u64 delivered = 0, intact = 0;
    cluster.transports[1]->attach(NodeId{1}, [&](NodeId, const mp::WireMessage& msg) {
      if (msg.kind != mp::WireMessage::Kind::kReadReply) return;
      ++delivered;
      if (std::equal(msg.view.begin(), msg.view.end(), big.view.begin(), big.view.end(),
                     [](const mp::SignedAppend& a, const mp::SignedAppend& b) {
                       return a == b && a.sig == b.sig;
                     })) {
        ++intact;
      }
    });
    ASSERT_TRUE(cluster.pump_until(
        [&] { return cluster.transports[0]->outbound_queued_bytes(NodeId{1}) == 0; }, 10000ms));
    EXPECT_FALSE(cluster.transports[0]->outbound_paused(NodeId{1}));
    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(intact, delivered);
  }
}

TEST(TransportTeardown, KickFromCtlHandlerMidDispatchIsSafe) {
  // Regression for the deferred-kick teardown path: a ctl handler firing
  // kick_outbound() mid-dispatch tears down sessions whose fds are still
  // registered with the loop. Stale registrations would poison fd reuse
  // (EPOLL_CTL_ADD -> EEXIST => dead links); post-kick liveness proves
  // the teardown unregistered everything.
  for (const LoopBackend backend : available_backends()) {
    BackendCluster cluster(2, backend);
    cluster.connect_all();
    std::vector<std::unique_ptr<mp::AbdNode>> nodes;
    for (u32 i = 0; i < 2; ++i) {
      nodes.push_back(cluster.host(i));
    }
    u64 ctl_replies = 0;
    cluster.transports[0]->set_ctl_handler([&](u64 session, const CtlRequest& req) {
      cluster.transports[0]->kick_outbound();  // closes sessions mid-dispatch
      CtlReply reply;
      reply.op = req.op;
      reply.ok = true;
      cluster.transports[0]->send_ctl_reply(session, reply);
      ++ctl_replies;
    });
    ASSERT_TRUE(cluster.pump_until(
        [&] { return cluster.transports[0]->connected_outbound() == 1; }, 2000ms));

    // A raw ctl client (like amm_ctl) delivers the kick request.
    SocketPair unused;  // keep fd numbers moving so reuse is exercised
    const int client = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(client, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cluster.transports[0]->listen_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(client, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    std::vector<u8> frame;
    CtlRequest req;
    req.op = CtlOp::kKick;
    append_frame(frame, FrameKind::kCtlReq, encode_ctl_request(req));
    ASSERT_EQ(::send(client, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));

    ASSERT_TRUE(cluster.pump_until([&] { return ctl_replies == 1; }, 2000ms));
    // The ctl reply still arrives (ctl frames cut ahead; the ctl session
    // survived the kick), and the kicked links come back up.
    std::vector<u8> reply_bytes;
    u8 chunk[4096];
    ASSERT_TRUE(cluster.pump_until([&] {
      const ssize_t n = ::recv(client, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) reply_bytes.insert(reply_bytes.end(), chunk, chunk + n);
      return !reply_bytes.empty();
    }, 2000ms));
    Frame reply_frame;
    ASSERT_EQ(extract_frame(reply_bytes, &reply_frame), FrameStatus::kFrame);
    EXPECT_EQ(reply_frame.kind, FrameKind::kCtlRep);
    ::close(client);

    ASSERT_TRUE(cluster.pump_until([&] {
      return cluster.transports[0]->connected_outbound() == 1 &&
             cluster.transports[1]->connected_outbound() == 1;
    }, 3000ms));
    // Liveness after the mid-dispatch teardown: a quorum append completes.
    bool append_done = false;
    nodes[0]->begin_append(11, [&] { append_done = true; });
    EXPECT_TRUE(cluster.pump_until([&] { return append_done; }))
        << "backend " << cluster.transports[0]->backend_name();
    EXPECT_GE(cluster.transports[0]->reconnects(), 1u);
  }
}

TEST(TransportBatching, WritevCoalescesFrames) {
  // The counters prove the batch path actually engages: writev_calls grows
  // far slower than frames sent.
  BackendCluster cluster(3, LoopBackend::kAuto);
  cluster.connect_all();
  // Full (non-delta) reads, so the replies are large multi-record frames.
  mp::AbdConfig abd_config;
  abd_config.delta_reads = false;
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) {
    nodes.push_back(cluster.host(i, abd_config));
  }
  u32 completed = 0;
  constexpr u32 kAppends = 64;
  for (u32 v = 0; v < kAppends; ++v) {
    nodes[0]->begin_append(static_cast<i64>(v), [&] { ++completed; });
  }
  ASSERT_TRUE(cluster.pump_until([&] { return completed == kAppends; }));
  bool read_done = false;
  nodes[2]->begin_read([&](const std::vector<mp::SignedAppend>&) { read_done = true; });
  ASSERT_TRUE(cluster.pump_until([&] { return read_done; }));

  u64 frames = 0, writevs = 0;
  for (const auto& transport : cluster.transports) {
    frames += transport->messages_sent();
    writevs += transport->writev_calls();
  }
  EXPECT_GT(writevs, 0u);
  EXPECT_LT(writevs, frames);  // strictly fewer syscalls than frames
}

/// A raw blocking ctl client (like amm_ctl) connected to `port`; -1 on failure.
int connect_ctl_client(u16 port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(TransportBatching, CtlRepliesOfOneCycleShareAWrite) {
  // K appends pipelined on one ctl connection complete together, so their
  // replies leave in the cycle's flush: request order kept, and far fewer
  // writes than replies. An inline flush per reply alone costs K writes.
  constexpr i64 kAppends = 16;
  BackendCluster cluster(3, LoopBackend::kAuto);
  cluster.connect_all();
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) nodes.push_back(cluster.host(i));
  TcpTransport& transport = *cluster.transports[0];
  ASSERT_TRUE(cluster.pump_until([&] {
    return cluster.transports[0]->connected_outbound() == 2 &&
           cluster.transports[1]->connected_outbound() == 2 &&
           cluster.transports[2]->connected_outbound() == 2;
  }, 3000ms));

  // Requests queue in the handler and start between cycles, as amm_node's
  // op pump does; each reply echoes its request's value in `decision`.
  std::deque<std::pair<u64, CtlRequest>> requests;
  transport.set_ctl_handler(
      [&](u64 session, const CtlRequest& req) { requests.emplace_back(session, req); });
  const auto pump_ops = [&] {
    while (!requests.empty()) {
      const auto [session, req] = requests.front();
      requests.pop_front();
      nodes[0]->begin_append(req.value, [&transport, session, value = req.value] {
        CtlReply done;
        done.op = CtlOp::kAppend;
        done.ok = true;
        done.status = CtlStatus::kOk;
        done.decision = value;
        transport.send_ctl_reply(session, done);
      });
    }
  };

  const int client = connect_ctl_client(transport.listen_port());
  ASSERT_GE(client, 0);
  std::vector<u8> burst;
  for (i64 v = 0; v < kAppends; ++v) {
    CtlRequest req;
    req.op = CtlOp::kAppend;
    req.value = 100 + v;
    append_frame(burst, FrameKind::kCtlReq, encode_ctl_request(req));
  }
  const u64 writes_before = transport.writev_calls();
  ASSERT_EQ(::send(client, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  std::vector<u8> rx;
  std::vector<i64> replied;
  ASSERT_TRUE(cluster.pump_until([&] {
    pump_ops();
    u8 chunk[4096];
    for (ssize_t n; (n = ::recv(client, chunk, sizeof(chunk), MSG_DONTWAIT)) > 0;) {
      rx.insert(rx.end(), chunk, chunk + n);
    }
    for (Frame frame; extract_frame(rx, &frame) == FrameStatus::kFrame;) {
      EXPECT_EQ(frame.kind, FrameKind::kCtlRep);
      const auto reply = decode_ctl_reply(frame.payload);
      EXPECT_TRUE(reply.has_value() && reply->ok);
      replied.push_back(reply ? reply->decision : -1);
    }
    return replied.size() >= static_cast<usize>(kAppends);
  }));
  ::close(client);

  std::vector<i64> expected;
  for (i64 v = 0; v < kAppends; ++v) expected.push_back(100 + v);
  EXPECT_EQ(replied, expected);
  // Every write node 0 made meanwhile, its broadcasts to both peers included.
  EXPECT_LT(transport.writev_calls() - writes_before, static_cast<u64>(kAppends));
}

TEST(TransportBatching, CtlReplyQueuedBetweenCyclesLeavesBeforeTheWait) {
  // A reply queued outside poll_once (amm_node's op pump answers stats and
  // kick there) must be written by the next poll_once before it blocks:
  // no socket event will wake the reactor to flush it afterwards.
  for (const LoopBackend backend : available_backends()) {
    BackendCluster cluster(2, backend);  // never dialed: no peer traffic
    TcpTransport& transport = *cluster.transports[0];
    u64 ctl_session = 0;
    transport.set_ctl_handler([&](u64 session, const CtlRequest&) { ctl_session = session; });

    const int client = connect_ctl_client(transport.listen_port());
    ASSERT_GE(client, 0);
    std::vector<u8> frame;
    append_frame(frame, FrameKind::kCtlReq, encode_ctl_request(CtlRequest{}));
    ASSERT_EQ(::send(client, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    ASSERT_TRUE(cluster.pump_until([&] { return ctl_session != 0; }, 2000ms));

    CtlReply reply;
    reply.op = CtlOp::kStats;
    reply.ok = true;
    reply.status = CtlStatus::kOk;
    transport.send_ctl_reply(ctl_session, reply);

    // The client waits on its own thread; the reactor's thread blocks in
    // one idle poll_once. Only a flush before the wait lands in time.
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    Clock::time_point arrived{};
    std::thread reader([&] {
      pollfd pfd{client, POLLIN, 0};
      if (::poll(&pfd, 1, 5000) == 1) arrived = Clock::now();
    });
    transport.poll_once(1000ms);
    reader.join();
    ASSERT_NE(arrived, Clock::time_point{}) << "backend " << transport.backend_name();
    EXPECT_LT(arrived - start, 500ms) << "backend " << transport.backend_name();

    std::vector<u8> rx(4096);
    const ssize_t n = ::recv(client, rx.data(), rx.size(), MSG_DONTWAIT);
    ASSERT_GT(n, 0);
    rx.resize(static_cast<usize>(n));
    Frame got;
    ASSERT_EQ(extract_frame(rx, &got), FrameStatus::kFrame);
    const auto decoded = decode_ctl_reply(got.payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->op, CtlOp::kStats);
    ::close(client);
  }
}

}  // namespace
}  // namespace amm::net
