// TCP transport: mp::Transport over real sockets, on an EventLoop reactor.
//
// Threading model: a single-threaded reactor. All socket I/O, reconnect
// timers, protocol handler callbacks and control-plane callbacks run on
// the thread that calls poll_once()/run_for(); send()/broadcast() must be
// called from that same thread (protocol code only ever runs inside
// handlers, so this falls out naturally). No locks, no cross-thread state,
// no worker threads.
//
// Readiness: the reactor registers every fd with an EventLoop
// (net/event_loop.hpp) — epoll on Linux, a persistent poll set elsewhere —
// and pays O(ready) per cycle instead of rebuilding an O(sessions) pollfd
// vector. Sessions are identified by token, not fd, so a session torn
// down mid-dispatch cannot be confused with a newer one that recycled its
// descriptor. Sessions with queued output are tracked on a dirty list and
// flushed through bounded writev chains (peer.hpp) — one syscall per
// batch of small frames — with POLLOUT interest maintained only while
// bytes remain. send(), broadcast() and send_ctl_reply() only queue; a
// socket is written in exactly two places: the dirty-list flushes of
// each cycle (one before the wait, one after dispatch) and a writable
// event. So the replies to every op that completes on one ctl session in
// a cycle leave in one writev.
//
// Message dispatch is deterministic per author: every decoded kMsg frame
// is queued as it is read, unchecked — the hosted node verifies each
// signature itself (mp/abd.hpp) — and the messages of one drain cycle
// then dispatch sorted by author id (stable, so per-session FIFO order —
// the only order TCP guarantees — is preserved). The delivered message
// sequence therefore does not depend on which readiness backend fired or
// in what order fds became ready.
//
// Backpressure: each session carries a byte budget with high/low
// watermarks. A peer that stops reading pushes the session over the high
// watermark, after which new replication frames are refused (counted in
// backpressure_drops()) until the queue drains below the low watermark.
// Control-plane frames (hellos, ctl replies) are exempt and drain first,
// so a slow replication reader can never starve an operator.
//
// Connection topology: every node listens on its configured endpoint and
// dials one outbound connection to every other node. Outbound connections
// carry this node's frames (opened with an authenticated kHello); inbound
// connections carry the peers' frames (their hello is verified against
// crypto::KeyRegistry before any message is dispatched). A control client
// (amm_ctl) dials in and speaks kCtlReq/kCtlRep without a hello.
//
// Reconnect policy: a failed or dropped outbound link retries with capped
// exponential backoff — min(max_backoff, base·2^(attempt−1)) scaled by a
// uniform jitter in [0.5, 1.0) drawn from support/rng — so a restarted
// cluster does not stampede. Frames sent while a link is down are queued
// per peer (bounded; oldest dropped beyond the cap) and flushed on
// reconnect, preserving the model's "correct nodes eventually receive
// everything" within a session's lifetime.
//
// Complexity accounting: messages_sent()/bytes_sent() count protocol
// payload exactly as the simulated Network does (payload bytes ==
// WireMessage::wire_size()), so the §4/E10 numbers are comparable across
// the simulator and the real wire. Frame overhead is 5 bytes per message.
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "mp/transport.hpp"
#include "net/event_loop.hpp"
#include "net/peer.hpp"
#include "support/rng.hpp"

namespace amm::net {

struct Endpoint {
  std::string host;  ///< numeric IPv4 ("127.0.0.1") or "localhost"
  u16 port = 0;
};

struct TransportConfig {
  NodeId self;
  std::vector<Endpoint> peers;  ///< indexed by node id; size = cluster n
  LoopBackend backend = LoopBackend::kAuto;
  std::chrono::milliseconds backoff_base{50};
  std::chrono::milliseconds backoff_max{2000};
  usize max_pending_frames_per_peer = 8192;  ///< queued while a link is down
  /// Per-session outbound byte budget. Above high, replication frames are
  /// refused; below low, they resume (hysteresis so a session near the
  /// boundary does not flap). Control frames are exempt.
  usize outbound_high_watermark = 4u << 20;
  usize outbound_low_watermark = 1u << 20;
  usize max_write_iov = kMaxWriteIov;  ///< frames coalesced per writev
};

class TcpTransport final : public mp::Transport {
 public:
  /// `keys` must outlive the transport. `rng` drives backoff jitter and
  /// hello nonces only — never protocol decisions.
  TcpTransport(TransportConfig config, const crypto::KeyRegistry& keys, Rng rng);
  ~TcpTransport() override;

  /// Binds and listens on peers[self]. Port 0 binds an ephemeral port
  /// (see listen_port()). Returns false (with errno intact) on failure.
  bool start();

  /// The actually bound port (differs from the config with port 0).
  u16 listen_port() const { return listen_port_; }

  /// The readiness backend actually in use ("epoll" / "poll").
  const char* backend_name() const { return loop_ ? loop_->name() : "none"; }

  /// Lets tests wire ephemeral ports together after start().
  void set_peer_endpoint(NodeId id, Endpoint endpoint);

  /// Begins dialing every other node (idempotent).
  void connect_peers();

  /// Runs one reactor iteration: waits up to `max_wait` for socket events
  /// or the next reconnect deadline, then performs all due I/O, delivers
  /// every message decoded during it, and flushes sessions with queued
  /// output.
  void poll_once(std::chrono::milliseconds max_wait);

  /// Pumps the reactor until `deadline` elapses.
  void run_for(std::chrono::milliseconds deadline);

  /// Closes every connection and the listener. Further sends queue.
  void stop();

  /// Drops all outbound links (they will redial with backoff) — the
  /// forced-reconnect lever the cluster test pulls via `amm_ctl kick`.
  /// Deferred to the top of the next poll_once so a kick arriving from a
  /// ctl handler mid-dispatch cannot destroy sessions the cycle still
  /// references.
  void kick_outbound();

  // mp::Transport
  u32 node_count() const override { return static_cast<u32>(config_.peers.size()); }
  void attach(NodeId id, Handler handler) override;
  void send(NodeId from, NodeId to, mp::WireMessage msg) override;
  void broadcast(NodeId from, const mp::WireMessage& msg) override;
  u64 messages_sent() const override { return messages_sent_; }
  u64 bytes_sent() const override { return bytes_sent_; }

  // control plane (amm_node side)
  using CtlHandler = std::function<void(u64 session_id, const CtlRequest&)>;
  void set_ctl_handler(CtlHandler handler) { ctl_handler_ = std::move(handler); }
  /// Queues a reply to a ctl session and marks it dirty; no-op if the
  /// session is gone. Nothing is written here: a reply queued inside a
  /// cycle leaves with that cycle's post-dispatch flush, one queued
  /// between cycles (amm_node's op pump) with the next poll_once's flush
  /// before it waits.
  void send_ctl_reply(u64 session_id, const CtlReply& reply);

  // observability
  u64 reconnects() const { return reconnects_; }
  u64 auth_rejects() const { return auth_rejects_; }
  u64 frames_dropped() const { return frames_dropped_; }
  u64 backpressure_drops() const { return backpressure_drops_; }
  u64 writev_calls() const { return writev_calls_; }
  u32 connected_outbound() const;
  /// Unsent bytes currently buffered toward `peer` (0 if no live link).
  usize outbound_queued_bytes(NodeId peer) const;
  /// Whether the link to `peer` is over its watermark (tests only).
  bool outbound_paused(NodeId peer) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// The listener's loop token; session ids start at 1, so 0 is free.
  static constexpr u64 kListenerToken = 0;

  /// One outbound link to a fixed peer, with its reconnect schedule and
  /// the frames queued while it is down.
  struct Link {
    std::unique_ptr<Session> session;  ///< null unless connecting/connected
    bool connecting = false;           ///< non-blocking connect in flight
    u32 attempts = 0;                  ///< consecutive failed attempts
    bool ever_connected = false;
    Clock::time_point next_attempt{};  ///< earliest redial time
    std::deque<FrameBuf> pending;      ///< encoded frames awaiting a link
  };

  /// One decoded kMsg awaiting this cycle's dispatch.
  struct PendingMessage {
    NodeId from;
    usize arrival;  ///< position in the cycle's read order (sort tie-break)
    mp::WireMessage msg;
  };

  void dial(u32 peer_index);
  void on_link_connected(Link& link, u32 peer_index);
  void on_link_down(Link& link);
  void queue_frame_to_peer(u32 peer_index, FrameBuf frame);
  void accept_ready();
  void register_session(Session& session, u32 interest);
  bool read_session(Session& session);     ///< false = session died
  bool drain_frames(Session& session);     ///< false = corrupt, drop it
  bool handle_frame(Session& session, const FrameView& frame);
  void dispatch_pending();                 ///< sort by author, deliver
  void flush_and_sync(Session& session);   ///< writev drain + interest upkeep
  void flush_dirty();
  void mark_dirty(Session& session);
  void sync_interest(Session& session);
  void update_paused(Session& session);
  void deliver_local();
  void close_session(Session& session);    ///< loop remove + close, idempotent
  std::chrono::milliseconds backoff_delay(u32 attempts);

  TransportConfig config_;
  const crypto::KeyRegistry* keys_;
  Rng rng_;
  Handler handler_;
  CtlHandler ctl_handler_;

  std::unique_ptr<EventLoop> loop_;
  int listen_fd_ = -1;
  u16 listen_port_ = 0;
  bool dialing_ = false;         ///< connect_peers() has been called
  bool kick_requested_ = false;  ///< deferred kick_outbound()
  bool needs_reap_ = false;      ///< a session closed since the last reap sweep
  std::vector<Link> links_;                         ///< indexed by peer id
  std::vector<std::unique_ptr<Session>> inbound_;   ///< accepted sessions
  /// Loop-token -> session, maintained by register/close. Lookup only —
  /// iteration order never influences behavior.
  std::unordered_map<u64, Session*> by_token_;
  std::deque<std::pair<NodeId, mp::WireMessage>> local_;  ///< self-deliveries
  u64 next_session_id_ = 1;

  // Per-cycle scratch, cleared each poll_once (members to reuse capacity).
  std::vector<ReadyEvent> events_;
  std::vector<u64> dirty_;  ///< tokens of sessions with queued output
  std::vector<PendingMessage> pending_msgs_;

  u64 messages_sent_ = 0;
  u64 bytes_sent_ = 0;
  u64 reconnects_ = 0;
  u64 auth_rejects_ = 0;
  u64 frames_dropped_ = 0;
  u64 backpressure_drops_ = 0;
  u64 writev_calls_ = 0;
};

}  // namespace amm::net
