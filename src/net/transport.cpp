#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <memory>
#include <tuple>
#include <utility>

#include "support/assert.hpp"

namespace amm::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Numeric IPv4 only (plus "localhost"); cluster configs are addresses,
/// not names — DNS has no place inside the reactor.
bool resolve(const Endpoint& ep, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(ep.port);
  const char* host = ep.host == "localhost" ? "127.0.0.1" : ep.host.c_str();
  return ::inet_pton(AF_INET, host, &out->sin_addr) == 1;
}

/// Deep enough that a swarm's connect burst (hundreds of clients dialing
/// one node at once) does not shed connections before accept drains them.
constexpr int kListenBacklog = 1024;

}  // namespace

TcpTransport::TcpTransport(TransportConfig config, const crypto::KeyRegistry& keys, Rng rng)
    : config_(std::move(config)),
      keys_(&keys),
      rng_(rng),
      links_(config_.peers.size()) {
  AMM_EXPECTS(!config_.peers.empty());
  AMM_EXPECTS(config_.self.index < config_.peers.size());
  AMM_EXPECTS(keys.node_count() >= node_count());
  AMM_EXPECTS(config_.outbound_low_watermark <= config_.outbound_high_watermark);
  loop_ = EventLoop::make(config_.backend);
  if (!loop_) loop_ = EventLoop::make(LoopBackend::kPoll);  // requested backend unavailable
}

TcpTransport::~TcpTransport() { stop(); }

bool TcpTransport::start() {
  AMM_EXPECTS(listen_fd_ < 0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  if (!resolve(config_.peers[config_.self.index], &addr)) {
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kListenBacklog) != 0 || !set_nonblocking(fd)) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0 ||
      !loop_->add(fd, kListenerToken, EventLoop::kRead)) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  listen_port_ = ntohs(bound.sin_port);
  return true;
}

void TcpTransport::set_peer_endpoint(NodeId id, Endpoint endpoint) {
  AMM_EXPECTS(id.index < config_.peers.size());
  config_.peers[id.index] = std::move(endpoint);
}

void TcpTransport::connect_peers() {
  dialing_ = true;
  for (u32 i = 0; i < node_count(); ++i) {
    if (i == config_.self.index) continue;
    if (!links_[i].session && !links_[i].connecting) dial(i);
  }
}

void TcpTransport::attach(NodeId id, Handler handler) {
  AMM_EXPECTS(id == config_.self);  // a TCP transport hosts exactly one node
  handler_ = std::move(handler);
}

void TcpTransport::send(NodeId from, NodeId to, mp::WireMessage msg) {
  AMM_EXPECTS(from == config_.self);
  AMM_EXPECTS(to.index < node_count());
  ++messages_sent_;
  bytes_sent_ += msg.wire_size();
  if (to == config_.self) {
    local_.emplace_back(from, std::move(msg));
    return;
  }
  // One exactly-sized allocation: header, frame kind and payload are
  // encoded straight into the buffer the queue will own.
  queue_frame_to_peer(to.index, FrameBuf::own(encode_framed_message(msg)));
}

void TcpTransport::broadcast(NodeId from, const mp::WireMessage& msg) {
  AMM_EXPECTS(from == config_.self);
  // Encode once; every peer's queue references the same immutable page, so
  // fan-out to n-1 sockets costs one allocation instead of n-1 copies.
  std::shared_ptr<const std::vector<u8>> page;
  for (u32 to = 0; to < node_count(); ++to) {
    ++messages_sent_;
    bytes_sent_ += msg.wire_size();
    if (to == config_.self.index) {
      local_.emplace_back(from, msg);
      continue;
    }
    if (!page) page = std::make_shared<const std::vector<u8>>(encode_framed_message(msg));
    queue_frame_to_peer(to, FrameBuf::share(page));
  }
}

void TcpTransport::queue_frame_to_peer(u32 peer_index, FrameBuf frame) {
  Link& link = links_[peer_index];
  if (link.session && link.session->state != SessionState::kClosed && !link.connecting) {
    Session& session = *link.session;
    if (!session.queue_frame(TxClass::kRepl, std::move(frame))) {
      ++backpressure_drops_;  // over the high watermark: shed, don't buffer
      return;
    }
    update_paused(session);
    mark_dirty(session);
    return;
  }
  // Link down: hold the frame for the next (re)connect, oldest out first.
  if (link.pending.size() >= config_.max_pending_frames_per_peer) {
    link.pending.pop_front();
    ++frames_dropped_;
  }
  link.pending.push_back(std::move(frame));
}

void TcpTransport::register_session(Session& session, u32 interest) {
  session.interest = interest;
  loop_->add(session.fd, session.id, interest);
  by_token_.emplace(session.id, &session);
}

void TcpTransport::dial(u32 peer_index) {
  Link& link = links_[peer_index];
  link.connecting = false;
  sockaddr_in addr{};
  if (!resolve(config_.peers[peer_index], &addr)) {
    on_link_down(link);
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    if (fd >= 0) ::close(fd);
    on_link_down(link);
    return;
  }
  set_nodelay(fd);
  auto session = std::make_unique<Session>();
  session->fd = fd;
  session->id = next_session_id_++;
  session->outbound = true;
  session->peer = NodeId{peer_index};
  session->state = SessionState::kProtocol;
  link.session = std::move(session);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    register_session(*link.session, EventLoop::kRead);
    on_link_connected(link, peer_index);
  } else if (errno == EINPROGRESS) {
    // Writability (or an error event) signals connect completion.
    register_session(*link.session, EventLoop::kWrite);
    link.connecting = true;
  } else {
    close_session(*link.session);
    link.session.reset();
    on_link_down(link);
  }
}

void TcpTransport::on_link_connected(Link& link, u32 peer_index) {
  (void)peer_index;
  link.connecting = false;
  if (link.ever_connected) ++reconnects_;
  link.ever_connected = true;
  link.attempts = 0;
  // Authenticate first, then flush everything queued while the link was
  // down — FIFO, so per-peer ordering is preserved across reconnects. The
  // fresh session starts unpaused, so the whole backlog enqueues; the
  // watermark is applied once afterwards.
  Session& session = *link.session;
  const Hello hello = make_hello(config_.self, rng_.next(), *keys_);
  std::vector<u8> frame;
  append_frame(frame, FrameKind::kHello, encode_hello(hello));
  session.queue_frame(TxClass::kCtl, std::move(frame));
  while (!link.pending.empty()) {
    session.queue_frame(TxClass::kRepl, std::move(link.pending.front()));
    link.pending.pop_front();
  }
  update_paused(session);
  mark_dirty(session);
}

void TcpTransport::on_link_down(Link& link) {
  if (link.session) {
    // Salvage undelivered replication frames for the next connection: a
    // frame that did not fully leave the socket was never delivered
    // (partial frames are discarded by the receiver), so it re-queues
    // ahead of newer pending traffic. The ctl class — at most a stale
    // hello here — is dropped; every connection opens with its own.
    Session& session = *link.session;
    auto& repl = session.tx[static_cast<usize>(TxClass::kRepl)];
    while (!repl.empty()) {
      link.pending.push_front(std::move(repl.back()));
      repl.pop_back();
    }
    while (link.pending.size() > config_.max_pending_frames_per_peer) {
      link.pending.pop_front();
      ++frames_dropped_;
    }
    close_session(session);
    link.session.reset();
  }
  link.connecting = false;
  ++link.attempts;
  link.next_attempt = Clock::now() + backoff_delay(link.attempts);
}

std::chrono::milliseconds TcpTransport::backoff_delay(u32 attempts) {
  const u32 shift = std::min(attempts > 0 ? attempts - 1 : 0u, 16u);
  auto delay = config_.backoff_base * (1u << shift);
  delay = std::min(delay, config_.backoff_max);
  // Jitter in [0.5, 1.0): desynchronizes a restarted cluster.
  const double jitter = 0.5 + 0.5 * rng_.uniform();
  return std::chrono::milliseconds(
      std::max<i64>(1, static_cast<i64>(static_cast<double>(delay.count()) * jitter)));
}

void TcpTransport::kick_outbound() { kick_requested_ = true; }

u32 TcpTransport::connected_outbound() const {
  u32 up = 0;
  for (const Link& link : links_) {
    if (link.session && !link.connecting) ++up;
  }
  return up;
}

usize TcpTransport::outbound_queued_bytes(NodeId peer) const {
  AMM_EXPECTS(peer.index < links_.size());
  const Link& link = links_[peer.index];
  return link.session ? link.session->tx_bytes : 0;
}

bool TcpTransport::outbound_paused(NodeId peer) const {
  AMM_EXPECTS(peer.index < links_.size());
  const Link& link = links_[peer.index];
  return link.session && link.session->paused;
}

void TcpTransport::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error — poll again later
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    auto session = std::make_unique<Session>();
    session->fd = fd;
    session->id = next_session_id_++;
    session->state = SessionState::kAwaitingHello;
    register_session(*session, EventLoop::kRead);
    inbound_.push_back(std::move(session));
  }
}

bool TcpTransport::read_session(Session& session) {
  u8 chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(session.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      session.rx.insert(session.rx.end(), chunk, chunk + n);
      if (static_cast<usize>(n) < sizeof(chunk)) break;
    } else if (n == 0) {
      return false;  // orderly shutdown
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
  }
  return drain_frames(session);
}

bool TcpTransport::drain_frames(Session& session) {
  // Frames are parsed in place (FrameView borrows the payload bytes) and
  // the consumed prefix is erased once at the end — one memmove per drain
  // instead of one per frame. Handlers copy what they keep: decode_*
  // materializes owning structures, so no borrowed span outlives this
  // loop.
  usize consumed_total = 0;
  bool keep = true;
  for (;;) {
    FrameView frame;
    usize consumed = 0;
    const std::span<const u8> rest{session.rx.data() + consumed_total,
                                   session.rx.size() - consumed_total};
    const FrameStatus status = extract_frame_view(rest, &frame, &consumed);
    if (status == FrameStatus::kNeedMore) break;
    if (status == FrameStatus::kCorrupt) {
      keep = false;
      break;
    }
    consumed_total += consumed;
    if (!handle_frame(session, frame)) {
      keep = false;
      break;
    }
  }
  if (consumed_total > 0) {
    session.rx.erase(session.rx.begin(),
                     session.rx.begin() + static_cast<std::ptrdiff_t>(consumed_total));
  }
  return keep;
}

bool TcpTransport::handle_frame(Session& session, const FrameView& frame) {
  switch (frame.kind) {
    case FrameKind::kHello: {
      if (session.state != SessionState::kAwaitingHello) return false;
      const auto hello = decode_hello(frame.payload);
      if (!hello || !verify_hello(*hello, node_count(), *keys_) ||
          hello->node == config_.self) {
        ++auth_rejects_;
        return false;  // unauthenticated peer: drop the connection
      }
      session.state = SessionState::kProtocol;
      session.peer = hello->node;
      return true;
    }
    case FrameKind::kMsg: {
      if (session.state != SessionState::kProtocol || session.outbound) return false;
      auto msg = decode_message(frame.payload);
      if (!msg) return false;  // corrupt payload: drop the connection
      pending_msgs_.push_back(PendingMessage{session.peer, pending_msgs_.size(), std::move(*msg)});
      return true;
    }
    case FrameKind::kCtlReq: {
      if (session.state == SessionState::kAwaitingHello) session.state = SessionState::kCtl;
      if (session.state != SessionState::kCtl) return false;
      const auto req = decode_ctl_request(frame.payload);
      if (!req) return false;
      if (ctl_handler_) ctl_handler_(session.id, *req);
      return true;
    }
    case FrameKind::kCtlRep:
      return false;  // servers never receive replies
  }
  return false;
}

void TcpTransport::dispatch_pending() {
  // Deterministic dispatch: by author, stable — per-session FIFO (the one
  // order TCP guarantees) is preserved, and the sequence no longer depends
  // on which backend fired or in what order fds became ready. Arrival
  // order breaks ties, so the in-place std::sort gives stable_sort's order
  // without its per-call temporary buffer; an already ordered batch (one
  // author, or sessions drained in author order) skips the sort.
  const auto in_order = [](const PendingMessage& a, const PendingMessage& b) {
    return std::tie(a.from.index, a.arrival) < std::tie(b.from.index, b.arrival);
  };
  if (!std::is_sorted(pending_msgs_.begin(), pending_msgs_.end(), in_order)) {
    std::sort(pending_msgs_.begin(), pending_msgs_.end(), in_order);
  }
  for (const PendingMessage& pending : pending_msgs_) {
    if (handler_) handler_(pending.from, pending.msg);
  }
  pending_msgs_.clear();
}

void TcpTransport::send_ctl_reply(u64 session_id, const CtlReply& reply) {
  // Token lookup, not an inbound_ scan: with thousands of mostly-idle
  // sessions a linear search here turns every ctl append into an
  // O(sessions) walk and dominates the whole node's CPU.
  const auto it = by_token_.find(session_id);
  if (it == by_token_.end()) return;  // session gone: drop the reply
  Session& session = *it->second;
  if (session.state != SessionState::kCtl) return;
  // Queue only: the cycle's flush writes every reply this session gained
  // in the same cycle with one writev, however many ops completed.
  session.queue_frame(TxClass::kCtl, encode_framed_ctl_reply(reply));
  mark_dirty(session);
}

void TcpTransport::mark_dirty(Session& session) {
  if (session.dirty || !session.wants_write()) return;
  session.dirty = true;
  dirty_.push_back(session.id);
}

void TcpTransport::sync_interest(Session& session) {
  if (session.fd < 0 || session.state == SessionState::kClosed) return;
  const u32 desired = EventLoop::kRead | (session.wants_write() ? EventLoop::kWrite : 0);
  if (desired != session.interest) {
    loop_->modify(session.fd, session.id, desired);
    session.interest = desired;
  }
}

void TcpTransport::update_paused(Session& session) {
  if (!session.paused && session.tx_bytes > config_.outbound_high_watermark) {
    session.paused = true;
  } else if (session.paused && session.tx_bytes <= config_.outbound_low_watermark) {
    session.paused = false;
  }
}

void TcpTransport::flush_and_sync(Session& session) {
  if (session.fd < 0 || session.state == SessionState::kClosed) return;
  const FlushResult result = flush_session_buffers(session, config_.max_write_iov);
  writev_calls_ += result.syscalls;
  if (result.fatal) {
    close_session(session);
    return;
  }
  update_paused(session);
  sync_interest(session);
}

void TcpTransport::flush_dirty() {
  // dirty_ can grow while flushing (a fatal flush downs a link whose
  // salvage re-queues traffic); index loop, not iterators.
  for (usize i = 0; i < dirty_.size(); ++i) {
    const auto it = by_token_.find(dirty_[i]);
    if (it == by_token_.end()) continue;  // closed since it was queued
    Session& session = *it->second;
    session.dirty = false;
    if (session.outbound && links_[session.peer.index].connecting) continue;
    flush_and_sync(session);
  }
  dirty_.clear();
}

void TcpTransport::deliver_local() {
  while (!local_.empty()) {
    auto [from, msg] = std::move(local_.front());
    local_.pop_front();
    if (handler_) handler_(from, msg);
  }
}

void TcpTransport::close_session(Session& session) {
  if (session.fd >= 0) {
    // Unregister before close: a recycled fd number must not inherit this
    // session's loop registration (events are token-keyed, but epoll's
    // interest list is fd-keyed).
    loop_->remove(session.fd);
    ::close(session.fd);
    session.fd = -1;
  }
  by_token_.erase(session.id);
  session.state = SessionState::kClosed;
  needs_reap_ = true;
}

void TcpTransport::poll_once(std::chrono::milliseconds max_wait) {
  deliver_local();

  if (kick_requested_) {
    kick_requested_ = false;
    for (Link& link : links_) {
      if (link.session || link.connecting) on_link_down(link);
    }
  }

  // Redial any link whose backoff deadline has passed.
  const auto now = Clock::now();
  if (dialing_) {
    for (u32 i = 0; i < node_count(); ++i) {
      Link& link = links_[i];
      if (i == config_.self.index || link.session || link.connecting) continue;
      if (now >= link.next_attempt) dial(i);
    }
  }

  // Traffic queued since the last cycle (protocol timers, ctl pumps)
  // goes out before we sleep.
  flush_dirty();

  // Cap the wait at the next reconnect deadline so backoff fires on time.
  i64 wait_ms = max_wait.count();
  if (dialing_) {
    for (u32 i = 0; i < node_count(); ++i) {
      const Link& link = links_[i];
      if (i == config_.self.index || link.session || link.connecting) continue;
      const auto until =
          std::chrono::duration_cast<std::chrono::milliseconds>(link.next_attempt - now).count();
      wait_ms = std::clamp<i64>(until, 0, wait_ms);
    }
  }
  if (!local_.empty()) wait_ms = 0;

  const int ready = loop_->wait(std::chrono::milliseconds(wait_ms), &events_);
  if (ready > 0) {
    for (const ReadyEvent& event : events_) {
      if (event.token == kListenerToken) {
        accept_ready();
        continue;
      }
      const auto it = by_token_.find(event.token);
      if (it == by_token_.end()) continue;  // closed earlier this cycle
      Session& session = *it->second;
      if (session.state == SessionState::kClosed) continue;
      // Outbound connect completion: writability (or an error event) on a
      // connecting link resolves the non-blocking connect.
      if (session.outbound && links_[session.peer.index].connecting) {
        Link& link = links_[session.peer.index];
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(session.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (event.error || err != 0) {
          on_link_down(link);
          continue;
        }
        if (event.writable) on_link_connected(link, session.peer.index);
        continue;
      }
      if (event.error && !event.readable) {
        close_session(session);
        continue;
      }
      if (event.readable && !read_session(session)) {
        close_session(session);
        continue;
      }
      if (event.writable) flush_and_sync(session);
    }
  }

  // Everything decoded this cycle, in author order.
  dispatch_pending();

  // Handlers may have produced traffic — flush opportunistically so a
  // request/reply exchange completes in one poll round-trip per hop.
  flush_dirty();

  // Reap downed outbound links into backoff; drop dead inbound sessions.
  // Gated on close_session() having actually run (the sole writer of
  // kClosed): sweeping thousands of idle inbound sessions every cycle
  // would reintroduce exactly the O(sessions)-per-cycle cost the event
  // loop exists to avoid.
  if (needs_reap_) {
    needs_reap_ = false;
    for (Link& link : links_) {
      if (link.session && link.session->state == SessionState::kClosed) on_link_down(link);
    }
    std::erase_if(inbound_, [](const std::unique_ptr<Session>& session) {
      return session->state == SessionState::kClosed;
    });
  }

  deliver_local();
}

void TcpTransport::run_for(std::chrono::milliseconds deadline) {
  const auto until = Clock::now() + deadline;
  while (Clock::now() < until) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(until - Clock::now());
    poll_once(std::max<std::chrono::milliseconds>(std::chrono::milliseconds(1), left));
  }
}

void TcpTransport::stop() {
  if (listen_fd_ >= 0) {
    loop_->remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  dialing_ = false;
  for (Link& link : links_) {
    if (link.session) close_session(*link.session);
    link.session.reset();
    link.connecting = false;
  }
  for (const auto& session : inbound_) close_session(*session);
  inbound_.clear();
  dirty_.clear();
}

}  // namespace amm::net
