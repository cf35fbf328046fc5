// Peer sessions and hello authentication for the TCP transport.
//
// A Session owns one TCP connection's buffered state (receive buffer,
// outbound frame queues, handshake progress). Inbound protocol sessions
// must open with a valid kHello frame — a signature over the hello digest
// that only the claimed node's key can produce — before any kMsg frame is
// dispatched; transport sessions that fail authentication are dropped.
//
// The outbound side is two priority queues of whole frames. The ctl class
// (hellos, control-plane replies) drains before the replication class
// (kMsg traffic) and is exempt from backpressure, so an operator's stats
// request cuts ahead of a replication backlog and a slow reader can never
// starve the control plane. flush_session_buffers() drains both classes
// through bounded writev chains — one syscall moves many small frames —
// and tracks the partially written frame so frames stay atomic on the
// wire no matter where a short write lands.
//
// Signatures are not checked here: the transport hands every decoded
// kMsg to the hosted node, whose handler is the one place Lemma 4.1 runs
// (mp/abd.hpp). The hello is the exception — it authenticates the session
// itself, so the transport verifies it before any message is dispatched.
#pragma once

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/signature.hpp"
#include "net/codec.hpp"

namespace amm::net {

/// One outbound frame: a view into an immutable heap page plus the shared
/// ownership that keeps the page alive while any queue references it. A
/// broadcast encodes its frame once and every peer's queue holds the same
/// page (`share`), so fan-out to n peers costs one allocation instead of
/// n copies; singly-addressed frames wrap their own buffer (`own`). The
/// page is immutable once queued — flush reads through a const span and
/// tracks partial writes by offset, never by mutating the page.
struct FrameBuf {
  std::shared_ptr<const std::vector<u8>> page;
  std::span<const u8> bytes;

  usize size() const { return bytes.size(); }
  const u8* data() const { return bytes.data(); }

  /// Wraps a freshly encoded buffer this frame alone references.
  static FrameBuf own(std::vector<u8> buf) {
    auto page = std::make_shared<const std::vector<u8>>(std::move(buf));
    std::span<const u8> bytes{page->data(), page->size()};
    return FrameBuf{std::move(page), bytes};
  }

  /// References an already-shared page (broadcast fan-out).
  static FrameBuf share(const std::shared_ptr<const std::vector<u8>>& page) {
    return FrameBuf{page, std::span<const u8>{page->data(), page->size()}};
  }
};

enum class SessionState : u8 {
  kAwaitingHello,  ///< inbound, first frame not yet seen
  kProtocol,       ///< authenticated node-to-node session
  kCtl,            ///< control-plane client (amm_ctl)
  kClosed,
};

/// Outbound priority class of a frame. kCtl (hellos, ctl replies) drains
/// first and is never dropped by backpressure; kRepl (protocol kMsg
/// frames) is subject to the per-peer byte budget.
enum class TxClass : u8 { kCtl = 0, kRepl = 1 };

inline constexpr usize kTxClasses = 2;
/// Frames coalesced into one writev chain (well under IOV_MAX, 1024 on
/// Linux; 64 frames ≈ one TCP send buffer's worth of small appends).
inline constexpr usize kMaxWriteIov = 64;

/// One live connection. The transport owns the fd and the loop
/// registration; the Session owns every buffered byte.
struct Session {
  int fd = -1;
  u64 id = 0;  ///< transport-unique session id; doubles as the loop token
  SessionState state = SessionState::kAwaitingHello;
  NodeId peer;            ///< valid once state == kProtocol
  bool outbound = false;  ///< we dialed it (receive side still accepted)
  std::vector<u8> rx;
  /// Outbound queues, one encoded frame per entry, indexed by TxClass.
  /// Frame granularity matters: when a connection dies, every replication
  /// frame that did not fully leave the socket can be salvaged for the
  /// next connection — a frame the remote only partially received was, by
  /// the framing discipline, never delivered, so resending it whole
  /// cannot duplicate. Broadcast frames share one page across all queues.
  std::deque<FrameBuf> tx[kTxClasses];
  usize tx_off = 0;    ///< bytes of the active front frame already written
  int tx_active = -1;  ///< class owning the partially written front (-1: none)
  usize tx_bytes = 0;  ///< unsent bytes across both classes
  bool paused = false; ///< over the high watermark: kRepl enqueues are refused
  u32 interest = 0;    ///< interest mask currently registered with the loop
  bool dirty = false;  ///< already on the transport's flush list this cycle

  bool wants_write() const { return tx_bytes > 0; }

  /// Appends a frame to its class queue. Returns false — frame refused —
  /// only for kRepl while paused (the caller counts the drop); the caller
  /// updates `paused` against its watermarks after a successful enqueue.
  bool queue_frame(TxClass cls, FrameBuf frame) {
    if (cls == TxClass::kRepl && paused) return false;
    tx_bytes += frame.size();
    tx[static_cast<usize>(cls)].push_back(std::move(frame));
    return true;
  }

  /// Convenience overload for singly-addressed frames.
  bool queue_frame(TxClass cls, std::vector<u8> frame) {
    return queue_frame(cls, FrameBuf::own(std::move(frame)));
  }
};

/// Outcome of one flush_session_buffers() call.
struct FlushResult {
  bool fatal = false;  ///< connection error (EPIPE/ECONNRESET/...): close it
  u64 syscalls = 0;    ///< writev/sendmsg invocations performed
  u64 bytes = 0;       ///< bytes accepted by the socket
};

/// Drains the session's queues — partial front first, then the ctl class,
/// then replication — through writev chains of up to `max_iov` frames per
/// syscall. Stops on EAGAIN (socket full; resume on the next writable
/// event). Never blocks: the fd must be nonblocking and the chain is sent
/// with MSG_DONTWAIT regardless.
FlushResult flush_session_buffers(Session& session, usize max_iov = kMaxWriteIov);

/// Builds the hello this endpoint sends when dialing peer connections.
Hello make_hello(NodeId self, u64 nonce, const crypto::KeyRegistry& keys);

/// Verifies an inbound hello: magic already checked by the decoder; the
/// signature must be the claimed node's signature over the hello digest,
/// and the claimed node id must be inside the cluster.
bool verify_hello(const Hello& hello, u32 node_count, const crypto::KeyRegistry& keys);

}  // namespace amm::net
