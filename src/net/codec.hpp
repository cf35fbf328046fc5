// Length-prefixed binary codec for the TCP transport (src/net/).
//
// Every frame on a connection is
//
//   [u32 len][u8 frame kind][body]            (little-endian throughout)
//
// where `len` counts the frame kind byte plus the body. Frame kinds:
//
//   kHello    — authentication handshake: {magic, node_id, nonce, sig}
//               where sig is the sender's KeyRegistry signature over
//               digest(magic, node_id, nonce) (Lemma 4.1 on the wire:
//               a peer that cannot sign as node v cannot speak as v).
//   kMsg      — one mp::WireMessage, encoded field by field with the
//               fixed widths of mp/wire.hpp. encode_message().size() ==
//               WireMessage::wire_size() for every kind, by construction
//               and pinned by tests/net/codec_test.cpp.
//   kCtlReq / kCtlRep — the amm_ctl control plane (append/read/decide/
//               stats/kick), unauthenticated and local-operator only.
//
// decode_* functions are total: any truncated or corrupted input yields
// std::nullopt, never UB (fuzzed under the ASan/UBSan matrix).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mp/node_stats.hpp"
#include "mp/wire.hpp"

namespace amm::net {

inline constexpr u32 kWireMagic = 0x414d4d31;  // "AMM1"
inline constexpr usize kFrameHeaderBytes = 4;  // the u32 length prefix
/// Frames larger than this are rejected as corrupt before allocation.
inline constexpr usize kMaxFrameBytes = 64u << 20;

enum class FrameKind : u8 { kHello = 1, kMsg = 2, kCtlReq = 3, kCtlRep = 4 };

/// Incremental little-endian writer.
class Encoder {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u32(u32 v);
  void put_u64(u64 v);
  void put_i64(i64 v) { put_u64(static_cast<u64>(v)); }

  /// Pre-sizes for `n` more bytes — wire_size()/frame arithmetic is exact,
  /// so a reserving caller pays exactly one allocation per buffer.
  void reserve(usize n) { buf_.reserve(buf_.size() + n); }

  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  std::vector<u8> buf_;
};

/// Incremental bounds-checked little-endian reader. Every getter returns
/// nullopt once the input is exhausted; `ok()` goes false and stays false.
class Decoder {
 public:
  explicit Decoder(std::span<const u8> bytes) : bytes_(bytes) {}

  std::optional<u8> get_u8();
  std::optional<u32> get_u32();
  std::optional<u64> get_u64();
  std::optional<i64> get_i64();

  bool ok() const { return ok_; }
  usize remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const u8> bytes_;
  usize pos_ = 0;
  bool ok_ = true;
};

// ---- mp::WireMessage / mp::SignedAppend ----

void encode_record(Encoder& enc, const mp::SignedAppend& rec);
std::optional<mp::SignedAppend> decode_record(Decoder& dec);

/// Zero-copy record write: serializes `rec` into the first
/// mp::kWireRecordBytes of `dst` (which must be at least that large) with
/// no intermediate buffer. Returns the bytes written. Byte-identical to
/// encode_record, pinned by tests/net/codec_test.cpp.
usize encode_record_to(std::span<u8> dst, const mp::SignedAppend& rec);

/// Zero-copy record read: decodes the first mp::kWireRecordBytes of `src`
/// (a borrowed view into a receive buffer or arena page); nullopt when
/// `src` is shorter than one record.
std::optional<mp::SignedAppend> decode_record_from(std::span<const u8> src);

void encode_checkpoint(Encoder& enc, const mp::Checkpoint& ckpt);
std::optional<mp::Checkpoint> decode_checkpoint(Decoder& dec);

/// Encodes the message payload (no frame header, no frame kind byte).
/// Postcondition: result.size() == msg.wire_size().
std::vector<u8> encode_message(const mp::WireMessage& msg);

/// Encodes [u32 len][kMsg kind][payload] in one exactly-sized allocation —
/// the transport's send path: no payload-to-frame copy, and on broadcast
/// the returned buffer becomes a shared page referenced by every peer's
/// queue. Byte-identical to append_frame(encode_message(msg)).
std::vector<u8> encode_framed_message(const mp::WireMessage& msg);

/// Decodes a message payload; rejects trailing garbage, truncation, bad
/// kind tags and view counts that do not match the remaining bytes.
std::optional<mp::WireMessage> decode_message(std::span<const u8> payload);

// ---- handshake ----

struct Hello {
  NodeId node;
  u64 nonce = 0;
  crypto::Signature sig;

  /// The digest the hello signature covers.
  u64 digest() const;
};

std::vector<u8> encode_hello(const Hello& hello);
std::optional<Hello> decode_hello(std::span<const u8> payload);

// ---- control plane (amm_ctl <-> amm_node) ----

enum class CtlOp : u8 {
  kAppend = 1,  ///< append `value` to the hosted node's register
  kRead = 2,    ///< M.read(): reply with the merged view
  kDecide = 3,  ///< run the DAG BA decision rule over a fresh read
  kStats = 4,   ///< transport + node counters
  kKick = 5,    ///< close all outbound links (forces reconnect/backoff)
};

struct CtlRequest {
  CtlOp op = CtlOp::kStats;
  i64 value = 0;  ///< kAppend: the value
  u32 k = 0;      ///< kDecide: the cut size
};

/// Machine-readable failure reason carried by every CtlReply, so scripts
/// can tell a refusal from a mere not-yet (amm_ctl maps these to distinct
/// exit codes and prints `reason=<name>`).
enum class CtlStatus : u8 {
  kOk = 0,
  kUnavailable = 1,      ///< op could not run (empty view, node not ready)
  kUndecided = 2,        ///< kDecide: no side reached the k-cut yet
  kRefusedBelowFold = 3, ///< kDecide: cut lies below the compaction fold
};

/// Stable lower-case name for a CtlStatus (`ok`, `unavailable`, ...).
const char* ctl_status_name(CtlStatus status);

struct CtlReply {
  CtlOp op = CtlOp::kStats;
  bool ok = false;
  CtlStatus status = CtlStatus::kUnavailable;  ///< kOk iff ok
  i64 decision = 0;                      ///< kDecide: ±1
  u32 decided_over = 0;                  ///< kDecide: records considered
  std::vector<mp::SignedAppend> view;    ///< kRead: the merged view
  mp::NodeStats stats;                   ///< kStats (mp/node_stats.hpp)
};

std::vector<u8> encode_ctl_request(const CtlRequest& req);
std::optional<CtlRequest> decode_ctl_request(std::span<const u8> payload);
std::vector<u8> encode_ctl_reply(const CtlReply& rep);
/// Encodes [u32 len][kCtlRep kind][payload] in one exactly-sized
/// allocation — send_ctl_reply's path, with no payload-to-frame copy.
/// Byte-identical to append_frame(kCtlRep, encode_ctl_reply(rep)).
std::vector<u8> encode_framed_ctl_reply(const CtlReply& rep);
std::optional<CtlReply> decode_ctl_reply(std::span<const u8> payload);

// ---- framing ----

/// Appends [u32 len][kind][payload] to `out`.
void append_frame(std::vector<u8>& out, FrameKind kind, std::span<const u8> payload);

/// One frame extracted from a connection's receive buffer.
struct Frame {
  FrameKind kind;
  std::vector<u8> payload;
};

enum class FrameStatus : u8 {
  kFrame,       ///< one complete frame extracted
  kNeedMore,    ///< header or body incomplete — read more bytes
  kCorrupt,     ///< oversized length or unknown kind — drop the connection
};

/// Extracts the next complete frame from the front of `buf`, consuming its
/// bytes. kNeedMore leaves `buf` untouched.
FrameStatus extract_frame(std::vector<u8>& buf, Frame* out);

/// One frame viewed in place inside a receive buffer: the payload is a
/// borrowed span, valid only until the buffer is mutated.
struct FrameView {
  FrameKind kind;
  std::span<const u8> payload;
};

/// Parses the frame starting at `buf` without consuming anything: on
/// kFrame, `*out` borrows the payload bytes in place and `*consumed` is
/// the total frame size (header included). A drain loop advances an
/// offset across the buffer and erases the consumed prefix once at the
/// end — one memmove per drain instead of one per frame.
FrameStatus extract_frame_view(std::span<const u8> buf, FrameView* out, usize* consumed);

}  // namespace amm::net
