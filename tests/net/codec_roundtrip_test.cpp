// Codec property sweep driven by the message-kind table itself: samples
// are produced by a switch over WireMessage::Kind with no default, so a
// fifth kind fails to compile here (-Wswitch under -Werror) until both a
// sample generator and the equality predicate cover it. Every sampled
// message is round-tripped, truncated at every byte offset, and extended
// with trailing garbage; the handshake and control-plane codecs get the
// same exhaustive-truncation treatment. Runs under the ASan/UBSan matrix:
// a decoder that reads one byte out of bounds fails here, not in prod.
#include "net/codec.hpp"

#include <array>
#include <gtest/gtest.h>
#include <span>
#include <vector>

#include "crypto/signature.hpp"
#include "support/rng.hpp"

namespace amm::net {
namespace {

using Kind = mp::WireMessage::Kind;

// The iteration table. kind_ordinal() below is the compile-time guard: it
// switches over Kind without a default, so adding an enumerator breaks
// the build here, and the static_assert forces this table to grow too.
constexpr std::array<Kind, 6> kAllKinds = {Kind::kAppend,        Kind::kAck,
                                           Kind::kReadReq,       Kind::kReadReply,
                                           Kind::kCheckpointReq, Kind::kCheckpointReply};

constexpr usize kind_ordinal(Kind kind) {
  switch (kind) {
    case Kind::kAppend:
      return 0;
    case Kind::kAck:
      return 1;
    case Kind::kReadReq:
      return 2;
    case Kind::kReadReply:
      return 3;
    case Kind::kCheckpointReq:
      return 4;
    case Kind::kCheckpointReply:
      return 5;
  }
  return kAllKinds.size();  // unreachable: the switch above is exhaustive
}

static_assert(kind_ordinal(kAllKinds.back()) + 1 == kAllKinds.size(),
              "kAllKinds must enumerate every WireMessage::Kind in order");

mp::SignedAppend make_record(Rng& rng) {
  mp::SignedAppend rec;
  rec.author = NodeId{static_cast<u32>(rng.uniform_below(8))};
  rec.seq = static_cast<u32>(rng.uniform_below(1u << 20));
  rec.value = rng.uniform_int(-1'000'000, 1'000'000);
  rec.sig = crypto::Signature{rec.author, rng.next()};
  return rec;
}

// One sample per variable-length payload size; fixed-size kinds get one.
// The switch has no default on purpose — see the file comment.
std::vector<mp::WireMessage> samples_for(Kind kind, Rng& rng) {
  std::vector<mp::WireMessage> out;
  const std::array<usize, 3> sizes = {0, 1, 7};
  switch (kind) {
    case Kind::kAppend: {
      mp::WireMessage msg;
      msg.kind = kind;
      msg.append = make_record(rng);
      out.push_back(msg);
      break;
    }
    case Kind::kAck: {
      mp::WireMessage msg;
      msg.kind = kind;
      msg.append = make_record(rng);
      msg.ack_sig = crypto::Signature{NodeId{static_cast<u32>(rng.uniform_below(8))}, rng.next()};
      out.push_back(msg);
      break;
    }
    case Kind::kReadReq: {
      for (const usize n : sizes) {
        mp::WireMessage msg;
        msg.kind = kind;
        msg.read_id = rng.next();
        for (usize i = 0; i < n; ++i) {
          msg.frontier.push_back(mp::FrontierEntry{NodeId{static_cast<u32>(rng.uniform_below(8))},
                                                   static_cast<u32>(rng.uniform_below(1u << 20))});
        }
        out.push_back(msg);
      }
      break;
    }
    case Kind::kReadReply: {
      for (const usize n : sizes) {
        mp::WireMessage msg;
        msg.kind = kind;
        msg.read_id = rng.next();
        msg.frontier_echo = rng.next();
        for (usize i = 0; i < n; ++i) msg.view.push_back(make_record(rng));
        out.push_back(msg);
      }
      break;
    }
    case Kind::kCheckpointReq: {
      mp::WireMessage msg;
      msg.kind = kind;
      msg.read_id = rng.next();
      out.push_back(msg);
      break;
    }
    case Kind::kCheckpointReply: {
      // `n` is the per-author chain count; the codec carries whatever the
      // checkpoint says (well-formedness is the protocol layer's check).
      for (const usize n : sizes) {
        mp::WireMessage msg;
        msg.kind = kind;
        msg.read_id = rng.next();
        msg.checkpoint.folded_below = static_cast<u32>(rng.uniform_below(1u << 16));
        for (usize i = 0; i < n; ++i) msg.checkpoint.chains.push_back(rng.next());
        msg.checkpoint.folded_records = rng.next();
        msg.checkpoint.vote_sum = rng.uniform_int(-1'000'000, 1'000'000);
        msg.checkpoint.sig =
            crypto::Signature{NodeId{static_cast<u32>(rng.uniform_below(8))}, rng.next()};
        out.push_back(msg);
      }
      break;
    }
  }
  return out;
}

bool equal(const mp::WireMessage& a, const mp::WireMessage& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kAppend:
      return a.append == b.append && a.append.sig == b.append.sig;
    case Kind::kAck:
      return a.append == b.append && a.append.sig == b.append.sig && a.ack_sig == b.ack_sig;
    case Kind::kReadReq:
      return a.read_id == b.read_id && a.frontier == b.frontier;
    case Kind::kReadReply: {
      if (a.read_id != b.read_id || a.frontier_echo != b.frontier_echo ||
          a.view.size() != b.view.size()) {
        return false;
      }
      for (usize i = 0; i < a.view.size(); ++i) {
        if (!(a.view[i] == b.view[i]) || !(a.view[i].sig == b.view[i].sig)) return false;
      }
      return true;
    }
    case Kind::kCheckpointReq:
      return a.read_id == b.read_id;
    case Kind::kCheckpointReply:
      return a.read_id == b.read_id && a.checkpoint == b.checkpoint;
  }
  return false;
}

// Decode must reject every strict prefix and every extension of a valid
// encoding — totality at each boundary, not just "some" truncation.
template <typename Decode>
void expect_prefix_and_suffix_rejection(const std::vector<u8>& bytes, Decode decode,
                                        const char* what) {
  for (usize len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode(std::span(bytes.data(), len)).has_value())
        << what << " accepted a " << len << "-byte prefix of " << bytes.size();
  }
  std::vector<u8> extended = bytes;
  extended.push_back(0x5A);
  EXPECT_FALSE(decode(extended).has_value()) << what << " accepted trailing garbage";
}

TEST(CodecRoundTrip, EverySampledMessageRoundTrips) {
  Rng rng(31);
  for (const Kind kind : kAllKinds) {
    for (const mp::WireMessage& msg : samples_for(kind, rng)) {
      const std::vector<u8> bytes = encode_message(msg);
      ASSERT_EQ(bytes.size(), msg.wire_size()) << "ordinal=" << kind_ordinal(kind);
      const auto decoded = decode_message(bytes);
      ASSERT_TRUE(decoded.has_value()) << "ordinal=" << kind_ordinal(kind);
      EXPECT_TRUE(equal(msg, *decoded)) << "ordinal=" << kind_ordinal(kind);
      EXPECT_EQ(encode_message(*decoded), bytes);  // canonical encoding
    }
  }
}

TEST(CodecRoundTrip, EveryTruncationOffsetRejectedForEveryKind) {
  Rng rng(32);
  for (const Kind kind : kAllKinds) {
    for (const mp::WireMessage& msg : samples_for(kind, rng)) {
      expect_prefix_and_suffix_rejection(
          encode_message(msg), [](std::span<const u8> b) { return decode_message(b); },
          "decode_message");
    }
  }
}

TEST(CodecRoundTrip, HelloEveryTruncationOffsetRejected) {
  crypto::KeyRegistry keys(4, 99);
  Hello hello;
  hello.node = NodeId{1};
  hello.nonce = 0xFEEDFACE;
  hello.sig = keys.sign(NodeId{1}, hello.digest());

  const std::vector<u8> bytes = encode_hello(hello);
  const auto decoded = decode_hello(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node, hello.node);
  EXPECT_EQ(decoded->nonce, hello.nonce);
  EXPECT_EQ(decoded->sig, hello.sig);
  expect_prefix_and_suffix_rejection(
      bytes, [](std::span<const u8> b) { return decode_hello(b); }, "decode_hello");
}

TEST(CodecRoundTrip, CtlRequestEveryTruncationOffsetRejected) {
  for (const CtlOp op :
       {CtlOp::kAppend, CtlOp::kRead, CtlOp::kDecide, CtlOp::kStats, CtlOp::kKick}) {
    const CtlRequest request{op, -123456789, 17};
    const std::vector<u8> bytes = encode_ctl_request(request);
    const auto decoded = decode_ctl_request(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->op, op);
    EXPECT_EQ(decoded->value, request.value);
    EXPECT_EQ(decoded->k, request.k);
    expect_prefix_and_suffix_rejection(
        bytes, [](std::span<const u8> b) { return decode_ctl_request(b); }, "decode_ctl_request");
  }
}

TEST(CodecRoundTrip, CtlReplyEveryTruncationOffsetRejected) {
  Rng rng(33);
  for (const usize view_size : {usize{0}, usize{3}}) {
    CtlReply reply;
    reply.op = CtlOp::kRead;
    reply.ok = true;
    reply.status = CtlStatus::kOk;
    reply.decision = 1;
    reply.decided_over = 4;
    for (usize i = 0; i < view_size; ++i) reply.view.push_back(make_record(rng));
    for (usize i = 0; i < mp::kNodeStatsFieldCount; ++i) {
      reply.stats.*mp::kNodeStatsFields[i].member = i + 1;
    }

    const std::vector<u8> bytes = encode_ctl_reply(reply);
    const auto decoded = decode_ctl_reply(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->view.size(), view_size);
    EXPECT_EQ(decoded->stats.verify_cache_hits, 12u);
    // Pin the last NodeStats field: a field appended to the struct but not
    // the field table shows up here as a dropped value.
    EXPECT_EQ(decoded->stats.writes, mp::kNodeStatsFieldCount);
    expect_prefix_and_suffix_rejection(
        bytes, [](std::span<const u8> b) { return decode_ctl_reply(b); }, "decode_ctl_reply");
  }
}

}  // namespace
}  // namespace amm::net
