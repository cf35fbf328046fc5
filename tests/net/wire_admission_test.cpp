// net::admit_wire_message — Lemma 4.1 at the wire, one call per decoded
// message: the structural rules and the signature checks for every
// WireMessage::Kind, run against one VerifyCache.
#include <gtest/gtest.h>

#include <vector>

#include "net/peer.hpp"

namespace amm::net {
namespace {

using Kind = mp::WireMessage::Kind;

constexpr u32 kNodes = 4;
const NodeId kPeer{1};  ///< the session's authenticated peer

struct Fixture {
  crypto::KeyRegistry keys{kNodes, 7};
  crypto::VerifyCache cache{keys};
  u64 filtered = 0;

  mp::SignedAppend record(u32 author, u32 seq) const {
    mp::SignedAppend rec;
    rec.author = NodeId{author};
    rec.seq = seq;
    rec.value = static_cast<i64>(100 * author + seq);
    rec.sig = keys.sign(rec.author, rec.digest());
    return rec;
  }

  Admission admit(mp::WireMessage& msg) { return admit_wire_message(msg, kPeer, cache, &filtered); }
};

TEST(WireAdmission, AppendNeedsTheAuthorsOwnValidSignature) {
  Fixture f;
  mp::WireMessage msg;
  msg.kind = Kind::kAppend;
  msg.append = f.record(2, 0);  // relayed by peer 1: the author need not be the sender
  EXPECT_EQ(f.admit(msg), Admission::kDeliver);

  mp::WireMessage other_signer = msg;  // a valid signature, but not the author's
  other_signer.append.sig = f.keys.sign(NodeId{3}, msg.append.digest());
  EXPECT_EQ(f.admit(other_signer), Admission::kReject);

  mp::WireMessage forged = msg;
  forged.append.sig.tag ^= 1;
  EXPECT_EQ(f.admit(forged), Admission::kReject);
  EXPECT_EQ(f.filtered, 0u);  // only read replies are filtered
}

TEST(WireAdmission, AckMustBeSignedByTheSessionPeer) {
  Fixture f;
  mp::WireMessage msg;
  msg.kind = Kind::kAck;
  msg.append = f.record(0, 3);
  msg.ack_sig = f.keys.sign(kPeer, msg.append.digest());
  EXPECT_EQ(f.admit(msg), Admission::kDeliver);

  mp::WireMessage proxy = msg;  // a valid ack by node 2, carried on peer 1's session
  proxy.ack_sig = f.keys.sign(NodeId{2}, msg.append.digest());
  EXPECT_EQ(f.admit(proxy), Admission::kReject);

  mp::WireMessage forged = msg;
  forged.ack_sig.tag ^= 1;
  EXPECT_EQ(f.admit(forged), Admission::kReject);
}

TEST(WireAdmission, CheckpointReplyMustBeSignedByTheSessionPeer) {
  Fixture f;
  mp::WireMessage msg;
  msg.kind = Kind::kCheckpointReply;
  msg.read_id = 9;
  msg.checkpoint.folded_below = 64;
  msg.checkpoint.chains = {1, 2, 3, 4};
  msg.checkpoint.folded_records = 256;
  msg.checkpoint.vote_sum = -4;
  msg.checkpoint.sig = f.keys.sign(kPeer, msg.checkpoint.digest());
  EXPECT_EQ(f.admit(msg), Admission::kDeliver);

  mp::WireMessage vouched_by_other = msg;
  vouched_by_other.checkpoint.sig = f.keys.sign(NodeId{0}, msg.checkpoint.digest());
  EXPECT_EQ(f.admit(vouched_by_other), Admission::kReject);

  mp::WireMessage forged = msg;
  forged.checkpoint.sig.tag ^= 1;
  EXPECT_EQ(f.admit(forged), Admission::kReject);
}

TEST(WireAdmission, ReadReplyKeepsOnlyValidRecordsInOrder) {
  Fixture f;
  mp::WireMessage msg;
  msg.kind = Kind::kReadReply;
  msg.read_id = 4;
  const std::vector<mp::SignedAppend> valid = {f.record(0, 0), f.record(2, 0), f.record(0, 1),
                                               f.record(3, 5)};
  mp::SignedAppend forged_tag = f.record(1, 0);
  forged_tag.sig.tag ^= 1;
  mp::SignedAppend wrong_signer = f.record(2, 1);
  wrong_signer.sig = f.keys.sign(NodeId{0}, wrong_signer.digest());  // valid, not the author's
  msg.view = {valid[0], forged_tag, valid[1], wrong_signer, valid[2], forged_tag, valid[3]};

  EXPECT_EQ(f.admit(msg), Admission::kDeliver);
  ASSERT_EQ(msg.view.size(), valid.size());
  for (usize i = 0; i < valid.size(); ++i) {
    EXPECT_EQ(msg.view[i], valid[i]) << "position " << i;
    EXPECT_EQ(msg.view[i].sig, valid[i].sig) << "position " << i;
  }
  EXPECT_EQ(f.filtered, 3u);

  // A reply with nothing valid left is still delivered, empty.
  mp::WireMessage all_bad;
  all_bad.kind = Kind::kReadReply;
  all_bad.view = {forged_tag, wrong_signer};
  EXPECT_EQ(f.admit(all_bad), Admission::kDeliver);
  EXPECT_TRUE(all_bad.view.empty());
  EXPECT_EQ(f.filtered, 5u);
}

TEST(WireAdmission, UnsignedRequestsAreDelivered) {
  Fixture f;
  mp::WireMessage read_req;
  read_req.kind = Kind::kReadReq;
  read_req.read_id = 1;
  read_req.frontier = {mp::FrontierEntry{NodeId{0}, 3}, mp::FrontierEntry{NodeId{2}, 1}};
  EXPECT_EQ(f.admit(read_req), Admission::kDeliver);
  EXPECT_EQ(read_req.frontier.size(), 2u);

  mp::WireMessage checkpoint_req;
  checkpoint_req.kind = Kind::kCheckpointReq;
  checkpoint_req.read_id = 2;
  EXPECT_EQ(f.admit(checkpoint_req), Admission::kDeliver);

  // Neither consulted the cache.
  EXPECT_EQ(f.cache.hits() + f.cache.misses(), 0u);
  EXPECT_EQ(f.filtered, 0u);
}

TEST(WireAdmission, EachSignatureCostsOneRegistryCheck) {
  // The same record as a broadcast, then inside a read reply: the second
  // sighting is a cache hit.
  Fixture f;
  mp::WireMessage append;
  append.kind = Kind::kAppend;
  append.append = f.record(0, 0);
  ASSERT_EQ(f.admit(append), Admission::kDeliver);
  mp::WireMessage reply;
  reply.kind = Kind::kReadReply;
  reply.view = {append.append, append.append};
  ASSERT_EQ(f.admit(reply), Admission::kDeliver);
  EXPECT_EQ(reply.view.size(), 2u);
  EXPECT_EQ(f.cache.misses(), 1u);
  EXPECT_EQ(f.cache.hits(), 2u);
}

}  // namespace
}  // namespace amm::net
