// Lemma 4.1 admission in AbdNode::handle, the one place it runs for every
// transport: the structural rules (who may sign what) and the signature
// checks for each WireMessage::Kind, driven message by message through a
// capture-only transport.
#include <gtest/gtest.h>

#include <vector>

#include "inject_transport.hpp"
#include "mp/abd.hpp"

namespace amm::mp {
namespace {

using Kind = WireMessage::Kind;

constexpr u32 kNodes = 4;  ///< quorum 3
const NodeId kSelf{0};
const NodeId kPeer{1};  ///< the sender every message below arrives from

struct Fixture {
  crypto::KeyRegistry keys{kNodes, 7};
  InjectTransport net{kNodes};
  AbdNode node{kSelf, net, keys};

  SignedAppend record(u32 author, u32 seq) const {
    SignedAppend rec;
    rec.author = NodeId{author};
    rec.seq = seq;
    rec.value = static_cast<i64>(100 * author + seq);
    rec.sig = keys.sign(rec.author, rec.digest());
    return rec;
  }

  void deliver(NodeId from, const WireMessage& msg) { net.deliver(from, kSelf, msg); }

  WireMessage append_of(const SignedAppend& rec) const {
    WireMessage msg;
    msg.kind = Kind::kAppend;
    msg.append = rec;
    return msg;
  }

  /// The most recent captured message, which must be of `kind`.
  const WireMessage& last(Kind kind) const {
    EXPECT_FALSE(net.outbox.empty());
    EXPECT_EQ(net.outbox.back().second.kind, kind);
    return net.outbox.back().second;
  }

  u64 registry_checks() const { return node.stats().verify_cache_misses; }
  u64 sig_rejects() const { return node.stats().sig_rejects; }
};

TEST(WireAdmission, AppendNeedsTheAuthorsOwnValidSignature) {
  Fixture f;
  const SignedAppend held = f.record(2, 0);
  f.deliver(kPeer, f.append_of(held));  // relayed by peer 1: the author need not be the sender
  EXPECT_EQ(f.node.live_records(), 1u);
  EXPECT_EQ(f.net.sent_of(Kind::kAck), 1u);

  SignedAppend other_signer = f.record(2, 1);  // a valid signature, but not the author's
  other_signer.sig = f.keys.sign(NodeId{3}, other_signer.digest());
  f.deliver(kPeer, f.append_of(other_signer));

  SignedAppend forged = f.record(3, 0);
  forged.sig.tag ^= 1;
  f.deliver(kPeer, f.append_of(forged));

  // A forged duplicate of a held record: nothing to admit, and no ack.
  SignedAppend forged_duplicate = held;
  forged_duplicate.sig.tag ^= 1;
  f.deliver(kPeer, f.append_of(forged_duplicate));

  EXPECT_EQ(f.node.live_records(), 1u);
  EXPECT_EQ(f.node.local_view()[0], held);
  EXPECT_EQ(f.net.sent_of(Kind::kAck), 1u);
  EXPECT_EQ(f.sig_rejects(), 3u);
  // signer != author is rejected before any registry check.
  EXPECT_EQ(f.registry_checks(), 3u);
}

TEST(WireAdmission, AckMustBeSignedByTheSessionPeer) {
  Fixture f;
  bool done = false;
  f.node.begin_append(5, [&] { done = true; });
  const SignedAppend rec = f.last(Kind::kAppend).append;
  const auto ack = [&](u32 signer) {
    WireMessage msg;
    msg.kind = Kind::kAck;
    msg.append = rec;
    msg.ack_sig = f.keys.sign(NodeId{signer}, rec.digest());
    return msg;
  };

  f.deliver(kPeer, ack(1));
  // Valid acks by nodes 2 and 3, carried by peer 1: counted, they would
  // complete the quorum of 3.
  f.deliver(kPeer, ack(2));
  f.deliver(kPeer, ack(3));
  EXPECT_FALSE(done);
  WireMessage forged = ack(2);
  forged.ack_sig.tag ^= 1;
  f.deliver(NodeId{2}, forged);
  f.deliver(NodeId{2}, ack(2));
  EXPECT_FALSE(done);
  EXPECT_EQ(f.sig_rejects(), 3u);

  f.deliver(NodeId{3}, ack(3));
  EXPECT_TRUE(done);
}

TEST(WireAdmission, CheckpointReplyMustBeSignedByTheSessionPeer) {
  Fixture f;
  bool synced = false;
  f.node.begin_checkpoint_sync([&](bool ok) { synced = ok; });
  const u64 rid = f.last(Kind::kCheckpointReq).read_id;
  const auto reply = [&](u32 signer) {
    WireMessage msg;
    msg.kind = Kind::kCheckpointReply;
    msg.read_id = rid;
    msg.checkpoint.folded_below = 64;
    msg.checkpoint.chains = {1, 2, 3, 4};
    msg.checkpoint.folded_records = 256;
    msg.checkpoint.vote_sum = -4;
    msg.checkpoint.sig = f.keys.sign(NodeId{signer}, msg.checkpoint.digest());
    return msg;
  };

  f.deliver(NodeId{1}, reply(1));
  f.deliver(NodeId{2}, reply(2));
  f.deliver(NodeId{3}, reply(0));  // vouched for by another node
  WireMessage forged = reply(3);
  forged.checkpoint.sig.tag ^= 1;
  f.deliver(NodeId{3}, forged);
  EXPECT_FALSE(synced);  // either one, counted, would complete the quorum
  EXPECT_EQ(f.sig_rejects(), 2u);

  f.deliver(NodeId{3}, reply(3));
  EXPECT_TRUE(synced);
}

TEST(WireAdmission, ReadReplyKeepsOnlyValidRecordsInOrder) {
  Fixture f;
  bool read_done = false;
  f.node.begin_read([&](const std::vector<SignedAppend>&) { read_done = true; });
  const WireMessage req = f.last(Kind::kReadReq);
  const auto reply = [&](std::vector<SignedAppend> view) {
    WireMessage msg;
    msg.kind = Kind::kReadReply;
    msg.read_id = req.read_id;
    msg.frontier_echo = frontier_digest(req.frontier);
    msg.view = std::move(view);
    return msg;
  };

  const std::vector<SignedAppend> valid = {f.record(0, 0), f.record(2, 0), f.record(0, 1),
                                           f.record(3, 5)};
  SignedAppend forged_tag = f.record(1, 0);
  forged_tag.sig.tag ^= 1;
  SignedAppend wrong_signer = f.record(2, 1);
  wrong_signer.sig = f.keys.sign(NodeId{0}, wrong_signer.digest());  // valid, not the author's
  f.deliver(NodeId{1},
            reply({valid[0], forged_tag, valid[1], wrong_signer, valid[2], forged_tag, valid[3]}));

  ASSERT_EQ(f.node.local_view().size(), valid.size());
  for (usize i = 0; i < valid.size(); ++i) {
    EXPECT_EQ(f.node.local_view()[i], valid[i]) << "position " << i;
    EXPECT_EQ(f.node.local_view()[i].sig, valid[i].sig) << "position " << i;
  }
  EXPECT_EQ(f.sig_rejects(), 3u);

  // A reply with nothing valid in it still counts its responder.
  f.deliver(NodeId{2}, reply({forged_tag, wrong_signer}));
  EXPECT_EQ(f.sig_rejects(), 5u);
  EXPECT_EQ(f.node.local_view().size(), valid.size());
  EXPECT_FALSE(read_done);
  f.deliver(NodeId{3}, reply({}));
  EXPECT_TRUE(read_done);
}

TEST(WireAdmission, UnsignedRequestsAreDelivered) {
  Fixture f;
  WireMessage read_req;
  read_req.kind = Kind::kReadReq;
  read_req.read_id = 1;
  read_req.frontier = {FrontierEntry{NodeId{0}, 3}, FrontierEntry{NodeId{2}, 1}};
  f.deliver(kPeer, read_req);
  EXPECT_EQ(f.last(Kind::kReadReply).read_id, 1u);

  WireMessage checkpoint_req;
  checkpoint_req.kind = Kind::kCheckpointReq;
  checkpoint_req.read_id = 2;
  f.deliver(kPeer, checkpoint_req);
  EXPECT_EQ(f.last(Kind::kCheckpointReply).read_id, 2u);

  // Neither carried a signature to check.
  EXPECT_EQ(f.registry_checks(), 0u);
  EXPECT_EQ(f.sig_rejects(), 0u);
}

TEST(WireAdmission, EachSignatureCostsOneRegistryCheck) {
  // The same record as a broadcast, then twice inside a read reply: the
  // node already holds it, so the reply costs no registry check. A
  // re-broadcast append is checked again, since it is acked again.
  Fixture f;
  const SignedAppend rec = f.record(1, 0);
  f.deliver(kPeer, f.append_of(rec));
  EXPECT_EQ(f.registry_checks(), 1u);

  f.node.begin_read([](const std::vector<SignedAppend>&) {});
  const WireMessage req = f.last(Kind::kReadReq);
  WireMessage reply;
  reply.kind = Kind::kReadReply;
  reply.read_id = req.read_id;
  reply.frontier_echo = frontier_digest(req.frontier);
  reply.view = {rec, rec};
  f.deliver(NodeId{2}, reply);
  EXPECT_EQ(f.registry_checks(), 1u);

  f.deliver(kPeer, f.append_of(rec));
  EXPECT_EQ(f.registry_checks(), 2u);
  EXPECT_EQ(f.net.sent_of(Kind::kAck), 2u);
  EXPECT_EQ(f.node.live_records(), 1u);
  EXPECT_EQ(f.node.verify_cache_hits(), 0u);
}

}  // namespace
}  // namespace amm::mp
