// A capture-only transport for single-node protocol surgery.
//
// send()/broadcast() log instead of delivering, so a test can feed one
// AbdNode a hand-crafted message sequence (out-of-order records, forged
// signatures, forged checkpoint replies) and inspect exactly what the
// node emits.
#pragma once

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mp/transport.hpp"

namespace amm::mp {

class InjectTransport final : public Transport {
 public:
  explicit InjectTransport(u32 n) : n_(n), handlers_(n) {}

  u32 node_count() const override { return n_; }
  void attach(NodeId id, Handler handler) override {
    handlers_[id.index] = std::move(handler);
  }
  void send(NodeId from, NodeId to, WireMessage msg) override {
    ++messages_sent_;
    bytes_sent_ += msg.wire_size();
    outbox.emplace_back(from, std::move(msg));
    (void)to;
  }
  void broadcast(NodeId from, const WireMessage& msg) override {
    ++messages_sent_;
    bytes_sent_ += msg.wire_size();
    outbox.emplace_back(from, msg);
  }
  u64 messages_sent() const override { return messages_sent_; }
  u64 bytes_sent() const override { return bytes_sent_; }

  /// Delivers `msg` to node `to` as if sent by `from`.
  void deliver(NodeId from, NodeId to, const WireMessage& msg) {
    ASSERT_TRUE(handlers_[to.index]);
    handlers_[to.index](from, msg);
  }

  /// Messages of `kind` captured so far.
  usize sent_of(WireMessage::Kind kind) const {
    usize count = 0;
    for (const auto& [from, msg] : outbox) count += msg.kind == kind ? 1 : 0;
    return count;
  }

  std::vector<std::pair<NodeId, WireMessage>> outbox;

 private:
  u32 n_;
  std::vector<Handler> handlers_;
  u64 messages_sent_ = 0;
  u64 bytes_sent_ = 0;
};

}  // namespace amm::mp
