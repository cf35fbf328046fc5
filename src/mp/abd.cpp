#include "mp/abd.hpp"

#include <algorithm>

namespace amm::mp {

AbdNode::AbdNode(NodeId id, Transport& net, const crypto::KeyRegistry& keys, AbdConfig config)
    : id_(id),
      net_(&net),
      keys_(&keys),
      verifier_(keys, config.verify_cache_cap),
      config_(config),
      builder_(keys.node_count()),
      quorum_(net.node_count() / 2 + 1),
      watermark_(keys.node_count(), 0),
      parked_(keys.node_count()) {
  AMM_EXPECTS(config_.max_pipeline >= 1);
  AMM_EXPECTS(config_.compact.quantum >= 1);
  // The empty checkpoint is served to kCheckpointReq like any other, so it
  // carries a valid signature from birth.
  checkpoint_.sig = keys_->sign(id_, checkpoint_.digest());
  net_->attach(id_, [this](NodeId from, const WireMessage& msg) { handle(from, msg); });
}

NodeStats AbdNode::stats() const {
  NodeStats s = stats_;
  s.view_size = view_.size();
  s.appends_issued = next_seq_;
  // The checkpoint's count, not local fold activity: a node that adopted
  // its checkpoint folded nothing itself but still summarizes these.
  s.records_folded = checkpoint_.folded_records;
  s.live_records = view_.size();
  s.verify_cache_hits = verifier_.hits();
  s.verify_cache_misses = verifier_.misses();
  s.verify_cache_evictions = verifier_.evictions();
  if (config_.storage != nullptr) {
    s.log_bytes = config_.storage->stats().log_bytes;
    s.snapshot_count = config_.storage->stats().snapshot_count;
  }
  return s;
}

u32 AbdNode::stability_cut() const {
  return watermark_.empty() ? 0 : *std::min_element(watermark_.begin(), watermark_.end());
}

u32 AbdNode::auto_cut() const {
  const u32 stable = stability_cut();
  const u32 lagged = stable > config_.compact.lag ? stable - config_.compact.lag : 0;
  // Quantized so nodes with agreeing watermarks fold to byte-identical
  // checkpoints (checkpoint sync compares them structurally).
  return lagged - lagged % config_.compact.quantum;
}

void AbdNode::compact_below(u32 s_cut) {
  s_cut = std::min(s_cut, stability_cut());
  if (s_cut <= checkpoint_.folded_below) return;
  builder_.extend(checkpoint_, view_, s_cut);
  checkpoint_.sig = keys_->sign(id_, checkpoint_.digest());
  if (!config_.compact.retain_records) {
    // Summary mode: the folded bodies are summarized by the checkpoint;
    // drop them. erase_if keeps the suffix in arrival order.
    std::erase_if(view_, [s_cut](const SignedAppend& r) { return r.seq < s_cut; });
  }
  // parked_ only ever holds seqs above the watermark (>= the cut), so
  // there is nothing to prune there; the verify cache ages a generation —
  // folded records are never re-verified, so their verdicts die first.
  verifier_.rotate();
}

void AbdNode::maybe_auto_compact() {
  if (!config_.compact.enabled || config_.compact.auto_interval == 0) return;
  if (++admits_since_compact_ < config_.compact.auto_interval) return;
  admits_since_compact_ = 0;
  const u32 cut = auto_cut();
  if (cut > checkpoint_.folded_below) compact_below(cut);
}

void AbdNode::begin_append(i64 value, std::function<void()> done) {
  if (pending_appends_.size() >= config_.max_pipeline) {
    append_backlog_.push_back(QueuedAppend{value, std::move(done)});
    return;
  }
  launch_append(value, std::move(done));
}

void AbdNode::launch_append(i64 value, std::function<void()> done) {
  SignedAppend rec;
  rec.author = id_;
  rec.seq = next_seq_++;
  rec.value = value;
  rec.sig = keys_->sign(id_, rec.digest());

  pending_appends_.emplace(rec.digest(), PendingAppend{{}, std::move(done)});

  WireMessage msg;
  msg.kind = WireMessage::Kind::kAppend;
  msg.append = rec;
  net_->broadcast(id_, msg);
}

std::vector<FrontierEntry> AbdNode::make_frontier() const {
  std::vector<FrontierEntry> frontier;
  for (u32 a = 0; a < watermark_.size(); ++a) {
    if (watermark_[a] > 0) frontier.push_back(FrontierEntry{NodeId{a}, watermark_[a]});
  }
  return frontier;
}

void AbdNode::begin_read(std::function<void(const std::vector<SignedAppend>&)> done) {
  const u64 rid = (static_cast<u64>(id_.index) << 40) | next_read_id_++;

  WireMessage msg;
  msg.kind = WireMessage::Kind::kReadReq;
  msg.read_id = rid;
  if (config_.delta_reads) msg.frontier = make_frontier();
  // With delta_reads off the frontier stays empty, so responders — whose
  // code never branches on the mode — return their full view (Alg. 3).

  pending_reads_.emplace(
      rid, PendingRead{{}, std::move(done), false, false, frontier_digest(msg.frontier)});
  net_->broadcast(id_, msg);
}

void AbdNode::admit(const SignedAppend& rec) {
  const u32 a = rec.author.index;
  // Out-of-registry authors can never verify (KeyRegistry bounds-checks
  // the signer), so this is unreachable from the handler; reject outright.
  if (a >= watermark_.size()) return;
  // Dedup: only verified records reach this point and the simulated
  // signatures are existentially unforgeable, so (author, seq) identifies
  // the record — held iff below the contiguous prefix or parked.
  if (rec.seq < watermark_[a] || parked_[a].contains(rec.seq)) return;
  if (rec.seq > watermark_[a]) {
    // Out of order (gathered by a read merge before the author's own
    // broadcast arrived): park until the prefix catches up. The park set
    // is bounded; beyond the cap admission is refused entirely — the
    // record stays above our advertised frontier, so a later delta read
    // re-fetches it once the prefix advances.
    if (config_.compact.parked_cap != 0 && parked_[a].size() >= config_.compact.parked_cap) {
      ++stats_.parked_rejects;
      return;
    }
    parked_[a].insert(rec.seq);
    view_.push_back(rec);
    persist(rec);
    maybe_auto_compact();
    return;
  }
  // rec.seq == watermark_[a]: the contiguous prefix grows.
  view_.push_back(rec);
  persist(rec);
  ++watermark_[a];
  while (parked_[a].erase(watermark_[a]) > 0) ++watermark_[a];
  maybe_auto_compact();
}

void AbdNode::persist(const SignedAppend& rec) {
  // During recovery the admissions *come from* the log — re-appending them
  // would duplicate the suffix on every restart.
  if (config_.storage == nullptr || recovering_) return;
  config_.storage->append(rec);
  if (config_.snapshot_interval != 0 &&
      ++admits_since_snapshot_ >= config_.snapshot_interval) {
    admits_since_snapshot_ = 0;
    write_snapshot();
  }
}

void AbdNode::write_snapshot() {
  if (config_.storage == nullptr) return;
  Snapshot snap;
  snap.log_seq = config_.storage->log_seq();
  snap.next_seq = next_seq_;
  snap.watermarks = watermark_;
  snap.checkpoint = checkpoint_;
  snap.live = view_;
  snap.sig = keys_->sign(id_, snap.digest());
  config_.storage->write_snapshot(snap);
}

u64 AbdNode::recover_from_storage() {
  if (config_.storage == nullptr) return 0;
  Storage& store = *config_.storage;
  u64 replay_from = 0;
  if (const auto snap = store.load_snapshot()) {
    // Only our own signature over the full contents makes a snapshot
    // trustworthy — anything else (tamper, another node's store, registry
    // mismatch) falls back to replaying the whole retained log, which is
    // slower but never wrong.
    if (snap->sig.signer == id_ && keys_->verify(snap->digest(), snap->sig) &&
        snap->watermarks.size() == watermark_.size() && builder_.well_formed(snap->checkpoint)) {
      checkpoint_ = snap->checkpoint;
      watermark_ = snap->watermarks;
      next_seq_ = snap->next_seq;
      view_ = snap->live;
      // parked_ is derived state: a live record at or above its author's
      // watermark is exactly an out-of-order (parked) record.
      // analyze:allow(determinism-taint): clears every element — order cannot matter
      for (auto& parked : parked_) parked.clear();
      for (const SignedAppend& rec : view_) {
        if (rec.author.index < watermark_.size() && rec.seq >= watermark_[rec.author.index]) {
          parked_[rec.author.index].insert(rec.seq);
        }
      }
      // A snapshot written mid-admission (persist runs before the watermark
      // advance) can hold a live record its watermark had not absorbed yet;
      // normalize, or that author's frontier would be pinned below a record
      // we already hold, forever.
      for (usize a = 0; a < watermark_.size(); ++a) {
        while (parked_[a].erase(watermark_[a]) > 0) ++watermark_[a];
      }
      replay_from = snap->log_seq;
    }
  }
  recovering_ = true;
  const u64 replayed = store.replay(replay_from, [this](const SignedAppend& rec) {
    // The log only ever held verified records, but the disk is outside the
    // trust boundary — recovery re-verifies exactly like the wire path.
    if (rec.sig.signer == rec.author && verifier_.verify(rec.digest(), rec.sig)) {
      admit(rec);
    }
  });
  recovering_ = false;
  stats_.recovery_replayed_records += replayed;
  // Never reuse one of our own seqs: the log may hold appends whose quorum
  // completion we never observed before the crash.
  next_seq_ = std::max(next_seq_, watermark_[id_.index]);
  // analyze:allow(determinism-taint): commutative max fold — order cannot matter
  for (const u32 s : parked_[id_.index]) next_seq_ = std::max(next_seq_, s + 1);
  return replayed;
}

void AbdNode::handle(NodeId from, const WireMessage& msg) {
  switch (msg.kind) {
    case WireMessage::Kind::kAppend: {
      // Verify the author's signature; a Byzantine relay cannot forge a
      // correct author's record (Lemma 4.1).
      if (!verifier_.verify(msg.append.digest(), msg.append.sig)) return;
      if (msg.append.sig.signer != msg.append.author) return;
      admit(msg.append);
      WireMessage ack;
      ack.kind = WireMessage::Kind::kAck;
      ack.append = msg.append;
      ack.ack_sig = keys_->sign(id_, msg.append.digest());
      net_->send(id_, msg.append.author, std::move(ack));
      break;
    }
    case WireMessage::Kind::kAck: {
      const auto it = pending_appends_.find(msg.append.digest());
      if (it == pending_appends_.end()) return;
      if (!verifier_.verify(msg.append.digest(), msg.ack_sig)) return;
      it->second.ackers.insert(msg.ack_sig.signer.index);
      if (it->second.ackers.size() >= quorum_) {
        auto done = std::move(it->second.done);
        pending_appends_.erase(it);
        if (!append_backlog_.empty()) {
          QueuedAppend next = std::move(append_backlog_.front());
          append_backlog_.pop_front();
          launch_append(next.value, std::move(next.done));
        }
        if (done) done();
      }
      break;
    }
    case WireMessage::Kind::kReadReq: {
      // Per-author watermark requested by the reader; an empty frontier
      // (legacy mode, first read, or full-read fallback) requests all.
      std::vector<u32> wm(watermark_.size(), 0);
      for (const FrontierEntry& e : msg.frontier) {
        if (e.author.index < wm.size()) wm[e.author.index] = std::max(wm[e.author.index], e.seq);
      }
      WireMessage reply;
      reply.kind = WireMessage::Kind::kReadReply;
      reply.read_id = msg.read_id;
      reply.frontier_echo = frontier_digest(msg.frontier);
      for (const SignedAppend& rec : view_) {
        if (rec.author.index >= wm.size() || rec.seq >= wm[rec.author.index]) {
          reply.view.push_back(rec);
        }
      }
      if (msg.frontier.empty()) {
        ++stats_.reads_served_full;
      } else {
        ++stats_.reads_served_delta;
      }
      stats_.read_records_sent += reply.view.size();
      net_->send(id_, from, std::move(reply));
      break;
    }
    case WireMessage::Kind::kReadReply: {
      const auto it = pending_reads_.find(msg.read_id);
      if (it == pending_reads_.end() || it->second.finished) return;
      PendingRead& pr = it->second;
      if (msg.frontier_echo != pr.expected_echo) {
        // The responder answered a frontier we did not send: divergence
        // (corruption or adversary). Fall back to one full read with the
        // same read id; in-flight replies to the old frontier are then
        // ignored by the same echo check.
        if (!pr.fell_back) {
          pr.fell_back = true;
          pr.responders.clear();
          ++stats_.read_fallbacks;
          WireMessage retry;
          retry.kind = WireMessage::Kind::kReadReq;
          retry.read_id = msg.read_id;
          pr.expected_echo = frontier_digest(retry.frontier);  // empty frontier
          net_->broadcast(id_, retry);
        }
        return;
      }
      // Merge every validly signed record (Algorithm 3 line 6). A delta
      // reply is a subsequence of the responder's view containing every
      // record above our watermark — i.e. everything we could be missing —
      // so the merged result is identical to the full-view merge.
      for (const SignedAppend& rec : msg.view) {
        if (rec.sig.signer == rec.author && verifier_.verify(rec.digest(), rec.sig)) {
          admit(rec);
        }
      }
      pr.responders.insert(from.index);
      if (pr.responders.size() >= quorum_) {
        pr.finished = true;
        auto done = std::move(pr.done);
        pending_reads_.erase(it);
        if (done) done(view_);
      }
      break;
    }
    case WireMessage::Kind::kCheckpointReq: {
      // Serve the freshest cut we can vouch for: advance our own
      // checkpoint to the quantized stability cut first (a pure local
      // fold — no messages), so nodes whose watermarks agree answer with
      // byte-identical checkpoints and the requester's quorum match can
      // succeed. With compaction off the checkpoint stays empty, which
      // all non-compacting nodes also agree on.
      if (config_.compact.enabled) {
        const u32 cut = auto_cut();
        if (cut > checkpoint_.folded_below) compact_below(cut);
      }
      WireMessage reply;
      reply.kind = WireMessage::Kind::kCheckpointReply;
      reply.read_id = msg.read_id;
      reply.checkpoint = checkpoint_;
      net_->send(id_, from, std::move(reply));
      break;
    }
    case WireMessage::Kind::kCheckpointReply: {
      const auto it = pending_syncs_.find(msg.read_id);
      if (it == pending_syncs_.end()) return;
      PendingSync& ps = it->second;
      const Checkpoint& cp = msg.checkpoint;
      // The reply must be vouched for by the responder itself: a relay or
      // forger cannot re-sign another node's checkpoint (Lemma 4.1), and
      // a malformed summary fails the shape check before any comparison.
      if (cp.sig.signer != from) return;
      if (!verifier_.verify(cp.digest(), cp.sig)) return;
      if (!builder_.well_formed(cp)) return;
      for (const auto& [peer, prev] : ps.replies) {
        if (peer == from.index) return;  // one reply per responder counts
      }
      ps.replies.emplace_back(from.index, cp);
      // Adopt the first checkpoint that >= quorum responders agree on
      // structurally. A lying minority (forged chains, inflated cut)
      // disagrees with every honest reply, so it can neither win the vote
      // nor block it while a correct quorum responds.
      for (const auto& [peer, cand] : ps.replies) {
        u32 agree = 0;
        for (const auto& [p2, other] : ps.replies) {
          if (other.structurally_equal(cand)) ++agree;
        }
        if (agree < quorum_) continue;
        // Copy out before erasing the pending sync: `cand` borrows from it.
        const Checkpoint agreed = cand;
        auto done = std::move(ps.done);
        pending_syncs_.erase(it);
        adopt_checkpoint(agreed);
        if (done) done(true);
        return;
      }
      break;
    }
  }
}

void AbdNode::begin_checkpoint_sync(std::function<void(bool)> done) {
  const u64 rid = (static_cast<u64>(id_.index) << 40) | next_read_id_++;
  pending_syncs_.emplace(rid, PendingSync{{}, std::move(done)});
  WireMessage msg;
  msg.kind = WireMessage::Kind::kCheckpointReq;
  msg.read_id = rid;
  net_->broadcast(id_, msg);
}

void AbdNode::adopt_checkpoint(const Checkpoint& cp) {
  if (cp.folded_below <= checkpoint_.folded_below) return;
  // Only a summary-mode node treats the agreed checkpoint as history it
  // holds: its peers have dropped the folded bodies, so the summary *is*
  // the prefix. Retain mode and compaction-off keep gathering full bodies
  // through the ordinary read path — for them the sync is a cross-check.
  if (!config_.compact.enabled || config_.compact.retain_records) return;
  checkpoint_ = cp;
  checkpoint_.sig = keys_->sign(id_, checkpoint_.digest());  // re-issue under our key
  // Bodies below the cut are summarized now; drop any we hold, jump the
  // watermarks to the cut, and let parked seqs right at the cut extend the
  // prefix as usual.
  std::erase_if(view_, [&](const SignedAppend& r) { return r.seq < cp.folded_below; });
  for (u32 a = 0; a < watermark_.size(); ++a) {
    if (watermark_[a] < cp.folded_below) watermark_[a] = cp.folded_below;
    std::erase_if(parked_[a], [&](u32 s) { return s < cp.folded_below; });
    while (parked_[a].erase(watermark_[a]) > 0) ++watermark_[a];
  }
  // The watermark jump is not represented by any log record: a crash after
  // this point would replay a log with a hole below the fold. Snapshot now
  // so the adopted checkpoint is what recovery starts from.
  if (config_.storage != nullptr) write_snapshot();
}

ForgerNode::ForgerNode(NodeId id, NodeId victim, Transport& net, const crypto::KeyRegistry& keys)
    : id_(id), victim_(victim), net_(&net), keys_(&keys) {
  net_->attach(id_, [this](NodeId from, const WireMessage& msg) {
    switch (msg.kind) {
      case WireMessage::Kind::kAppend: {
        // React only to genuine appends from others — not to our own
        // injections echoed back by the broadcast self-delivery (that would
        // loop forever) — and stop after a bounded number of forgeries.
        if (msg.append.sig.signer != msg.append.author ||
            !keys_->verify(msg.append.digest(), msg.append.sig) || forged_ > 64) {
          return;
        }
        if (replay_pool_.size() < 256) replay_pool_.push_back(msg.append);
        // Ack (so it cannot be blamed for liveness) but also inject a
        // forged record in the victim's name: signed with the forger's own
        // key, because the victim's key is out of reach — the registry
        // hands Byzantine code no other capability.
        WireMessage ack;
        ack.kind = WireMessage::Kind::kAck;
        ack.append = msg.append;
        ack.ack_sig = keys_->sign(id_, msg.append.digest());
        net_->send(id_, msg.append.author, std::move(ack));

        SignedAppend fake;
        fake.author = victim_;
        fake.seq = 1'000'000 + forged_++;
        fake.value = -42;
        fake.sig = keys_->sign(id_, fake.digest());  // signer != author: invalid
        WireMessage inject;
        inject.kind = WireMessage::Kind::kAppend;
        inject.append = fake;
        net_->broadcast(id_, inject);
        break;
      }
      case WireMessage::Kind::kReadReq: {
        // Echo the frontier digest correctly (a wrong echo would merely
        // trigger the reader's full-read fallback; this attack is nastier:
        // a well-formed delta reply whose payload lies). The view carries
        // one above-frontier forgery plus replays of genuine records from
        // *below* the reader's frontier — records the reader already holds.
        // Correct readers must reject the forgery (Lemma 4.1) and
        // deduplicate the replays without any view corruption.
        std::vector<u32> wm;
        for (const FrontierEntry& e : msg.frontier) {
          if (e.author.index >= wm.size()) wm.resize(e.author.index + 1, 0);
          wm[e.author.index] = std::max(wm[e.author.index], e.seq);
        }
        WireMessage reply;
        reply.kind = WireMessage::Kind::kReadReply;
        reply.read_id = msg.read_id;
        reply.frontier_echo = frontier_digest(msg.frontier);
        SignedAppend fake;
        fake.author = victim_;
        fake.seq = 2'000'000 + forged_++;  // far above any honest watermark
        fake.value = -43;
        fake.sig = keys_->sign(id_, fake.digest());
        reply.view.push_back(fake);
        for (const SignedAppend& rec : replay_pool_) {
          if (rec.author.index < wm.size() && rec.seq < wm[rec.author.index]) {
            reply.view.push_back(rec);  // below-frontier replay
          }
        }
        net_->send(id_, from, std::move(reply));
        break;
      }
      case WireMessage::Kind::kCheckpointReq: {
        // Answer with a *lie*: a shape-valid checkpoint claiming a history
        // that never happened, signed with the forger's own key (the only
        // one it holds — so the signature itself verifies and signer ==
        // sender passes). Nothing about the reply is locally rejectable;
        // the requester survives only because a quorum of honest replies
        // agrees with each other and not with this one.
        const u32 authors = keys_->node_count();
        WireMessage reply;
        reply.kind = WireMessage::Kind::kCheckpointReply;
        reply.read_id = msg.read_id;
        Checkpoint& lie = reply.checkpoint;
        lie.folded_below = 7;
        lie.chains.resize(authors);
        for (u32 a = 0; a < authors; ++a) {
          lie.chains[a] = crypto::DigestBuilder{}.add(0xbadULL).add(a).finish();
        }
        lie.folded_records = static_cast<u64>(lie.folded_below) * authors;
        lie.vote_sum = -static_cast<i64>(lie.folded_records);  // all-minus: flips Alg. 6
        lie.sig = keys_->sign(id_, lie.digest());
        net_->send(id_, from, std::move(reply));
        break;
      }
      // The forger deliberately ignores acks, read replies and checkpoint
      // replies: it never appends or syncs honestly, so none of these
      // advances its attack. Spelled out per kind so a future message kind
      // fails to compile here instead of being silently dropped.
      case WireMessage::Kind::kAck:
      case WireMessage::Kind::kReadReply:
      case WireMessage::Kind::kCheckpointReply:
        break;
    }
  });
}

}  // namespace amm::mp
