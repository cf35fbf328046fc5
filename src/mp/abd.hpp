// Algorithms 2 and 3 (§4): simulating the append memory over message
// passing, in the style of ABD [3].
//
//   M.append(val):  broadcast append(val)_v; every receiver verifies the
//                   signature, adds the record to its local view and
//                   broadcasts ack(append)_v; the appender finishes once
//                   > n/2 distinct valid acks arrive.            (Alg. 2)
//   M.read():       broadcast a read request; every receiver replies with
//                   its full local view; the reader merges the views of
//                   > n/2 nodes and finishes.                    (Alg. 3)
//
// Signatures make forged relays impossible (Lemma 4.1); the majority
// intersection makes every completed append visible to every subsequent
// read (Lemma 4.2) as long as a majority of nodes is correct and
// available.
//
// Two wire-volume optimisations on top of the textbook algorithms (the
// merged views and the quorum logic are unchanged; DESIGN.md §9):
//
//   * Frontier (delta) reads — the read request carries the reader's
//     per-author watermark vector; responders ship only records above it,
//     so a steady-state read costs O(n·Δ) records instead of O(n·k)
//     history. Exactness rests on the append memory's per-register total
//     order: one record per (author, seq), and the watermark is the length
//     of the contiguous prefix the reader already holds. Every reply
//     echoes a digest of the frontier it answers; on a mismatched echo the
//     reader falls back to one full (empty-frontier) read with the same
//     read id. With `AbdConfig::delta_reads == false` the reader sends an
//     empty frontier and the protocol is byte-identical to the textbook
//     full-view read — responder code is the same in both modes, which the
//     equivalence property tests exploit.
//
//   * Append pipelining — up to `max_pipeline` appends in flight at once,
//     keyed by record digest so acks resolve independently; excess
//     begin_append calls queue and launch in order as slots free up.
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mp/checkpoint.hpp"
#include "mp/node_stats.hpp"
#include "mp/storage.hpp"
#include "mp/transport.hpp"

namespace amm::mp {

/// Decided-prefix compaction policy (DESIGN.md §8). The *stability cut*
/// (minimum per-author watermark) bounds a permanent canonical prefix;
/// compaction folds it into the node's mp::Checkpoint.
struct CompactConfig {
  /// Master switch; off reproduces the unbounded pre-compaction node.
  bool enabled = false;
  /// With true (retain mode) the folded record bodies stay in the view —
  /// compaction is pure metadata and provably observation-invisible (the
  /// equivalence suite pins this). With false (summary mode) folded bodies
  /// are erased: memory stays flat, reads serve only the live suffix, and
  /// decisions/restart sync lean on the checkpoint.
  bool retain_records = true;
  /// Records per author kept live behind the stability cut before folding
  /// (slack for stragglers whose reads still reference low seqs).
  u32 lag = 256;
  /// Auto-compaction cuts are rounded down to a multiple of this, so nodes
  /// whose watermarks agree produce byte-identical checkpoints (the
  /// cross-check and quorum adoption of a checkpoint sync require it).
  u32 quantum = 64;
  /// Admissions between auto-compaction attempts; 0 = manual-only
  /// (compact_below).
  u32 auto_interval = 64;
  /// Max parked (out-of-order) seqs per author; admission beyond the cap
  /// is refused (self-heals via a later delta read). 0 = unbounded.
  u32 parked_cap = 4096;
};

/// Tuning knobs for AbdNode. Defaults are the optimised protocol; the
/// legacy full-view configuration is kept as the test reference.
struct AbdConfig {
  /// When false, read requests carry an empty frontier — responders (whose
  /// code does not branch on the mode) then return their full local view,
  /// reproducing Algorithm 3 verbatim.
  bool delta_reads = true;
  /// Max appends in flight; further begin_append calls queue in order.
  u32 max_pipeline = 32;
  /// Decided-prefix compaction (off by default: memory is unbounded).
  CompactConfig compact;
  /// Key capacity of the node's VerifyCache, the one cache the hosting
  /// transport's wire admission shares (0 = unbounded).
  usize verify_cache_cap = crypto::VerifyCache::kDefaultCapacity;
  /// Durable storage seam (mp/storage.hpp); nullptr = memory-only node
  /// (the pre-durability behavior, default for sim and tests). Not owned;
  /// must outlive the node.
  Storage* storage = nullptr;
  /// Admitted records between automatic snapshots (0 = never snapshot
  /// automatically). Only meaningful with a storage backend attached.
  u32 snapshot_interval = 1024;
};

/// A correct node running the ABD-style simulation. Written against the
/// Transport seam, so the same protocol code runs over the simulated
/// Network and over the real TCP transport (net/transport.hpp).
class AbdNode {
 public:
  AbdNode(NodeId id, Transport& net, const crypto::KeyRegistry& keys, AbdConfig config = {});

  NodeId id() const { return id_; }
  const AbdConfig& config() const { return config_; }
  /// Snapshot of every counter the node owns (mp/node_stats.hpp). The
  /// transport and process fields (msgs, bytes, reconnects, auth and sig
  /// rejects, rss) stay zero; the host fills them in.
  NodeStats stats() const;
  u64 verify_cache_hits() const { return verifier_.hits(); }
  u64 verify_cache_misses() const { return verifier_.misses(); }

  /// The node's one VerifyCache. A host whose transport verifies at the
  /// wire hands it over (TcpTransport::set_verify_cache), so the node's
  /// own re-check of a wire-admitted signature is a cache hit.
  crypto::VerifyCache& verify_cache() { return verifier_; }

  /// Local view M_v, in arrival order. In summary mode this is only the
  /// live suffix — the folded prefix lives in checkpoint().
  const std::vector<SignedAppend>& local_view() const { return view_; }

  /// The folded decided prefix (empty until the first compaction).
  const Checkpoint& checkpoint() const { return checkpoint_; }

  /// Records currently held as bodies (the memory the node actually pays).
  usize live_records() const { return view_.size(); }

  /// The stability cut: min per-author contiguous-prefix watermark. Every
  /// record below it is final on this node (see mp/checkpoint.hpp).
  u32 stability_cut() const;

  /// Folds every record with seq < s_cut into the checkpoint (clamped to
  /// the stability cut; no-op at or below the current cut). In summary
  /// mode also erases the folded bodies from the view.
  void compact_below(u32 s_cut);

  /// Broadcasts kCheckpointReq and, once >= quorum structurally identical,
  /// signature-valid replies arrive, adopts the agreed checkpoint (summary
  /// mode: watermarks jump to the cut so delta reads fetch only the
  /// suffix). `done(true)` fires on agreement; replies that disagree or
  /// fail verification are ignored, so a lying minority cannot block or
  /// poison the sync (the quorum intersection argument of Lemma 4.2).
  void begin_checkpoint_sync(std::function<void(bool)> done);

  /// Restores protocol state from the attached storage backend: adopt the
  /// newest snapshot that carries our own valid signature (a tampered or
  /// foreign snapshot is ignored and the log replays from its start), then
  /// replay the log suffix through the ordinary admission path. Records
  /// appended cluster-wide while we were down are *not* here — the caller
  /// follows up with begin_read / begin_checkpoint_sync, which now fetch
  /// only the missed tail because the watermarks advertise everything
  /// recovered locally. Returns the number of log records replayed; no-op
  /// without a storage backend. Call before the first wire activity.
  u64 recover_from_storage();

  /// Persists a snapshot of the current protocol state to the storage
  /// backend (no-op without one). Called automatically every
  /// `snapshot_interval` admissions and after a checkpoint adoption.
  void write_snapshot();

  /// Starts an M.append(value); `done` fires when > n/2 acks arrived.
  /// Up to `config.max_pipeline` appends run concurrently; beyond that the
  /// call queues and launches in order as earlier appends complete.
  void begin_append(i64 value, std::function<void()> done);

  /// Starts an M.read(); `done` receives the merged view.
  void begin_read(std::function<void(const std::vector<SignedAppend>&)> done);

  /// Number of append operations this node has started (its next seq).
  u32 appends_issued() const { return next_seq_; }

  /// Appends currently awaiting their quorum (in flight on the wire).
  usize appends_in_flight() const { return pending_appends_.size(); }

  /// begin_append calls parked behind a full pipeline.
  usize appends_queued() const { return append_backlog_.size(); }

 private:
  void handle(NodeId from, const WireMessage& msg);
  void admit(const SignedAppend& rec);
  void persist(const SignedAppend& rec);
  void launch_append(i64 value, std::function<void()> done);
  std::vector<FrontierEntry> make_frontier() const;
  u32 auto_cut() const;  ///< quantized (stability - lag) auto-compaction cut
  void maybe_auto_compact();
  void adopt_checkpoint(const Checkpoint& cp);

  struct PendingAppend {
    std::unordered_set<u32> ackers;
    std::function<void()> done;
  };
  struct QueuedAppend {
    i64 value = 0;
    std::function<void()> done;
  };
  struct PendingRead {
    std::unordered_set<u32> responders;
    std::function<void(const std::vector<SignedAppend>&)> done;
    bool finished = false;
    bool fell_back = false;   ///< one full-read retry per read, at most
    u64 expected_echo = 0;    ///< digest of the frontier this read awaits
  };
  struct PendingSync {
    std::vector<std::pair<u32, Checkpoint>> replies;  // one per responder
    std::function<void(bool)> done;
  };

  NodeId id_;
  Transport* net_;
  const crypto::KeyRegistry* keys_;
  crypto::VerifyCache verifier_;
  AbdConfig config_;
  CheckpointBuilder builder_;
  u32 quorum_;  // floor(n/2) + 1
  u32 next_seq_ = 0;
  u64 next_read_id_ = 0;
  u32 admits_since_compact_ = 0;
  u32 admits_since_snapshot_ = 0;
  bool recovering_ = false;  ///< replaying the log: admissions must not re-append
  std::vector<SignedAppend> view_;
  // Frontier bookkeeping: watermark_[a] = length of the contiguous prefix
  // of author a's records this node holds (folded prefix included); seqs
  // admitted out of order (via read merges) park in parked_[a] until the
  // prefix catches up. Dedup rides on the same state: only verified
  // records are ever admitted and the simulated signatures are
  // existentially unforgeable, so (author, seq) identifies a record —
  // `seq < watermark || parked.contains(seq)` is exactly "already held",
  // which is what let the digest set the node used to carry be dropped.
  std::vector<u32> watermark_;
  std::vector<std::unordered_set<u32>> parked_;
  Checkpoint checkpoint_;
  std::unordered_map<u64, PendingAppend> pending_appends_;  // keyed by record digest
  std::deque<QueuedAppend> append_backlog_;
  std::unordered_map<u64, PendingRead> pending_reads_;
  std::unordered_map<u64, PendingSync> pending_syncs_;
  NodeStats stats_;  ///< counted in place; stats() fills the derived fields
};

/// A crashed node: attached to the network but never responds. With
/// t < n/2 such nodes every operation still terminates.
class CrashedNode {
 public:
  CrashedNode(NodeId id, Transport& net) {
    net.attach(id, [](NodeId, const WireMessage&) {});
  }
};

/// A Byzantine forger: acks everything instantly (harmless), injects
/// append records with forged signatures for other authors, and answers
/// read requests with above-frontier forgeries plus below-frontier replays
/// of genuine records; correct nodes must discard the forgeries and
/// deduplicate the replays (Lemma 4.1's argument).
class ForgerNode {
 public:
  ForgerNode(NodeId id, NodeId victim, Transport& net, const crypto::KeyRegistry& keys);

 private:
  NodeId id_;
  NodeId victim_;
  Transport* net_;
  const crypto::KeyRegistry* keys_;
  u32 forged_ = 0;
  std::vector<SignedAppend> replay_pool_;  // genuine records seen, for replays
};

}  // namespace amm::mp
