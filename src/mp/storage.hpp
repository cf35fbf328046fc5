// The storage seam of the append-memory node (DESIGN.md §10).
//
// The paper's memory is an unbounded immutable history; mp::Storage is the
// node's durable image of it: an append-only record log plus periodic
// signed snapshots of the node's protocol state. AbdNode writes through
// this interface on every admission and reads it back exactly once, at
// startup (recover_from_storage): load the newest valid snapshot, replay
// the log suffix above it, then fetch whatever the cluster appended while
// the node was down via the ordinary delta-read/checkpoint-sync machinery
// — so restart wire cost is O(missed tail), not O(history).
//
// Two backends:
//   * MemStorage (here) — process-local vectors; the default for the
//     simulator and unit tests, and the "restart" fixture: hand the same
//     MemStorage to a second AbdNode and it recovers in-process.
//   * storage::FileLog (src/storage/) — CRC-framed segment files plus
//     snapshot files with torn-tail truncation on open.
//
// A Snapshot is self-certifying: `sig` is the owning node's signature over
// digest(), which folds the checkpoint digest (built by CheckpointBuilder)
// and a chain over the live records — a tampered snapshot is rejected
// wholesale at recovery and the node falls back to full log replay.
#pragma once

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "mp/checkpoint.hpp"
#include "mp/wire.hpp"

namespace amm::mp {

/// When the durable backend forces written bytes to stable storage.
/// MemStorage ignores the policy (there is no disk to lose).
enum class FsyncPolicy : u8 {
  kNever = 0,     ///< leave flushing to the OS (crash loses the page cache tail)
  kInterval = 1,  ///< fdatasync every `fsync_interval` appends
  kAlways = 2,    ///< fdatasync after every append (torn tail <= one record)
};

const char* fsync_policy_name(FsyncPolicy policy);
std::optional<FsyncPolicy> parse_fsync_policy(std::string_view name);

/// A signed image of the node's recoverable protocol state at one log
/// position. Everything admit() maintains is here: replaying the log from
/// `log_seq` on top of a restored snapshot reproduces the pre-crash state
/// (parked sets are derived: a live record at or above its author's
/// watermark is parked by definition).
struct Snapshot {
  u64 log_seq = 0;   ///< log position covered: records below are inside this snapshot
  u32 next_seq = 0;  ///< the node's own append counter (never reuse a seq)
  std::vector<u32> watermarks;     ///< per-author contiguous-prefix lengths
  Checkpoint checkpoint;           ///< the folded decided prefix
  std::vector<SignedAppend> live;  ///< record bodies held, in arrival order
  crypto::Signature sig;           ///< owner's signature over digest()

  /// Order-sensitive digest over the full snapshot contents. Reuses the
  /// CheckpointBuilder digest machinery: the folded prefix contributes
  /// through checkpoint.digest() (whose chains CheckpointBuilder built)
  /// and the live suffix through the same chain_step links.
  u64 digest() const;
};

/// Backend observability, surfaced through mp::NodeStats.
struct StorageStats {
  u64 log_bytes = 0;        ///< bytes in the log (frames included, all segments)
  u64 log_records = 0;      ///< records in the log
  u64 snapshot_count = 0;   ///< snapshots loaded at open plus written since
  u64 fsyncs = 0;           ///< data, directory and snapshot syncs issued
  u64 torn_tail_bytes = 0;  ///< bytes truncated from the tail at open
  u64 segments = 0;         ///< segment files currently on disk (0 for MemStorage)
};

/// The storage seam. Implementations are single-threaded, owned by the
/// node's reactor thread, and report failure by returning false — the
/// protocol must keep serving (degraded to memory-only) when the disk
/// does not.
class Storage {
 public:
  virtual ~Storage() = default;

  /// Appends one admitted record to the log. Records arrive in admission
  /// order, which is the only order replay() ever needs to reproduce.
  virtual bool append(const SignedAppend& rec) = 0;

  /// The newest snapshot the backend holds, if any. Validation (signature,
  /// shape) is the caller's job — the backend only vouches for integrity
  /// of its own framing (CRC).
  virtual std::optional<Snapshot> load_snapshot() = 0;

  /// Atomically replaces the current snapshot; the backend may prune log
  /// records below snap.log_seq afterwards (they are covered).
  virtual bool write_snapshot(const Snapshot& snap) = 0;

  /// Invokes `cb` for every log record with position >= from_seq, in log
  /// order; returns how many were delivered. Positions below the oldest
  /// retained record (pruned under a snapshot) are clamped up.
  virtual u64 replay(u64 from_seq, const std::function<void(const SignedAppend&)>& cb) = 0;

  /// Position one past the newest log record (the `log_seq` a snapshot
  /// taken now would carry).
  virtual u64 log_seq() const = 0;

  virtual FsyncPolicy fsync_policy() const = 0;

  virtual const StorageStats& stats() const = 0;
};

/// In-memory backend: today's (pre-durability) behavior behind the same
/// seam. Keeping the instance alive across AbdNode lifetimes simulates a
/// restart with an intact store.
class MemStorage final : public Storage {
 public:
  explicit MemStorage(FsyncPolicy policy = FsyncPolicy::kNever) : policy_(policy) {}

  bool append(const SignedAppend& rec) override;
  std::optional<Snapshot> load_snapshot() override { return snapshot_; }
  bool write_snapshot(const Snapshot& snap) override;
  u64 replay(u64 from_seq, const std::function<void(const SignedAppend&)>& cb) override;
  u64 log_seq() const override { return base_seq_ + log_.size(); }
  FsyncPolicy fsync_policy() const override { return policy_; }
  const StorageStats& stats() const override { return stats_; }

 private:
  FsyncPolicy policy_;
  u64 base_seq_ = 0;  ///< log position of log_.front() (prefix pruned below)
  std::vector<SignedAppend> log_;
  std::optional<Snapshot> snapshot_;
  StorageStats stats_;
};

}  // namespace amm::mp
