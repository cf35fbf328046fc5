// The append memory behind a Monte-Carlo runner, kept as a lazy mirror.
//
// The chain and DAG runners (chain_ba.cpp, dag_ba.cpp) keep their own flat,
// append-ordered block records, and every decision they make reads those;
// the exact ordering decision (Algorithm 6 line 9) builds its BlockGraph
// from them too. An am::AppendMemory holding the same blocks is read only
// by the AMM_AUDIT hooks. So a runner writes each block once, into its
// records: it takes the block's MsgId from assign(), which makes the checks
// AppendMemory::append would make, and the memory catches up on those
// records only when an audit hook reads it. Catching up appends the same blocks in the same order
// at the same times, so the memory and every graph built from it are the
// ones eager mirroring would give.
#pragma once

#include <span>
#include <vector>

#include "am/memory.hpp"
#include "support/assert.hpp"

namespace amm::proto {

/// What the mirror needs of one runner record besides its references.
struct MirroredBlock {
  am::MsgId id;
  Vote vote = Vote::kPlus;
  SimTime time = 0.0;
};

class MemoryMirror {
 public:
  explicit MemoryMirror(u32 node_count) : memory_(node_count), next_seq_(node_count, 0) {}

  /// The id AppendMemory::append would give `author`'s next block, after
  /// the checks it makes: the author exists, append times do not decrease,
  /// and every reference (a runner-local index) names one of the
  /// `block_count` blocks already recorded.
  am::MsgId assign(NodeId author, SimTime now, std::span<const usize> refs, usize block_count) {
    AMM_EXPECTS(author.index < next_seq_.size());
    AMM_EXPECTS(now >= last_time_);
    for (const usize r : refs) {
      AMM_EXPECTS(r < block_count);
    }
    last_time_ = now;
    return am::MsgId{author.index, next_seq_[author.index]++};
  }

  /// The memory holding the runner's first `block_count` blocks. Appends
  /// the ones not mirrored yet, in append order; `block(i, refs)` returns
  /// record i and pushes the ids it references onto `refs`. Each id the
  /// memory assigns must equal the one assign() handed out.
  template <typename BlockFn>
  am::AppendMemory& catch_up(usize block_count, BlockFn&& block) {
    for (; mirrored_ < block_count; ++mirrored_) {
      std::vector<am::MsgId> refs;
      const MirroredBlock b = block(mirrored_, refs);
      const am::MsgId got =
          memory_.append(NodeId{b.id.author}, b.vote, /*payload=*/0, std::move(refs), b.time);
      AMM_ASSERT(got == b.id);
    }
    return memory_;
  }

 private:
  am::AppendMemory memory_;
  usize mirrored_ = 0;         ///< records already in memory_
  std::vector<u32> next_seq_;  ///< per author: the next block's seq
  SimTime last_time_ = 0.0;
};

}  // namespace amm::proto
