#include "protocols/chain_ba.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "check/audit.hpp"
#include "protocols/memory_mirror.hpp"
#include "sched/poisson.hpp"

namespace amm::proto {
namespace {

/// Compact per-block record; the chain simulators track depth incrementally
/// instead of rebuilding a BlockGraph every slot (the graphs grow linearly
/// with simulated time, so rebuilding would make trials quadratic).
struct Rec {
  am::MsgId id;
  i32 parent = -1;  ///< local index; -1 = virtual root
  u32 depth = 1;
  Vote vote = Vote::kPlus;
  bool byz = false;
  SimTime time = 0.0;
};

/// Incremental chain state plus a lagging "stale frontier" that exposes the
/// deepest blocks as of (now − Δ) — the view a synchronous correct node
/// acts on in the continuous model. The records are the source of truth;
/// the append memory is a mirror that only the audit hook catches up.
class ChainState {
 public:
  explicit ChainState(u32 node_count) : mirror_(node_count) {}

  /// Invariant audit hook (no-op unless AMM_AUDIT): append-only growth and
  /// prefix immutability of the mirrored memory, monotone observed views,
  /// and structural invariants of a BlockGraph carried across checkpoints —
  /// which doubles as a continuous cross-check that incremental extension
  /// tracks the growing view. Zero cost in release builds.
  void audit() {
    if constexpr (check::kAuditEnabled) {
      const am::AppendMemory& memory =
          mirror_.catch_up(recs_.size(), [&](usize i, std::vector<am::MsgId>& refs) {
            const Rec& r = recs_[i];
            if (r.parent >= 0) refs.push_back(recs_[static_cast<usize>(r.parent)].id);
            return MirroredBlock{r.id, r.vote, r.time};
          });
      auditor_.check(memory);
      auditor_.check_view(memory.read());
      graph_.extend(memory.read());
      check::check_graph(graph_);
    }
  }

  usize append(NodeId author, Vote vote, i32 parent, SimTime now) {
    const usize parent_idx = static_cast<usize>(parent);
    Rec rec;
    rec.id = mirror_.assign(author, now, std::span(&parent_idx, parent >= 0 ? 1 : 0),
                            recs_.size());
    rec.parent = parent;
    rec.depth = parent >= 0 ? recs_[parent_idx].depth + 1 : 1;
    rec.vote = vote;
    rec.byz = byz_author_;
    rec.time = now;
    recs_.push_back(rec);

    const usize idx = recs_.size() - 1;
    if (rec.depth > max_depth_) {
      max_depth_ = rec.depth;
      deepest_.clear();
    }
    if (rec.depth == max_depth_) deepest_.push_back(idx);
    return idx;
  }

  /// Marks the author of the next append as Byzantine (bookkeeping only).
  void set_byz_author(bool byz) { byz_author_ = byz; }

  const Rec& rec(usize i) const { return recs_[i]; }
  usize size() const { return recs_.size(); }
  u32 max_depth() const { return max_depth_; }
  const std::vector<usize>& deepest() const { return deepest_; }

  /// Advances the stale frontier to include blocks appended strictly before
  /// `horizon` and returns the deepest blocks of that prefix.
  const std::vector<usize>& stale_deepest(SimTime horizon) {
    while (stale_ptr_ < recs_.size() && recs_[stale_ptr_].time < horizon) {
      const Rec& r = recs_[stale_ptr_];
      if (r.depth > stale_max_depth_) {
        stale_max_depth_ = r.depth;
        stale_deepest_.clear();
      }
      if (r.depth == stale_max_depth_) stale_deepest_.push_back(stale_ptr_);
      ++stale_ptr_;
    }
    return stale_deepest_;
  }

  /// First k blocks of the chain ending at `tip` (local indices, oldest
  /// first).
  std::vector<usize> first_k(usize tip, u32 k) const {
    std::vector<usize> chain;
    i32 cur = static_cast<i32>(tip);
    while (cur >= 0) {
      chain.push_back(static_cast<usize>(cur));
      cur = recs_[static_cast<usize>(cur)].parent;
    }
    std::reverse(chain.begin(), chain.end());
    if (chain.size() > k) chain.resize(k);
    return chain;
  }

 private:
  MemoryMirror mirror_;
  check::MemoryAuditor auditor_;
  chain::BlockGraph graph_;  ///< audit-only; extended lazily at checkpoints
  std::vector<Rec> recs_;
  u32 max_depth_ = 0;
  std::vector<usize> deepest_;
  bool byz_author_ = false;

  usize stale_ptr_ = 0;
  u32 stale_max_depth_ = 0;
  std::vector<usize> stale_deepest_;
};

/// Tip selection among a set of equally-deep candidates, honoring the
/// tie-breaking rule and the worst-case "ties favor the adversary" mode.
usize pick_tip(const ChainState& st, const std::vector<usize>& candidates,
               const ChainParams& params, Rng& rng) {
  AMM_EXPECTS(!candidates.empty());
  if (params.adversarial_ties) {
    for (const usize c : candidates) {
      if (st.rec(c).byz) return c;  // worst-case deterministic rule
    }
    return candidates.front();
  }
  switch (params.tie_break) {
    case chain::TieBreak::kDeterministicFirst:
      return candidates.front();
    case chain::TieBreak::kRandomized:
      return candidates[rng.uniform_below(candidates.size())];
  }
  AMM_ASSERT(false);
  return candidates.front();
}

/// Byzantine action on one token, acting on the *true* current state
/// (the adversary rushes; it is not subject to read staleness).
void byz_act(ChainState& st, const ChainParams& params, NodeId author, SimTime now, Rng& rng) {
  const Vote vote = opposite(params.scenario.correct_input);
  st.set_byz_author(true);
  switch (params.adversary) {
    case ChainAdversary::kHonestOpposite: {
      // Protocol-following append on the deepest tip (true view: the most
      // effective protocol-compliant behaviour).
      if (st.size() == 0) {
        st.append(author, vote, -1, now);
      } else {
        st.append(author, vote, static_cast<i32>(pick_tip(st, st.deepest(), params, rng)), now);
      }
      break;
    }
    case ChainAdversary::kForkTieBreak: {
      // Theorem 5.3: if the unique deepest block is correct, fork beside it
      // (same parent → tie at the same depth, which the worst-case
      // deterministic rule resolves toward us). If a Byzantine block is
      // already at the deepest level, extend it.
      if (st.size() == 0) {
        st.append(author, vote, -1, now);
        break;
      }
      const auto& deepest = st.deepest();
      for (const usize c : deepest) {
        if (st.rec(c).byz) {
          st.append(author, vote, static_cast<i32>(c), now);
          st.set_byz_author(false);
          return;
        }
      }
      st.append(author, vote, st.rec(deepest.front()).parent, now);
      break;
    }
    case ChainAdversary::kRushExtend: {
      // Theorem 5.4: immediately extend the longest chain so that all
      // correct appends still in flight land on an outdated state.
      if (st.size() == 0) {
        st.append(author, vote, -1, now);
        break;
      }
      const auto& deepest = st.deepest();
      usize target = deepest.front();
      for (const usize c : deepest) {
        if (st.rec(c).byz) {
          target = c;
          break;
        }
      }
      st.append(author, vote, static_cast<i32>(target), now);
      break;
    }
  }
  st.set_byz_author(false);
}

Outcome decide(const ChainState& st, const ChainParams& params, Rng& rng) {
  // All correct nodes share the final view. With a deterministic rule they
  // provably compute one decision; with the randomized rule each node
  // breaks a residual tie among equally-long chains with its own coin, so
  // we sample every node's decision independently — the measured agreement
  // rate quantifies the paper's "w.h.p. there will be a longest chain"
  // argument instead of assuming it.
  const bool deterministic =
      params.adversarial_ties || params.tie_break == chain::TieBreak::kDeterministicFirst ||
      st.deepest().size() == 1;

  auto decide_once = [&]() -> std::pair<Vote, u64> {
    const usize tip = pick_tip(st, st.deepest(), params, rng);
    const std::vector<usize> cut = st.first_k(tip, params.k);
    i64 sum = 0;
    u64 byz = 0;
    for (const usize i : cut) {
      sum += vote_value(st.rec(i).vote);
      if (st.rec(i).byz) ++byz;
    }
    return {sign_decision(sum), byz};
  };

  Outcome out;
  out.terminated = true;
  out.total_appends = st.size();
  out.decision_set_size = std::min<u64>(params.k, st.max_depth());

  const auto [first_vote, first_byz] = decide_once();
  out.byz_in_decision_set = first_byz;
  out.decisions.assign(params.scenario.correct_count(), first_vote);
  if (!deterministic) {
    for (u32 v = 1; v < params.scenario.correct_count(); ++v) {
      out.decisions[v] = decide_once().first;
    }
  }
  return out;
}

Outcome not_terminated(const ChainParams& params, const ChainState& st) {
  Outcome out;
  out.terminated = false;
  out.decisions.assign(params.scenario.correct_count(), std::nullopt);
  out.total_appends = st.size();
  return out;
}

/// Token source abstraction: equal rates by default, hash-power weighted in
/// the permissionless mode.
class TokenSource {
 public:
  TokenSource(u32 n, double lambda, SimTime delta, const std::vector<double>& weights, Rng rng)
      : source_(make_source(n, lambda, delta, weights, rng)) {}

  sched::Token next() {
    return std::visit([](auto& source) { return source.next(); }, source_);
  }

 private:
  using Source = std::variant<sched::TokenAuthority, sched::WeightedTokenAuthority>;

  static Source make_source(u32 n, double lambda, SimTime delta,
                            const std::vector<double>& weights, Rng rng) {
    if (weights.empty()) return sched::TokenAuthority(n, lambda, delta, rng);
    AMM_EXPECTS(weights.size() == n);
    return sched::WeightedTokenAuthority(weights, lambda * static_cast<double>(n), delta, rng);
  }

  Source source_;
};

}  // namespace

Outcome run_chain_slotted(const ChainParams& params, Rng rng) {
  const Scenario& s = params.scenario;
  s.validate();
  AMM_EXPECTS(params.k > 0 && params.k % 2 == 1);
  AMM_EXPECTS(params.weights.empty());  // hash-power mode: continuous model only

  ChainState st(s.n);
  Rng token_rng = Rng::for_stream(rng.next(), 1);
  Rng tie_rng = Rng::for_stream(rng.next(), 2);

  const double correct_rate = params.lambda * static_cast<double>(s.correct_count());
  const double byz_rate = params.lambda * static_cast<double>(s.t);

  // Per-slot buffers, reused across slots.
  std::vector<usize> start_deepest;
  std::vector<u8> labels;
  for (u64 slot = 0; slot < params.max_slots; ++slot) {
    const SimTime slot_start = static_cast<SimTime>(slot) * params.delta;

    // Snapshot of the deepest blocks as of the slot start: every correct
    // append of this slot is concurrent and acts on this stale state.
    start_deepest.assign(st.deepest().begin(), st.deepest().end());
    const bool genesis = st.size() == 0;

    const u64 c_tokens = token_rng.poisson(correct_rate);
    const u64 b_tokens = s.t > 0 ? token_rng.poisson(byz_rate) : 0;

    // Interleave correct/Byzantine token order uniformly at random within
    // the slot (the merged Poisson process is exchangeable within Δ).
    labels.assign(c_tokens, u8{0});
    labels.insert(labels.end(), b_tokens, u8{1});
    token_rng.shuffle(labels);

    const SimTime step =
        labels.empty() ? 0.0 : params.delta / (static_cast<double>(labels.size()) + 1.0);
    SimTime now = slot_start;
    for (const u8 label : labels) {
      now += step;
      if (label == 0) {
        const auto who = NodeId{static_cast<u32>(token_rng.uniform_below(s.correct_count()))};
        const Vote vote = s.input_of(who.index);
        if (genesis || start_deepest.empty()) {
          st.append(who, vote, -1, now);
        } else {
          const usize tip = pick_tip(st, start_deepest, params, tie_rng);
          st.append(who, vote, static_cast<i32>(tip), now);
        }
      } else {
        const auto who =
            NodeId{s.correct_count() + static_cast<u32>(token_rng.uniform_below(s.t))};
        byz_act(st, params, who, now, tie_rng);
      }
    }

    if (st.max_depth() >= params.k) {
      st.audit();
      Outcome out = decide(st, params, tie_rng);
      out.rounds = slot + 1;
      out.elapsed = static_cast<SimTime>(slot + 1) * params.delta;
      return out;
    }
  }
  return not_terminated(params, st);
}

Outcome run_chain_continuous(const ChainParams& params, Rng rng) {
  const Scenario& s = params.scenario;
  s.validate();
  AMM_EXPECTS(params.k > 0 && params.k % 2 == 1);

  ChainState st(s.n);
  TokenSource authority(s.n, params.lambda, params.delta, params.weights,
                        Rng::for_stream(rng.next(), 1));
  Rng tie_rng = Rng::for_stream(rng.next(), 2);

  for (u64 i = 0; i < params.max_slots; ++i) {
    const sched::Token token = authority.next();
    if (s.is_byzantine(token.holder)) {
      byz_act(st, params, token.holder, token.time, tie_rng);
    } else {
      // A synchronous correct node appends against the view it last read —
      // up to Δ old (worst-case staleness, matching the proof of Thm 5.4).
      const Vote vote = s.input_of(token.holder.index);
      const auto& stale = st.stale_deepest(token.time - params.delta);
      if (stale.empty()) {
        // Nothing visible yet: attach to the virtual root.
        st.append(token.holder, vote, -1, token.time);
      } else {
        const usize tip = pick_tip(st, stale, params, tie_rng);
        st.append(token.holder, vote, static_cast<i32>(tip), token.time);
      }
    }
    if (st.max_depth() >= params.k) {
      st.audit();
      Outcome out = decide(st, params, tie_rng);
      out.rounds = i + 1;
      out.elapsed = token.time;
      return out;
    }
    if constexpr (check::kAuditEnabled) {
      if ((i & 0x3ff) == 0x3ff) st.audit();
    }
  }
  return not_terminated(params, st);
}

double chain_resilience_bound(u32 n, u32 t, double lambda) {
  AMM_EXPECTS(t < n);
  return 1.0 / (1.0 + lambda * static_cast<double>(n - t));
}

namespace {

/// One partition group's view of the chain: own-group appends are visible
/// promptly, the other group's only `sigma` late. Maintains the deepest
/// blocks of the visible set incrementally (two monotone scan pointers,
/// one per visibility class).
class GroupFrontier {
 public:
  GroupFrontier(int my_group, SimTime sigma) : group_(my_group), sigma_(sigma) {}

  /// `group_of[i]` gives each record's group (0/1). Advances both scans to
  /// `now` and returns the deepest visible blocks.
  const std::vector<usize>& deepest(const ChainState& st, const std::vector<i8>& group_of,
                                    SimTime now) {
    advance(st, group_of, own_ptr_, now, /*want_group=*/group_);
    advance(st, group_of, other_ptr_, now - sigma_, /*want_group=*/1 - group_);
    return deepest_;
  }

  u32 max_depth() const { return max_depth_; }

 private:
  void advance(const ChainState& st, const std::vector<i8>& group_of, usize& ptr,
               SimTime horizon, int want_group) {
    while (ptr < st.size()) {
      if (group_of[ptr] != want_group) {
        ++ptr;
        continue;
      }
      if (st.rec(ptr).time >= horizon) break;
      include(st, ptr);
      ++ptr;
    }
  }

  void include(const ChainState& st, usize idx) {
    const u32 d = st.rec(idx).depth;
    if (d > max_depth_) {
      max_depth_ = d;
      deepest_.clear();
    }
    if (d == max_depth_) deepest_.push_back(idx);
  }

  int group_;
  SimTime sigma_;
  usize own_ptr_ = 0;
  usize other_ptr_ = 0;
  u32 max_depth_ = 0;
  std::vector<usize> deepest_;
};

}  // namespace

FinalityResult run_chain_finality(const ChainParams& params, double staleness_factor, Rng rng) {
  const Scenario& s = params.scenario;
  s.validate();
  AMM_EXPECTS(params.k > 0 && params.k % 2 == 1);
  AMM_EXPECTS(staleness_factor >= 0.0);
  AMM_EXPECTS(s.t == 0);  // pure-asynchrony experiment: no Byzantine nodes

  ChainState st(s.n);
  sched::TokenAuthority authority(s.n, params.lambda, params.delta,
                                  Rng::for_stream(rng.next(), 1));
  Rng tie_rng = Rng::for_stream(rng.next(), 2);
  const SimTime sigma = staleness_factor * params.delta;

  GroupFrontier frontier_a(0, sigma), frontier_b(1, sigma);
  std::vector<i8> group_of;  // per record, the author's partition group

  // Sign of the first-k prefix of the deepest block in `tips`.
  auto cut = [&](const std::vector<usize>& tips, std::vector<usize>& prefix_out) -> Vote {
    prefix_out = st.first_k(tips.front(), params.k);
    i64 sum = 0;
    for (const usize i : prefix_out) sum += vote_value(st.rec(i).vote);
    return sign_decision(sum);
  };

  FinalityResult result;
  std::vector<usize> cut_a, cut_final;
  bool done_a = false, done_b = false;

  for (u64 i = 0; i < params.max_slots; ++i) {
    const sched::Token token = authority.next();
    const int group = static_cast<int>(token.holder.index % 2);
    GroupFrontier& frontier = group == 0 ? frontier_a : frontier_b;

    const Vote vote = s.input_of(token.holder.index);
    const auto& visible = frontier.deepest(st, group_of, token.time);
    if (visible.empty()) {
      st.append(token.holder, vote, -1, token.time);
    } else {
      const usize tip = pick_tip(st, visible, params, tie_rng);
      st.append(token.holder, vote, static_cast<i32>(tip), token.time);
    }
    group_of.push_back(static_cast<i8>(group));

    // Group decisions at their own k-thresholds (their view's depth).
    if (!done_a) {
      const auto& tips = frontier_a.deepest(st, group_of, token.time);
      if (frontier_a.max_depth() >= params.k) {
        result.decision_a = cut(tips, cut_a);
        done_a = true;
      }
    }
    if (!done_b) {
      const auto& tips = frontier_b.deepest(st, group_of, token.time);
      if (frontier_b.max_depth() >= params.k) {
        std::vector<usize> cut_b;
        result.decision_b = cut(tips, cut_b);
        done_b = true;
      }
    }

    if (done_a && done_b && st.max_depth() >= 2 * params.k) {
      st.audit();
      result.decision_final = cut(st.deepest(), cut_final);
      result.terminated = true;
      result.split = result.decision_a != result.decision_b;
      result.flipped = result.decision_final != result.decision_a;
      u32 agree = 0;
      while (agree < cut_a.size() && agree < cut_final.size() &&
             cut_a[agree] == cut_final[agree]) {
        ++agree;
      }
      result.prefix_divergence = static_cast<u32>(cut_a.size() - agree);
      return result;
    }
  }
  return result;
}

}  // namespace amm::proto
