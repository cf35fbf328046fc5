#include "protocols/dag_ba.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "chain/block_graph.hpp"
#include "check/audit.hpp"
#include "protocols/memory_mirror.hpp"
#include "sched/poisson.hpp"

namespace amm::proto {
namespace {

/// Incremental DAG state: append-order records, parent-edge depths and two
/// tip frontiers — the true tips (the rushing adversary's view) and the
/// tips of a lagging "stale" prefix as of (now − Δ), the view a synchronous
/// correct node acts on. Both frontiers are kept incrementally instead of
/// rescanning the history on every append (that would make trials
/// quadratic in the cut size k); an update costs O(refs + tips). The lists
/// hold local indices in ascending append order, which parent_first's tie
/// toward the oldest tip relies on. The records are the source of truth;
/// the append memory is a mirror caught up only when read (memory()).
class DagState {
 public:
  explicit DagState(u32 node_count) : mirror_(node_count) {}

  /// The append memory holding every block so far, caught up on demand:
  /// only the exact-ordering decision and the audit hook read it.
  am::AppendMemory& memory() {
    return mirror_.catch_up(recs_.size(), [&](usize i, std::vector<am::MsgId>& refs) {
      refs.reserve(recs_[i].ref_count);
      for (const usize r : refs_of(i)) refs.push_back(recs_[r].id);
      return MirroredBlock{recs_[i].id, recs_[i].vote, recs_[i].time};
    });
  }

  /// Invariant audit hook (no-op unless AMM_AUDIT): append-only growth and
  /// prefix immutability of the mirrored memory, monotone observed views,
  /// and both incremental tip frontiers against BlockGraph::tips() of the
  /// view they stand for. Zero cost in release builds.
  void audit() {
    if constexpr (check::kAuditEnabled) {
      const am::AppendMemory& m = memory();
      auditor_.check(m);
      auditor_.check_view(m.read());
      AMM_ASSERT(same_blocks(true_tips_, chain::BlockGraph(m.read()).tips()));
      AMM_ASSERT(same_blocks(stale_tips_, chain::BlockGraph(m.read_at(stale_horizon_)).tips()));
    }
  }

  /// Appends a block referencing `refs` (local indices; refs[0] = parent).
  usize append(NodeId author, Vote vote, std::span<const usize> refs, SimTime now) {
    Rec rec;
    rec.id = mirror_.assign(author, now, refs, recs_.size());
    rec.vote = vote;
    rec.time = now;
    rec.depth = refs.empty() ? 1 : recs_[refs.front()].depth + 1;
    rec.ref_off = ref_pool_.size();
    rec.ref_count = refs.size();
    ref_pool_.insert(ref_pool_.end(), refs.begin(), refs.end());
    recs_.push_back(rec);

    const usize idx = recs_.size() - 1;
    advance_frontier(true_tips_, idx, refs);
    return idx;
  }

  usize size() const { return recs_.size(); }

  /// References for a block on the true current tips (the adversary's
  /// rushing view), parent first.
  std::span<const usize> true_refs() { return parent_first(true_tips_); }

  /// References for a block on the tips of the view as of `horizon`
  /// (correct nodes' stale read), parent first. The stale frontier only
  /// moves forward; callers must pass non-decreasing horizons.
  std::span<const usize> stale_refs(SimTime horizon) {
    while (stale_ptr_ < recs_.size() && recs_[stale_ptr_].time < horizon) {
      advance_frontier(stale_tips_, stale_ptr_, refs_of(stale_ptr_));
      ++stale_ptr_;
    }
    stale_horizon_ = horizon;
    return parent_first(stale_tips_);
  }

 private:
  struct Rec {
    am::MsgId id;
    Vote vote = Vote::kPlus;
    SimTime time = 0.0;
    u32 depth = 1;
    usize ref_off = 0;  // this block's references in ref_pool_
    usize ref_count = 0;
  };

  std::span<const usize> refs_of(usize i) const {
    return {ref_pool_.data() + recs_[i].ref_off, recs_[i].ref_count};
  }

  /// Copies ascending `tips` into a reused buffer with the parent
  /// (refs[0]) moved to the front: the deepest tip, ties toward the oldest
  /// — the longest-chain attachment every cited DAG rule uses.
  std::span<const usize> parent_first(const std::vector<usize>& tips) {
    ref_buf_.assign(tips.begin(), tips.end());
    if (ref_buf_.empty()) return ref_buf_;
    usize best = 0;
    for (usize i = 1; i < ref_buf_.size(); ++i) {
      if (recs_[ref_buf_[i]].depth > recs_[ref_buf_[best]].depth) best = i;
    }
    std::swap(ref_buf_[0], ref_buf_[best]);
    return ref_buf_;
  }

  /// Admits block `idx` to an ascending tip list: every block it references
  /// stops being a tip, and `idx` (newer than all of them) becomes one.
  static void advance_frontier(std::vector<usize>& tips, usize idx,
                               std::span<const usize> refs) {
    for (const usize r : refs) {
      const auto it = std::lower_bound(tips.begin(), tips.end(), r);
      if (it != tips.end() && *it == r) tips.erase(it);
    }
    tips.push_back(idx);
  }

  /// Whether local indices `tips` name exactly the blocks `ids` (as sets:
  /// BlockGraph orders tips by (time, id), the frontiers by append index).
  bool same_blocks(const std::vector<usize>& tips, std::vector<am::MsgId> ids) const {
    std::vector<am::MsgId> mine;
    mine.reserve(tips.size());
    for (const usize i : tips) mine.push_back(recs_[i].id);
    std::sort(mine.begin(), mine.end());
    std::sort(ids.begin(), ids.end());
    return mine == ids;
  }

  MemoryMirror mirror_;
  check::MemoryAuditor auditor_;
  std::vector<Rec> recs_;
  std::vector<usize> ref_pool_;  // every block's references, back to back
  std::vector<usize> ref_buf_;   // the reference list being built
  std::vector<usize> true_tips_;
  std::vector<usize> stale_tips_;
  usize stale_ptr_ = 0;
  /// Horizon of the last stale read (audit only); the initial value makes
  /// read_at() return the empty view, matching an empty stale frontier.
  SimTime stale_horizon_ = -std::numeric_limits<SimTime>::infinity();
};

}  // namespace

DagResult run_dag_continuous(const DagParams& params, Rng rng) {
  const Scenario& s = params.scenario;
  s.validate();
  AMM_EXPECTS(params.k > 0 && params.k % 2 == 1);

  DagState st(s.n);
  std::optional<sched::TokenAuthority> equal_rates;
  std::optional<sched::WeightedTokenAuthority> weighted;
  if (params.weights.empty()) {
    equal_rates.emplace(s.n, params.lambda, params.delta, Rng::for_stream(rng.next(), 1));
  } else {
    AMM_EXPECTS(params.weights.size() == s.n);
    weighted.emplace(params.weights, params.lambda * static_cast<double>(s.n), params.delta,
                     Rng::for_stream(rng.next(), 1));
  }
  auto next_token = [&] { return equal_rates ? equal_rates->next() : weighted->next(); };

  const Vote byz_vote = opposite(s.correct_input);

  // Withholding bookkeeping (Lemma 5.5). The adversary banks tokens inside
  // the current quiet interval (no correct appends) and dumps a private
  // chain once the bank can push the ordered value count to k. The banking
  // window W caps how early the rate-and-withhold adversary stops spending
  // tokens on the rate attack.
  const u64 ambition = static_cast<u64>(
      std::ceil(6.0 * params.lambda * std::log(static_cast<double>(s.n) + 1.0))) + 4;
  const u64 window = params.adversary == DagAdversary::kRateAndWithhold
                         ? std::min<u64>(params.k - 1, ambition)
                         : params.k;  // withhold-only banks from the start

  u64 public_count = 0;   // blocks in the public DAG (correct + Byzantine rate)
  u64 byz_public = 0;     // Byzantine blocks among them
  u64 bank = 0;           // withheld tokens in the current quiet interval
  u64 gap_byz_tokens = 0; // all Byzantine tokens in the current gap (omniscient stat)
  u64 omniscient = 0;     // max over gaps of min(gap tokens, k - public_count)
  SimTime last_correct = 0.0;

  DagResult result;

  auto decide_fast = [&](u64 dumped) {
    const u64 byz_in_cut = byz_public + dumped;
    AMM_ASSERT(byz_in_cut <= params.k);
    const i64 sum =
        static_cast<i64>(params.k - byz_in_cut) - static_cast<i64>(byz_in_cut);
    const Vote decision =
        sum >= 0 ? s.correct_input : opposite(s.correct_input);
    Outcome& out = result.outcome;
    out.terminated = true;
    out.decisions.assign(s.correct_count(), decision);
    out.total_appends = st.size();
    out.byz_in_decision_set = byz_in_cut;
    out.decision_set_size = params.k;
  };

  auto decide_full = [&] {
    // Exact Algorithm 6 lines 9–10: linearize the whole DAG along the
    // pivot chain and take the first k values of the ordering.
    const am::MemoryView view = st.memory().read();
    const chain::BlockGraph graph(view);
    check::check_graph(graph);
    const std::vector<am::MsgId> order = chain::linearize_dag(graph, params.pivot_rule);
    i64 sum = 0;
    u64 byz_in_cut = 0;
    const u32 cut = std::min<u32>(params.k, static_cast<u32>(order.size()));
    for (u32 i = 0; i < cut; ++i) {
      const am::Message& m = view.msg(order[i]);
      sum += vote_value(m.value);
      if (s.is_byzantine(NodeId{m.id.author})) ++byz_in_cut;
    }
    Outcome& out = result.outcome;
    out.terminated = true;
    out.decisions.assign(s.correct_count(), sign_decision(sum));
    out.total_appends = st.size();
    out.byz_in_decision_set = byz_in_cut;
    out.decision_set_size = cut;
  };

  // Temporary asynchrony (the §5.3 closing remark): correct tokens near the
  // decision cut are exercised late; they queue here until release.
  std::deque<std::pair<SimTime, NodeId>> delayed;
  const u64 async_window = params.async_window != 0 ? params.async_window : window;

  u64 steps = 0;
  bool decided = false;

  auto finish = [&](u64 dumped, SimTime at) {
    st.audit();
    result.omniscient_bound = omniscient;
    result.outcome.elapsed = at;
    result.outcome.rounds = steps;
    if (params.full_ordering) {
      decide_full();
    } else {
      decide_fast(dumped);
    }
    decided = true;
  };

  // Applies one correct append at time `when` (closing the quiet interval).
  auto apply_correct = [&](NodeId holder, SimTime when) {
    if (public_count < params.k) {
      omniscient = std::max(omniscient, std::min(gap_byz_tokens, params.k - public_count));
    }
    gap_byz_tokens = 0;
    if (bank > 0 && params.adversary == DagAdversary::kRateAndWithhold) {
      // The dump did not trigger inside this gap. A withheld token is not
      // lost: the adversary simply publishes the banked blocks now (still
      // before this correct append), where the inclusive DAG orders them
      // like ordinary rate-attack blocks. Withholding is therefore never
      // worse than the pure rate attack.
      for (u64 d = 0; d < bank && public_count < params.k; ++d) {
        const usize prev = d == 0 ? 0 : st.size() - 1;
        st.append(NodeId{s.n - 1}, byz_vote,
                  d == 0 ? st.true_refs() : std::span<const usize>(&prev, 1), when);
        ++public_count;
        ++byz_public;
      }
      if (public_count >= params.k) {
        finish(0, when);
        return;
      }
    }
    bank = 0;  // withhold-only: a correct append outruns the private chain
    last_correct = when;

    st.append(holder, s.correct_input, st.stale_refs(when - params.delta), when);
    ++public_count;
    if (public_count >= params.k) finish(0, when);
  };

  sched::Token lookahead = next_token();
  while (steps < params.max_tokens && !decided) {
    ++steps;
    // Release any delayed correct append that precedes the next token.
    if (!delayed.empty() && delayed.front().first <= lookahead.time) {
      const auto [when, holder] = delayed.front();
      delayed.pop_front();
      apply_correct(holder, when);
      continue;
    }

    const sched::Token token = lookahead;
    lookahead = next_token();

    if (s.is_byzantine(token.holder)) {
      ++gap_byz_tokens;
      const bool banking = params.adversary != DagAdversary::kHonestOpposite &&
                           public_count + window >= params.k;
      if (banking) {
        ++bank;
        if (public_count + bank >= params.k) {
          // Dump: release a private chain extending the current deepest tip.
          // The first withheld block references all current tips so every
          // public block is ordered before it; the rest chain linearly.
          const u64 need = params.k - public_count;
          usize prev = 0;
          for (u64 d = 0; d < need; ++d) {
            prev = st.append(token.holder, byz_vote,
                             d == 0 ? st.true_refs() : std::span<const usize>(&prev, 1),
                             token.time);
          }
          result.dumped = need;
          result.final_gap = token.time - last_correct;
          omniscient = std::max(omniscient, need);
          finish(need, token.time);
        }
      } else if (params.adversary != DagAdversary::kWithholdOnly) {
        // Rate attack: protocol-following append voting the opposite value,
        // on the adversary's true (rushing) view.
        st.append(token.holder, byz_vote, st.true_refs(), token.time);
        ++public_count;
        ++byz_public;
      }
      continue;
    }

    // Correct token: under temporary asynchrony near the cut, the append
    // happens async_delay late; otherwise immediately.
    const bool async_active =
        params.async_delay > 0.0 && public_count + async_window >= params.k;
    if (async_active) {
      delayed.emplace_back(token.time + params.async_delay, token.holder);
    } else {
      apply_correct(token.holder, token.time);
    }
  }
  if (decided) return result;

  result.outcome.terminated = false;
  result.outcome.decisions.assign(s.correct_count(), std::nullopt);
  result.outcome.total_appends = st.size();
  return result;
}

}  // namespace amm::proto
