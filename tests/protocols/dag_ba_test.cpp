#include "protocols/dag_ba.hpp"

#include <gtest/gtest.h>

namespace amm::proto {
namespace {

DagParams make(u32 n, u32 t, u32 k, double lambda,
               DagAdversary adv = DagAdversary::kHonestOpposite) {
  DagParams p;
  p.scenario.n = n;
  p.scenario.t = t;
  p.scenario.correct_input = Vote::kPlus;
  p.k = k;
  p.lambda = lambda;
  p.adversary = adv;
  return p;
}

TEST(DagBa, NoByzantineValid) {
  const auto params = make(8, 0, 21, 0.5);
  for (u64 seed = 0; seed < 10; ++seed) {
    const DagResult res = run_dag_continuous(params, Rng(seed));
    EXPECT_TRUE(res.outcome.terminated);
    EXPECT_TRUE(res.outcome.agreement());
    EXPECT_TRUE(res.outcome.validity(params.scenario));
    EXPECT_EQ(res.outcome.byz_in_decision_set, 0u);
    EXPECT_EQ(res.dumped, 0u);
  }
}

TEST(DagBa, CutAlwaysHasKValues) {
  const DagResult res = run_dag_continuous(make(6, 1, 31, 1.0), Rng(1));
  EXPECT_TRUE(res.outcome.terminated);
  EXPECT_EQ(res.outcome.decision_set_size, 31u);
}

TEST(DagBa, RateAttackerShareMatchesTokenShare) {
  // The DAG is inclusive: a protocol-following Byzantine minority holds a
  // cut share ≈ t/n regardless of λ (the heart of Theorem 5.6).
  for (const double lambda : {0.2, 1.0, 4.0}) {
    const auto params = make(10, 3, 101, lambda);
    double frac = 0.0;
    const int reps = 30;
    for (u64 seed = 0; seed < reps; ++seed) {
      const DagResult res = run_dag_continuous(params, Rng(seed));
      frac += static_cast<double>(res.outcome.byz_in_decision_set) /
              static_cast<double>(res.outcome.decision_set_size);
    }
    frac /= reps;
    EXPECT_NEAR(frac, 0.3, 0.06) << "lambda=" << lambda;
  }
}

TEST(DagBa, MinorityRateAttackKeepsValidity) {
  const auto params = make(10, 4, 101, 1.0);
  int valid = 0;
  for (u64 seed = 0; seed < 30; ++seed) {
    if (run_dag_continuous(params, Rng(seed)).outcome.validity(params.scenario)) ++valid;
  }
  EXPECT_GE(valid, 28);
}

TEST(DagBa, MajorityRateAttackKillsValidity) {
  const auto params = make(10, 7, 101, 1.0);
  int valid = 0;
  for (u64 seed = 0; seed < 30; ++seed) {
    if (run_dag_continuous(params, Rng(seed)).outcome.validity(params.scenario)) ++valid;
  }
  EXPECT_LE(valid, 2);
}

TEST(DagBa, WithholdOnlyDumpsABoundedChain) {
  // Lemma 5.5: the dump fits inside one quiet interval — small relative to k.
  const auto params = make(10, 3, 101, 1.0, DagAdversary::kWithholdOnly);
  for (u64 seed = 0; seed < 20; ++seed) {
    const DagResult res = run_dag_continuous(params, Rng(seed));
    EXPECT_TRUE(res.outcome.terminated);
    if (res.dumped > 0) {
      EXPECT_EQ(res.outcome.byz_in_decision_set, res.dumped);
      EXPECT_GT(res.final_gap, 0.0);
    }
    EXPECT_LT(res.outcome.byz_in_decision_set, 101u / 3);
  }
}

TEST(DagBa, WithholdingBeatsPureRateSlightly) {
  // Rate-and-withhold must put at least as many Byzantine values in the
  // cut (on average) as the pure rate attack.
  const int reps = 40;
  double rate_only = 0.0, with_dump = 0.0;
  for (u64 seed = 0; seed < reps; ++seed) {
    rate_only += static_cast<double>(
        run_dag_continuous(make(10, 3, 101, 1.0), Rng(seed)).outcome.byz_in_decision_set);
    with_dump += static_cast<double>(
        run_dag_continuous(make(10, 3, 101, 1.0, DagAdversary::kRateAndWithhold), Rng(seed))
            .outcome.byz_in_decision_set);
  }
  EXPECT_GE(with_dump / reps, rate_only / reps - 1.0);
}

TEST(DagBa, FullOrderingMatchesFastPathOnHonestRuns) {
  // With no Byzantine nodes the exact Algorithm-6 linearization decision
  // must agree with the bookkeeping fast path.
  for (u64 seed = 0; seed < 10; ++seed) {
    auto fast = make(6, 0, 21, 1.0);
    auto full = fast;
    full.full_ordering = true;
    const DagResult a = run_dag_continuous(fast, Rng(seed));
    const DagResult b = run_dag_continuous(full, Rng(seed));
    EXPECT_EQ(a.outcome.decisions, b.outcome.decisions);
    EXPECT_EQ(a.outcome.byz_in_decision_set, b.outcome.byz_in_decision_set);
  }
}

TEST(DagBa, FullOrderingCloseToFastPathUnderRateAttack) {
  // Under the rate attack the exact cut can differ from the fast path only
  // through final-Δ stragglers; the Byzantine count must stay close.
  for (u64 seed = 0; seed < 10; ++seed) {
    auto fast = make(8, 2, 51, 1.0);
    auto full = fast;
    full.full_ordering = true;
    const DagResult a = run_dag_continuous(fast, Rng(seed));
    const DagResult b = run_dag_continuous(full, Rng(seed));
    const auto diff =
        static_cast<i64>(a.outcome.byz_in_decision_set) - static_cast<i64>(b.outcome.byz_in_decision_set);
    EXPECT_LE(std::abs(diff), 6);
  }
}

TEST(DagBa, FullOrderingMatchesFastPathWithBankedPublishTies) {
  // The rate-and-withhold adversary publishes its banked blocks (last
  // node) and then the correct block at one instant, so the exact decision
  // gets records against (time, id) order, and the graph must sort them
  // back: these trials linearize differently without that sort. Under
  // AMM_AUDIT every exact decision is checked against the graph of the
  // memory; here it must also decide as the fast path does.
  for (const chain::PivotRule rule : {chain::PivotRule::kGhost, chain::PivotRule::kLongestChain}) {
    for (u64 seed = 0; seed < 10; ++seed) {
      auto fast = make(4, 1, 101, 0.5, DagAdversary::kRateAndWithhold);
      fast.pivot_rule = rule;
      auto full = fast;
      full.full_ordering = true;
      const DagResult a = run_dag_continuous(fast, Rng(seed));
      const DagResult b = run_dag_continuous(full, Rng(seed));
      EXPECT_EQ(a.outcome.decisions, b.outcome.decisions);
      EXPECT_EQ(a.outcome.byz_in_decision_set, b.outcome.byz_in_decision_set);
    }
  }
}

TEST(DagBa, GhostAndLongestChainAgreeOnValidityDirection) {
  for (const chain::PivotRule rule : {chain::PivotRule::kGhost, chain::PivotRule::kLongestChain}) {
    auto params = make(10, 3, 51, 1.0);
    params.pivot_rule = rule;
    params.full_ordering = true;
    int valid = 0;
    for (u64 seed = 0; seed < 15; ++seed) {
      if (run_dag_continuous(params, Rng(seed)).outcome.validity(params.scenario)) ++valid;
    }
    EXPECT_GE(valid, 13);
  }
}

TEST(DagBaDeathTest, EvenKRejected) {
  EXPECT_DEATH((void)run_dag_continuous(make(4, 1, 10, 0.5), Rng(1)), "precondition");
}

TEST(DagBa, TemporaryAsynchronyInflatesTheDump) {
  // §5.3 closing remark: stalling correct nodes near the cut stretches the
  // adversary's quiet interval and its private chain.
  auto sync_params = make(16, 6, 101, 1.0, DagAdversary::kRateAndWithhold);
  auto async_params = sync_params;
  async_params.async_delay = 10.0;
  async_params.async_window = 51;

  double sync_dump = 0.0, async_dump = 0.0;
  const int reps = 30;
  for (u64 seed = 0; seed < reps; ++seed) {
    sync_dump += static_cast<double>(run_dag_continuous(sync_params, Rng(seed)).dumped);
    async_dump += static_cast<double>(run_dag_continuous(async_params, Rng(seed)).dumped);
  }
  EXPECT_GT(async_dump / reps, sync_dump / reps + 3.0);
}

TEST(DagBa, TemporaryAsynchronyBreaksAToleratedShare) {
  // t/n = 0.4 is fine synchronously (see MinorityRateAttackKeepsValidity);
  // under a long enough stall it is not.
  auto params = make(20, 8, 101, 1.0, DagAdversary::kRateAndWithhold);
  params.async_delay = 12.0;
  params.async_window = 51;
  int valid = 0;
  for (u64 seed = 0; seed < 25; ++seed) {
    valid += run_dag_continuous(params, Rng(seed)).outcome.validity(params.scenario);
  }
  EXPECT_LE(valid, 3);
}

TEST(DagBa, ZeroAsyncDelayIsIdentityTransform) {
  // delay = 0 must take the synchronous code path bit-for-bit.
  auto a = make(10, 3, 51, 1.0, DagAdversary::kRateAndWithhold);
  auto b = a;
  b.async_delay = 0.0;
  b.async_window = 25;
  for (u64 seed = 0; seed < 10; ++seed) {
    const DagResult ra = run_dag_continuous(a, Rng(seed));
    const DagResult rb = run_dag_continuous(b, Rng(seed));
    EXPECT_EQ(ra.outcome.decisions, rb.outcome.decisions);
    EXPECT_EQ(ra.outcome.byz_in_decision_set, rb.outcome.byz_in_decision_set);
    EXPECT_EQ(ra.dumped, rb.dumped);
  }
}

// Bit-identity golden grid. The expected values were recorded from a build
// that still found the tips by rescanning the whole history on every
// append, before the tip frontiers became incremental; any change to a
// tip list's contents or order would move at least one of these figures.
struct GoldenRun {
  u32 n, t, k;
  double lambda;
  DagAdversary adversary;
  bool full_ordering;
  SimTime async_delay;  ///< > 0: async_window 25
  bool weighted;        ///< Byzantine nodes hold twice a correct node's weight
  chain::PivotRule pivot_rule;
  u64 seed;
  // Pinned outcome.
  bool terminated;
  u64 total_appends, byz_in_decision_set, decision_set_size, dumped, omniscient_bound, rounds;
};

DagParams golden_params(const GoldenRun& g) {
  DagParams p = make(g.n, g.t, g.k, g.lambda, g.adversary);
  p.full_ordering = g.full_ordering;
  p.pivot_rule = g.pivot_rule;
  if (g.async_delay > 0.0) {
    p.async_delay = g.async_delay;
    p.async_window = 25;
  }
  if (g.weighted) {
    p.weights.assign(g.n, 1.0);
    for (u32 i = g.n - g.t; i < g.n; ++i) p.weights[i] = 2.0;
  }
  return p;
}

TEST(DagBa, GoldenOutcomesAreBitIdentical) {
  const GoldenRun grid[] = {
      {10, 3, 101, 1.0, DagAdversary::kHonestOpposite, false, 0.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 37, 101, 0, 3, 101},
      {10, 3, 101, 1.0, DagAdversary::kHonestOpposite, false, 0.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 32, 101, 0, 4, 101},
      {10, 3, 101, 1.0, DagAdversary::kHonestOpposite, false, 4.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 46, 101, 0, 9, 133},
      {10, 3, 101, 1.0, DagAdversary::kHonestOpposite, false, 4.0, false, chain::PivotRule::kGhost, 2,
       true, 102, 40, 101, 0, 11, 145},
      {10, 3, 101, 1.0, DagAdversary::kHonestOpposite, true, 0.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 37, 101, 0, 3, 101},
      {10, 3, 101, 1.0, DagAdversary::kHonestOpposite, true, 0.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 32, 101, 0, 4, 101},
      {10, 3, 101, 1.0, DagAdversary::kHonestOpposite, true, 4.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 46, 101, 0, 9, 133},
      {10, 3, 101, 1.0, DagAdversary::kHonestOpposite, true, 4.0, false, chain::PivotRule::kGhost, 2,
       true, 102, 40, 101, 0, 11, 145},
      {10, 3, 101, 1.0, DagAdversary::kWithholdOnly, false, 0.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 2, 101, 2, 3, 158},
      {10, 3, 101, 1.0, DagAdversary::kWithholdOnly, false, 0.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 0, 101, 0, 4, 141},
      {10, 3, 101, 1.0, DagAdversary::kWithholdOnly, false, 4.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 0, 101, 0, 11, 220},
      {10, 3, 101, 1.0, DagAdversary::kWithholdOnly, false, 4.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 0, 101, 0, 7, 206},
      {10, 3, 101, 1.0, DagAdversary::kWithholdOnly, true, 0.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 2, 101, 2, 3, 158},
      {10, 3, 101, 1.0, DagAdversary::kWithholdOnly, true, 0.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 0, 101, 0, 4, 141},
      {10, 3, 101, 1.0, DagAdversary::kWithholdOnly, true, 4.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 0, 101, 0, 11, 220},
      {10, 3, 101, 1.0, DagAdversary::kWithholdOnly, true, 4.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 0, 101, 0, 7, 206},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, false, 0.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 37, 101, 0, 3, 101},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, false, 0.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 32, 101, 0, 4, 101},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, false, 4.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 46, 101, 0, 17, 133},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, false, 4.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 40, 101, 1, 11, 140},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, true, 0.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 37, 101, 0, 3, 101},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, true, 0.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 32, 101, 0, 4, 101},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, true, 4.0, false, chain::PivotRule::kGhost, 1,
       true, 101, 46, 101, 0, 17, 133},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, true, 4.0, false, chain::PivotRule::kGhost, 2,
       true, 101, 40, 101, 1, 11, 140},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, false, 0.0, true, chain::PivotRule::kGhost, 1,
       true, 101, 45, 101, 0, 6, 101},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, true, 0.0, false, chain::PivotRule::kLongestChain, 1,
       true, 101, 37, 101, 0, 3, 101},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, false, 0.0, true, chain::PivotRule::kGhost, 2,
       true, 101, 54, 101, 2, 7, 101},
      {10, 3, 101, 1.0, DagAdversary::kRateAndWithhold, true, 0.0, false, chain::PivotRule::kLongestChain, 2,
       true, 101, 32, 101, 0, 4, 101},
      {20, 6, 1001, 0.5, DagAdversary::kRateAndWithhold, false, 0.0, false, chain::PivotRule::kGhost, 1,
       true, 1001, 307, 1001, 0, 5, 1001},
      {20, 6, 1001, 0.5, DagAdversary::kRateAndWithhold, true, 0.0, false, chain::PivotRule::kGhost, 1,
       true, 1001, 307, 1001, 0, 5, 1001},
      {20, 6, 1001, 0.5, DagAdversary::kHonestOpposite, false, 4.0, false, chain::PivotRule::kGhost, 2,
       true, 1002, 287, 1001, 0, 10, 1035},
  };
  for (const GoldenRun& g : grid) {
    const DagResult res = run_dag_continuous(golden_params(g), Rng(g.seed));
    SCOPED_TRACE(testing::Message()
                 << "n=" << g.n << " t=" << g.t << " k=" << g.k << " adversary="
                 << static_cast<int>(g.adversary) << " full=" << g.full_ordering
                 << " async=" << g.async_delay << " weighted=" << g.weighted
                 << " rule=" << static_cast<int>(g.pivot_rule) << " seed=" << g.seed);
    EXPECT_EQ(res.outcome.terminated, g.terminated);
    EXPECT_EQ(res.outcome.total_appends, g.total_appends);
    EXPECT_EQ(res.outcome.byz_in_decision_set, g.byz_in_decision_set);
    EXPECT_EQ(res.outcome.decision_set_size, g.decision_set_size);
    EXPECT_EQ(res.dumped, g.dumped);
    EXPECT_EQ(res.omniscient_bound, g.omniscient_bound);
    EXPECT_EQ(res.outcome.rounds, g.rounds);
  }
}

}  // namespace
}  // namespace amm::proto
