#include "protocols/chain_ba.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace amm::proto {
namespace {

ChainParams make(u32 n, u32 t, u32 k, double lambda,
                 ChainAdversary adv = ChainAdversary::kHonestOpposite,
                 chain::TieBreak tie = chain::TieBreak::kRandomized) {
  ChainParams p;
  p.scenario.n = n;
  p.scenario.t = t;
  p.scenario.correct_input = Vote::kPlus;
  p.k = k;
  p.lambda = lambda;
  p.tie_break = tie;
  p.adversary = adv;
  return p;
}

double validity_rate(const ChainParams& params, int reps, bool slotted = true) {
  int valid = 0;
  for (u64 seed = 0; seed < static_cast<u64>(reps); ++seed) {
    const Outcome out =
        slotted ? run_chain_slotted(params, Rng(seed)) : run_chain_continuous(params, Rng(seed));
    if (out.terminated && out.validity(params.scenario)) ++valid;
  }
  return static_cast<double>(valid) / reps;
}

TEST(ChainSlotted, NoByzantineTerminatesValid) {
  const auto params = make(8, 0, 21, 0.2);
  for (u64 seed = 0; seed < 10; ++seed) {
    const Outcome out = run_chain_slotted(params, Rng(seed));
    EXPECT_TRUE(out.terminated);
    EXPECT_TRUE(out.agreement());
    EXPECT_TRUE(out.validity(params.scenario));
    EXPECT_EQ(out.byz_in_decision_set, 0u);
    EXPECT_EQ(out.decision_set_size, params.k);
  }
}

TEST(ChainSlotted, DecisionChainHasKBlocks) {
  const Outcome out = run_chain_slotted(make(6, 1, 11, 0.5), Rng(1));
  EXPECT_TRUE(out.terminated);
  EXPECT_EQ(out.decision_set_size, 11u);
  EXPECT_GE(out.total_appends, 11u);
}

TEST(ChainSlotted, HighRateWastesAppends) {
  // With λ(n−t) >> 1 many correct appends fork and are wasted: total
  // appends far exceed chain length k.
  const Outcome out = run_chain_slotted(make(16, 0, 21, 2.0), Rng(2));
  EXPECT_TRUE(out.terminated);
  EXPECT_GT(out.total_appends, 2 * 21u);
}

TEST(ChainSlotted, RushAdversaryBelowThresholdKeepsValidity) {
  // λ·t = 0.25 << 1: Byzantine tokens are too rare to poison the chain.
  const auto params = make(16, 2, 41, 0.125, ChainAdversary::kRushExtend);
  EXPECT_GT(validity_rate(params, 40), 0.9);
}

TEST(ChainSlotted, RushAdversaryAboveThresholdKillsValidity) {
  // λ·t = 4 >> 1: the adversary outruns the single useful correct append
  // per interval (Theorem 5.4).
  const auto params = make(16, 4, 41, 1.0, ChainAdversary::kRushExtend);
  EXPECT_LT(validity_rate(params, 40), 0.1);
}

TEST(ChainSlotted, RushPoisonsChainFraction) {
  // At λ·t ≈ 2 the Byzantine fraction of the decided chain must clearly
  // exceed the token share t/n.
  const auto params = make(16, 2, 41, 1.0, ChainAdversary::kRushExtend);
  double frac = 0.0;
  const int reps = 30;
  for (u64 seed = 0; seed < reps; ++seed) {
    const Outcome out = run_chain_slotted(params, Rng(seed));
    frac += static_cast<double>(out.byz_in_decision_set) / static_cast<double>(out.decision_set_size);
  }
  frac /= reps;
  EXPECT_GT(frac, 2.0 * 2.0 / 16.0);
}

TEST(ChainSlotted, ForkAdversaryWithAdversarialTiesAtThird) {
  // Theorem 5.3: deterministic tie-breaking in the adversary's favour at
  // t = n/3 puts ~half the chain in Byzantine hands.
  auto params = make(12, 4, 41, 0.1, ChainAdversary::kForkTieBreak,
                     chain::TieBreak::kDeterministicFirst);
  params.adversarial_ties = true;
  double frac = 0.0;
  const int reps = 30;
  for (u64 seed = 0; seed < reps; ++seed) {
    const Outcome out = run_chain_slotted(params, Rng(seed));
    frac += static_cast<double>(out.byz_in_decision_set) / static_cast<double>(out.decision_set_size);
  }
  frac /= reps;
  EXPECT_GT(frac, 0.40);
  EXPECT_LT(frac, 0.62);
}

TEST(ChainSlotted, ForkAdversaryWithRandomizedTiesOnlyThird) {
  // Same attack under randomized tie-breaking: every second Byzantine fork
  // loses the tie, leaving ~1/3 of the chain Byzantine (§5.2 discussion).
  const auto params =
      make(12, 4, 41, 0.1, ChainAdversary::kForkTieBreak, chain::TieBreak::kRandomized);
  double frac = 0.0;
  const int reps = 30;
  for (u64 seed = 0; seed < reps; ++seed) {
    const Outcome out = run_chain_slotted(params, Rng(seed));
    frac += static_cast<double>(out.byz_in_decision_set) / static_cast<double>(out.decision_set_size);
  }
  frac /= reps;
  EXPECT_LT(frac, 0.45);
}

TEST(ChainContinuous, NoByzantineTerminatesValid) {
  const auto params = make(8, 0, 21, 0.2);
  const Outcome out = run_chain_continuous(params, Rng(3));
  EXPECT_TRUE(out.terminated);
  EXPECT_TRUE(out.validity(params.scenario));
}

TEST(ChainContinuous, AgreesWithSlottedOnThresholdDirection) {
  const auto low = make(16, 2, 41, 0.125, ChainAdversary::kRushExtend);
  const auto high = make(16, 4, 41, 1.0, ChainAdversary::kRushExtend);
  EXPECT_GT(validity_rate(low, 25, /*slotted=*/false), 0.8);
  EXPECT_LT(validity_rate(high, 25, /*slotted=*/false), 0.2);
}

TEST(ChainResilienceBound, MatchesFormula) {
  EXPECT_DOUBLE_EQ(chain_resilience_bound(10, 5, 0.2), 1.0 / (1.0 + 0.2 * 5.0));
  // The paper's examples: λ(n−t)=1 → 1/2; λ(n−t)=2 → 1/3.
  EXPECT_DOUBLE_EQ(chain_resilience_bound(11, 1, 0.1), 0.5);
  EXPECT_DOUBLE_EQ(chain_resilience_bound(21, 1, 0.1), 1.0 / 3.0);
}

TEST(ChainSlottedDeathTest, EvenKRejected) {
  EXPECT_DEATH((void)run_chain_slotted(make(4, 1, 10, 0.5), Rng(1)), "precondition");
}

TEST(ChainSlottedDeathTest, WeightsRejected) {
  // Hash-power weights are a continuous-model feature; the slotted runner
  // refuses them rather than silently ignoring them.
  auto params = make(4, 1, 11, 0.5);
  params.weights.assign(4, 0.25);
  EXPECT_DEATH((void)run_chain_slotted(params, Rng(1)), "precondition");
}

TEST(ChainSlotted, NonTerminationReportedWhenBudgetTiny) {
  auto params = make(4, 0, 1001, 0.01);
  params.max_slots = 3;  // cannot possibly reach k
  const Outcome out = run_chain_slotted(params, Rng(1));
  EXPECT_FALSE(out.terminated);
  EXPECT_FALSE(out.agreement());
}

// Bit-identity golden grid for the three chain runners. The expected values
// were recorded from a build that still appended every block to an
// am::AppendMemory as it went, before the runners' own records became the
// only thing written per append; any change to a block's id, parent, depth
// or the order ties are broken in would move at least one of these figures.
// `decisions` spells each correct node's decision: '+', '-' or '?'
// (undecided). The last four rows are pb_montecarlo's chain configurations.
enum class ChainRunner { kSlotted, kContinuous };

struct ChainGolden {
  ChainRunner runner;
  u32 n, t, k;
  double lambda;
  ChainAdversary adversary;
  chain::TieBreak tie_break;
  bool adversarial_ties;
  u64 seed;
  // Pinned outcome.
  bool terminated;
  u64 total_appends, byz_in_decision_set, decision_set_size, rounds;
  const char* decisions;
};

std::string spell(const std::vector<std::optional<Vote>>& decisions) {
  std::string s;
  for (const auto& d : decisions) s += !d ? '?' : *d == Vote::kPlus ? '+' : '-';
  return s;
}

char spell(Vote v) { return v == Vote::kPlus ? '+' : '-'; }

TEST(ChainBa, GoldenOutcomesAreBitIdentical) {
  constexpr auto kSlotted = ChainRunner::kSlotted;
  constexpr auto kContinuous = ChainRunner::kContinuous;
  constexpr auto kHonest = ChainAdversary::kHonestOpposite;
  constexpr auto kFork = ChainAdversary::kForkTieBreak;
  constexpr auto kRush = ChainAdversary::kRushExtend;
  constexpr auto kRand = chain::TieBreak::kRandomized;
  constexpr auto kDet = chain::TieBreak::kDeterministicFirst;
  const ChainGolden grid[] = {
      {kSlotted, 9, 3, 21, 0.1, kHonest, kRand, false, 1, true, 30, 7, 21, 33, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kHonest, kRand, false, 2, true, 28, 12, 21, 20, "------"},
      {kSlotted, 9, 3, 21, 0.1, kHonest, kRand, true, 1, true, 30, 7, 21, 33, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kHonest, kRand, true, 2, true, 28, 13, 21, 20, "------"},
      {kSlotted, 9, 3, 21, 0.1, kHonest, kDet, false, 1, true, 30, 7, 21, 33, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kHonest, kDet, false, 2, true, 28, 13, 21, 20, "------"},
      {kSlotted, 9, 3, 21, 0.1, kHonest, kDet, true, 1, true, 30, 7, 21, 33, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kHonest, kDet, true, 2, true, 28, 13, 21, 20, "------"},
      {kSlotted, 9, 3, 21, 0.1, kFork, kRand, false, 1, true, 39, 6, 21, 40, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kFork, kRand, false, 2, true, 38, 13, 21, 32, "------"},
      {kSlotted, 9, 3, 21, 0.1, kFork, kRand, true, 1, true, 39, 8, 21, 40, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kFork, kRand, true, 2, true, 38, 16, 21, 32, "------"},
      {kSlotted, 9, 3, 21, 0.1, kFork, kDet, false, 1, true, 39, 4, 21, 40, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kFork, kDet, false, 2, true, 38, 11, 21, 32, "------"},
      {kSlotted, 9, 3, 21, 0.1, kFork, kDet, true, 1, true, 39, 8, 21, 40, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kFork, kDet, true, 2, true, 38, 16, 21, 32, "------"},
      {kSlotted, 9, 3, 21, 0.1, kRush, kRand, false, 1, true, 30, 7, 21, 33, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kRush, kRand, false, 2, true, 28, 13, 21, 20, "------"},
      {kSlotted, 9, 3, 21, 0.1, kRush, kRand, true, 1, true, 30, 7, 21, 33, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kRush, kRand, true, 2, true, 28, 13, 21, 20, "------"},
      {kSlotted, 9, 3, 21, 0.1, kRush, kDet, false, 1, true, 30, 7, 21, 33, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kRush, kDet, false, 2, true, 28, 13, 21, 20, "------"},
      {kSlotted, 9, 3, 21, 0.1, kRush, kDet, true, 1, true, 30, 7, 21, 33, "++++++"},
      {kSlotted, 9, 3, 21, 0.1, kRush, kDet, true, 2, true, 28, 13, 21, 20, "------"},
      {kContinuous, 9, 3, 21, 0.1, kHonest, kRand, false, 1, true, 28, 9, 21, 28, "++++++"},
      {kContinuous, 9, 3, 21, 0.1, kHonest, kRand, false, 2, true, 27, 12, 21, 27, "------"},
      {kContinuous, 9, 3, 21, 0.1, kHonest, kRand, true, 1, true, 28, 10, 21, 28, "++++++"},
      {kContinuous, 9, 3, 21, 0.1, kHonest, kRand, true, 2, true, 27, 14, 21, 27, "------"},
      {kContinuous, 9, 3, 21, 0.1, kHonest, kDet, false, 1, true, 28, 10, 21, 28, "++++++"},
      {kContinuous, 9, 3, 21, 0.1, kHonest, kDet, false, 2, true, 27, 14, 21, 27, "------"},
      {kContinuous, 9, 3, 21, 0.1, kHonest, kDet, true, 1, true, 28, 10, 21, 28, "++++++"},
      {kContinuous, 9, 3, 21, 0.1, kHonest, kDet, true, 2, true, 27, 14, 21, 27, "------"},
      {kContinuous, 9, 3, 21, 0.1, kFork, kRand, false, 1, true, 34, 12, 21, 34, "------"},
      {kContinuous, 9, 3, 21, 0.1, kFork, kRand, false, 2, true, 35, 13, 21, 35, "------"},
      {kContinuous, 9, 3, 21, 0.1, kFork, kRand, true, 1, true, 34, 13, 21, 34, "------"},
      {kContinuous, 9, 3, 21, 0.1, kFork, kRand, true, 2, true, 35, 15, 21, 35, "------"},
      {kContinuous, 9, 3, 21, 0.1, kFork, kDet, false, 1, true, 34, 13, 21, 34, "------"},
      {kContinuous, 9, 3, 21, 0.1, kFork, kDet, false, 2, true, 35, 15, 21, 35, "------"},
      {kContinuous, 9, 3, 21, 0.1, kFork, kDet, true, 1, true, 34, 13, 21, 34, "------"},
      {kContinuous, 9, 3, 21, 0.1, kFork, kDet, true, 2, true, 35, 15, 21, 35, "------"},
      {kContinuous, 9, 3, 21, 0.1, kRush, kRand, false, 1, true, 28, 9, 21, 28, "++++++"},
      {kContinuous, 9, 3, 21, 0.1, kRush, kRand, false, 2, true, 27, 13, 21, 27, "------"},
      {kContinuous, 9, 3, 21, 0.1, kRush, kRand, true, 1, true, 28, 10, 21, 28, "++++++"},
      {kContinuous, 9, 3, 21, 0.1, kRush, kRand, true, 2, true, 27, 14, 21, 27, "------"},
      {kContinuous, 9, 3, 21, 0.1, kRush, kDet, false, 1, true, 28, 10, 21, 28, "++++++"},
      {kContinuous, 9, 3, 21, 0.1, kRush, kDet, false, 2, true, 27, 14, 21, 27, "------"},
      {kContinuous, 9, 3, 21, 0.1, kRush, kDet, true, 1, true, 28, 10, 21, 28, "++++++"},
      {kContinuous, 9, 3, 21, 0.1, kRush, kDet, true, 2, true, 27, 14, 21, 27, "------"},
      {kSlotted, 20, 2, 1001, 0.5, kRush, kRand, false, 1,
       true, 5267, 511, 1001, 528, "------------------"},
      {kSlotted, 20, 2, 1001, 0.5, kRush, kRand, false, 2,
       true, 5205, 507, 1001, 524, "------------------"},
      {kSlotted, 20, 6, 1001, 0.5, kRush, kRand, false, 1,
       true, 2691, 795, 1001, 270, "--------------"},
      {kSlotted, 20, 6, 1001, 0.5, kRush, kRand, false, 2,
       true, 2601, 816, 1001, 267, "--------------"},
  };
  for (const ChainGolden& g : grid) {
    ChainParams params = make(g.n, g.t, g.k, g.lambda, g.adversary, g.tie_break);
    params.adversarial_ties = g.adversarial_ties;
    const Outcome out = g.runner == kSlotted ? run_chain_slotted(params, Rng(g.seed))
                                             : run_chain_continuous(params, Rng(g.seed));
    SCOPED_TRACE(testing::Message()
                 << "runner=" << static_cast<int>(g.runner) << " n=" << g.n << " t=" << g.t
                 << " k=" << g.k << " adversary=" << static_cast<int>(g.adversary)
                 << " tie=" << static_cast<int>(g.tie_break)
                 << " adversarial_ties=" << g.adversarial_ties << " seed=" << g.seed);
    EXPECT_EQ(out.terminated, g.terminated);
    EXPECT_EQ(out.total_appends, g.total_appends);
    EXPECT_EQ(out.byz_in_decision_set, g.byz_in_decision_set);
    EXPECT_EQ(out.decision_set_size, g.decision_set_size);
    EXPECT_EQ(out.rounds, g.rounds);
    EXPECT_EQ(spell(out.decisions), g.decisions);
  }

  // run_chain_finality on a knife-edge split of inputs (no Byzantine
  // nodes); `decisions` spells group A's, group B's and the final one.
  struct FinalityGolden {
    chain::TieBreak tie_break;
    double staleness;
    u64 seed;
    bool terminated;
    const char* decisions;
    bool split, flipped;
    u32 prefix_divergence;
  };
  const FinalityGolden finality[] = {
      {kRand, 0.0, 1, true, "---", false, false, 0},
      {kRand, 0.0, 2, true, "---", false, false, 0},
      {kRand, 8.0, 1, true, "---", false, false, 6},
      {kRand, 8.0, 2, true, "+--", true, true, 21},
      {kDet, 0.0, 1, true, "---", false, false, 0},
      {kDet, 0.0, 2, true, "---", false, false, 0},
      {kDet, 8.0, 1, true, "---", false, false, 6},
      {kDet, 8.0, 2, true, "+--", true, true, 21},
  };
  for (const FinalityGolden& g : finality) {
    ChainParams params = make(8, 0, 21, 0.5, ChainAdversary::kHonestOpposite, g.tie_break);
    params.scenario.inputs.resize(8);
    for (u32 v = 0; v < 8; ++v) params.scenario.inputs[v] = v % 2 ? Vote::kMinus : Vote::kPlus;
    const FinalityResult res = run_chain_finality(params, g.staleness, Rng(g.seed));
    SCOPED_TRACE(testing::Message() << "tie=" << static_cast<int>(g.tie_break)
                                    << " staleness=" << g.staleness << " seed=" << g.seed);
    EXPECT_EQ(res.terminated, g.terminated);
    const std::string decisions = {spell(res.decision_a), spell(res.decision_b),
                                   spell(res.decision_final)};
    EXPECT_EQ(decisions, g.decisions);
    EXPECT_EQ(res.split, g.split);
    EXPECT_EQ(res.flipped, g.flipped);
    EXPECT_EQ(res.prefix_divergence, g.prefix_divergence);
  }
}

}  // namespace
}  // namespace amm::proto
