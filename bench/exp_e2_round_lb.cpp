// E2 — Lemma 3.1: Byzantine agreement needs t+1 rounds.
//
// Part A: exhaustive adversary search on small systems — for r ≤ t some
// visibility-delay strategy splits the correct decisions; at r = t+1 the
// complete search space contains none.
// Part B: the constructive last-round attack on larger systems —
// disagreement at every r ≤ t, none at r = t+1.
#include <iostream>

#include "adversary/sync_strategies.hpp"
#include "check/round_lb.hpp"
#include "check/sync_valency.hpp"
#include "exp/harness.hpp"
#include "protocols/sync_ba.hpp"

using namespace amm;

namespace {

bool constructive_attack_splits(u32 n, u32 t, u32 rounds) {
  proto::SyncParams params;
  params.scenario.n = n;
  params.scenario.t = t;
  params.rounds_override = rounds;
  // Near-tied correct inputs: half +1, half -1 (the bivalent inputs the
  // lower-bound construction starts from).
  params.scenario.inputs.resize(n - t);
  for (u32 v = 0; v < n - t; ++v) {
    params.scenario.inputs[v] = v % 2 == 0 ? Vote::kPlus : Vote::kMinus;
  }
  adv::LastRoundSplitSync attack(Vote::kMinus, /*split=*/(n - t) / 2);
  const proto::Outcome out = proto::run_sync_ba(params, attack);
  return !out.agreement();
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E2 — t+1 round lower bound (Lemma 3.1)", 1);
  if (const std::optional<int> code = h.parse()) return *code;

  Table exhaustive({"n", "t", "rounds", "strategy space", "executions", "disagreement found"});
  struct Case {
    u32 n, t, r;
  };
  for (const Case c : {Case{3, 1, 1}, Case{3, 1, 2}, Case{4, 1, 1}, Case{4, 1, 2}, Case{4, 2, 1},
                       Case{4, 2, 2}, Case{5, 2, 1}, Case{5, 2, 2}}) {
    const check::RoundLbResult res = check::search_round_lb(c.n, c.t, c.r);
    exhaustive.add_row({std::to_string(res.n), std::to_string(res.t), std::to_string(res.rounds),
                        res.search_truncated ? "sampled" : "complete",
                        std::to_string(res.executions), res.disagreement ? "YES" : "no"});
  }
  h.emit(exhaustive, "Part A — exhaustive Byzantine strategy search:");

  Table constructive({"n", "t", "rounds", "expected", "agreement broken"});
  for (const u32 n : {6u, 9u, 12u}) {
    const u32 t = n / 3;
    for (u32 r = 1; r <= t + 1; ++r) {
      const bool split = constructive_attack_splits(n, t, r);
      constructive.add_row({std::to_string(n), std::to_string(t), std::to_string(r),
                            r <= t ? "broken" : "safe", split ? "YES" : "no"});
    }
  }
  h.emit(constructive, "Part B — constructive last-round attack (LastRoundSplitSync):");

  // Part C: Lemma 3.1 in its own vocabulary — valency of the end-of-round
  // configurations over the COMPLETE adversary strategy tree.
  Table valency({"n", "t", "rounds run", "end of round", "configs", "bivalent",
                 "disagreement reachable"});
  struct VCase {
    u32 n, t, r;
    std::vector<Vote> inputs;
  };
  const std::vector<VCase> vcases = {
      {3, 1, 1, {Vote::kPlus, Vote::kMinus}},
      {3, 1, 2, {Vote::kPlus, Vote::kMinus}},
      {4, 1, 1, {Vote::kPlus, Vote::kMinus, Vote::kMinus}},
      {4, 1, 2, {Vote::kPlus, Vote::kMinus, Vote::kMinus}},
  };
  for (const auto& c : vcases) {
    const check::SyncValencyResult res = check::analyze_sync_valency(c.n, c.t, c.r, c.inputs);
    for (const auto& rv : res.per_round) {
      valency.add_row({std::to_string(c.n), std::to_string(c.t), std::to_string(c.r),
                       std::to_string(rv.round), std::to_string(rv.configurations),
                       std::to_string(rv.bivalent), rv.disagreement_reachable ? "YES" : "no"});
    }
  }
  h.emit(valency,
         "Part C — valency classification (Lemma 3.1's own terms). With a run of\n"
         "r <= t rounds the initial configuration is bivalent AND disagreement is\n"
         "reachable (deciding that early is unsafe); with t+1 rounds every\n"
         "configuration the adversary can steer to is univalent and no completion\n"
         "splits the nodes — the extra round pins the outcome:");

  std::cout << "Paper: no deterministic Byzantine agreement in fewer than t+1 rounds;\n"
               "disagreement must appear exactly for rounds <= t.\n";
  return 0;
}
