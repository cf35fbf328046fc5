// E3 — Theorem 3.2: Algorithm 1 solves Byzantine agreement in the append
// memory for t < n/2 within t+1 rounds (O(tΔ) time).
//
// Sweep (n, t) across the n/2 boundary under every implemented adversary;
// agreement and validity must hold exactly for 2t < n.
#include <algorithm>
#include <iostream>

#include "adversary/sync_strategies.hpp"
#include "exp/harness.hpp"
#include "protocols/sync_ba.hpp"

using namespace amm;

namespace {

struct NamedAdversary {
  std::string name;
  std::function<std::unique_ptr<proto::SyncAdversary>(u64 seed)> make;
};

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E3 — synchronous Byzantine agreement (Theorem 3.2)", 20);
  if (const std::optional<int> code = h.parse()) return *code;

  const std::vector<NamedAdversary> adversaries = {
      {"silent", [](u64) { return std::make_unique<adv::SilentSync>(); }},
      {"opposite-voter",
       [](u64) { return std::make_unique<adv::OppositeVoterSync>(Vote::kPlus); }},
      {"split-vision",
       [](u64 seed) { return std::make_unique<adv::SplitVisionSync>(Vote::kPlus, Rng(seed)); }},
      {"last-round-split",
       [](u64) { return std::make_unique<adv::LastRoundSplitSync>(Vote::kPlus, 2); }},
  };

  Table table({"n", "t", "t<n/2", "adversary", "rounds", "agreement", "validity"});
  for (const u32 n : {5u, 9u, 17u}) {
    std::vector<u32> ts{n / 4, (n - 1) / 2, n / 2 + 1, (2 * n) / 3};
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
    for (const u32 t : ts) {
      if (t >= n) continue;
      for (const auto& adversary : adversaries) {
        usize agree = 0, valid = 0;
        const usize reps = adversary.name == "split-vision" ? h.trials : 1;
        u64 rounds = 0;
        for (usize rep = 0; rep < reps; ++rep) {
          proto::SyncParams params;
          params.scenario.n = n;
          params.scenario.t = t;
          // Correct input -1, Byzantine votes +1: the sign convention breaks
          // ties toward +1, so validity fails exactly when the Byzantine
          // votes reach half — no tie artifact at 2t = n.
          params.scenario.correct_input = Vote::kMinus;
          auto a = adversary.make(h.seed + rep);
          const proto::Outcome out = proto::run_sync_ba(params, *a);
          rounds = out.rounds;
          agree += out.agreement();
          valid += out.validity(params.scenario);
        }
        table.add_row({std::to_string(n), std::to_string(t), 2 * t < n ? "yes" : "no",
                       adversary.name, std::to_string(rounds),
                       fmt(static_cast<double>(agree) / static_cast<double>(reps), 2),
                       fmt(static_cast<double>(valid) / static_cast<double>(reps), 2)});
      }
    }
  }
  h.emit(table,
         "Paper: agreement+validity for t < n/2 in t+1 rounds. Past n/2 validity\n"
         "collapses under EVERY strategy — even silence: with n-t <= t the correct\n"
         "nodes alone cannot assemble the t+1 distinct authors an acceptance chain\n"
         "needs, so no value is ever accepted (the algorithm's bound is tight):");
  return 0;
}
