// E11 — §3's aside: crash failures cost only ONE round in the append
// memory, because everything a node managed to append is visible to all
// correct nodes after Δ — there is no "sent to a subset before crashing"
// scenario. Byzantine failures need t+1 rounds (E2/E3).
#include <iostream>

#include "adversary/sync_strategies.hpp"
#include "exp/harness.hpp"
#include "protocols/sync_ba.hpp"

using namespace amm;

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E11 — crash agreement in one round (§3)", 1);
  if (const std::optional<int> code = h.parse()) return *code;

  Table table({"n", "t(crash)", "crash round", "rounds run", "agreement", "validity"});
  for (const u32 n : {5u, 10u, 20u}) {
    for (const u32 t : {1u, n / 3, n / 2 + 1}) {
      if (t >= n) continue;
      for (const u32 crash_round : {1u, 2u}) {
        proto::SyncParams params;
        params.scenario.n = n;
        params.scenario.t = t;
        params.scenario.correct_input = Vote::kPlus;
        params.rounds_override = 1;  // the claim: one round suffices
        adv::CrashSync crash(Vote::kPlus, crash_round);
        const proto::Outcome out = proto::run_sync_ba(params, crash);
        table.add_row({std::to_string(n), std::to_string(t), std::to_string(crash_round),
                       std::to_string(out.rounds), out.agreement() ? "yes" : "NO",
                       out.validity(params.scenario) ? "yes" : "NO"});
      }
    }
  }
  h.emit(table,
         "Crash-faulty nodes (even a majority) never endanger one-round agreement\n"
         "in the append memory — contrast with the t+1 rounds Byzantine bound (E2):");
  return 0;
}
