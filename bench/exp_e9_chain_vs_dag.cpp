// E9 — the headline: "Why BlockDAGs Excel Blockchains".
//
// Head-to-head resilience frontier: same n, same k, same adversarial
// budget, same seeds. For each λ, report the largest Byzantine share each
// structure survives (validity ≥ 90%). The chain's frontier must track
// 1/(1+λ(n−t)) and fall with λ; the DAG's must hug 1/2 for every λ.
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"

using namespace amm;

namespace {

double chain_validity(exp::Harness& h, u32 n, u32 t, double lambda, u32 k) {
  proto::ChainParams params;
  params.scenario.n = n;
  params.scenario.t = t;
  params.k = k;
  params.lambda = lambda;
  params.adversary = proto::ChainAdversary::kRushExtend;
  const auto est = exp::estimate_rate(
      h.pool(), h.seed ^ (t * 37 + static_cast<u64>(lambda * 1000)), h.trials,
      [&](usize, Rng& rng) {
        const proto::Outcome out = proto::run_chain_slotted(params, rng);
        return out.terminated && out.validity(params.scenario);
      });
  return est.rate();
}

double dag_validity(exp::Harness& h, u32 n, u32 t, double lambda, u32 k) {
  proto::DagParams params;
  params.scenario.n = n;
  params.scenario.t = t;
  params.k = k;
  params.lambda = lambda;
  params.adversary = proto::DagAdversary::kRateAndWithhold;
  const auto est = exp::estimate_rate(
      h.pool(), h.seed ^ (t * 41 + static_cast<u64>(lambda * 1000) + 1), h.trials,
      [&](usize, Rng& rng) {
        const proto::DagResult res = proto::run_dag_continuous(params, rng);
        return res.outcome.terminated && res.outcome.validity(params.scenario);
      });
  return est.rate();
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E9 — chain vs DAG resilience frontier (headline)", 200);
  if (const std::optional<int> code = h.parse()) return *code;

  const u32 n = 20;
  const u32 k = 61;

  Table table({"lambda", "t/n", "lambda*t", "chain validity", "DAG validity", "winner"});
  for (const double lambda : {0.125, 0.25, 0.5, 1.0}) {
    for (const u32 t : {1u, 2u, 4u, 6u, 8u, 9u}) {
      const double cv = chain_validity(h, n, t, lambda, k);
      const double dv = dag_validity(h, n, t, lambda, k);
      const char* winner = dv > cv + 0.1 ? "DAG" : (cv > dv + 0.1 ? "chain" : "tie");
      table.add_row({fmt(lambda, 3), fmt(static_cast<double>(t) / n, 2), fmt(lambda * t, 2),
                     fmt(cv, 2), fmt(dv, 2), winner});
    }
  }
  h.emit(table, "");

  // Frontier summary: max t/n with validity >= 0.9.
  Table frontier({"lambda", "chain frontier t/n", "chain bound 1/(1+l(n-t))", "DAG frontier t/n"});
  for (const double lambda : {0.125, 0.25, 0.5, 1.0}) {
    u32 chain_max = 0, dag_max = 0;
    for (u32 t = 1; t < n / 2; ++t) {
      if (chain_validity(h, n, t, lambda, k) >= 0.9) chain_max = t;
      if (dag_validity(h, n, t, lambda, k) >= 0.9) dag_max = t;
    }
    frontier.add_row(
        {fmt(lambda, 3), fmt(static_cast<double>(chain_max) / n, 2),
         fmt(proto::chain_resilience_bound(n, chain_max == 0 ? 1 : chain_max, lambda), 2),
         fmt(static_cast<double>(dag_max) / n, 2)});
  }
  h.emit(frontier,
         "Resilience frontier (largest t/n with >=90% validity). Paper: the DAG's\n"
         "frontier is ~1/2 for every lambda; the chain's shrinks as lambda grows:");
  return 0;
}
