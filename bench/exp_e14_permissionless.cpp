// E14 — the permissionless extension (§5: "all the presented results can
// be trivially extended to the permissionless setting").
//
// Nodes hold hash-power weights instead of identities with equal rates;
// what matters is the adversary's POWER share α, not its node count. We
// give the Byzantine side few nodes but heavy weights (and vice versa) and
// show both structures behave exactly as E6/E8 predict with t/n replaced
// by α: the DAG's boundary sits at α = 1/2; the chain's at the rate
// condition λ_byz = α·λ·n < 1.
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"

using namespace amm;

namespace {

/// Weights giving the t Byzantine nodes a total power share `alpha`.
std::vector<double> power_split(u32 n, u32 t, double alpha) {
  std::vector<double> w(n, 0.0);
  for (u32 i = 0; i < n - t; ++i) w[i] = (1.0 - alpha) / static_cast<double>(n - t);
  for (u32 i = n - t; i < n; ++i) w[i] = alpha / static_cast<double>(t);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E14 — permissionless (hash-power) setting (§5 extension)", 150);
  if (const std::optional<int> code = h.parse()) return *code;

  const u32 n = 20;
  const u32 k = 101;
  const double lambda = 0.25;  // per-node average; merged rate λ·n

  Table table({"byz nodes t", "byz power alpha", "alpha*lambda*n", "chain validity",
               "DAG validity"});
  for (const u32 t : {2u, 10u}) {  // few heavy nodes vs many light nodes
    for (const double alpha : {0.1, 0.2, 0.3, 0.4, 0.45, 0.55}) {
      proto::ChainParams cp;
      cp.scenario.n = n;
      cp.scenario.t = t;
      cp.k = 61;
      cp.lambda = lambda;
      cp.adversary = proto::ChainAdversary::kRushExtend;
      cp.weights = power_split(n, t, alpha);

      proto::DagParams dp;
      dp.scenario.n = n;
      dp.scenario.t = t;
      dp.k = k;
      dp.lambda = lambda;
      dp.adversary = proto::DagAdversary::kRateAndWithhold;
      dp.weights = power_split(n, t, alpha);

      const auto chain_est = exp::estimate_rate(
          h.pool(), h.seed ^ (t * 1000 + static_cast<u64>(alpha * 100)), h.trials,
          [&](usize, Rng& rng) {
            const auto out = proto::run_chain_continuous(cp, rng);
            return out.terminated && out.validity(cp.scenario);
          });
      const auto dag_est = exp::estimate_rate(
          h.pool(), h.seed ^ (t * 1000 + static_cast<u64>(alpha * 100) + 7), h.trials,
          [&](usize, Rng& rng) {
            const auto res = proto::run_dag_continuous(dp, rng);
            return res.outcome.terminated && res.outcome.validity(dp.scenario);
          });
      table.add_row({std::to_string(t), fmt(alpha, 2), fmt(alpha * lambda * n, 2),
                     fmt(chain_est.rate(), 2), fmt(dag_est.rate(), 2)});
    }
  }
  h.emit(table,
         "Identical power shares with t=2 heavy vs t=10 light Byzantine nodes must\n"
         "behave alike: resilience is a function of power alpha, not node count.\n"
         "DAG boundary at alpha ~ 1/2; chain collapses once alpha*lambda*n >= 1:");
  return 0;
}
