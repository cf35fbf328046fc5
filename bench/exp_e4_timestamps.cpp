// E4 — Theorem 5.2: the absolute-timestamp baseline (Algorithm 4).
//
// Agreement and termination are deterministic; validity holds w.h.p. with
// a failure probability governed by the correct/Byzantine gap:
//   gap = n - 2t = Θ(1) → k = Ω(n log n) appends needed,
//   gap = Θ(n)          → k = Ω(log n) suffices.
// The table reports measured validity-failure rates next to the paper's
// normal-tail prediction for both regimes.
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/timestamp_ba.hpp"

using namespace amm;

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E4 — Byzantine agreement with absolute timestamps (Theorem 5.2)",
                 2000);
  if (const std::optional<int> code = h.parse()) return *code;

  // Regime 1: constant gap (t = n/2 - 1).
  Table narrow({"n", "t", "gap", "k", "measured failure [95% CI]", "predicted"});
  for (const u32 n : {8u, 16u, 32u}) {
    const u32 t = n / 2 - 1;
    for (const u32 k : {11u, 41u, 161u, 641u}) {
      proto::TimestampParams params;
      params.scenario.n = n;
      params.scenario.t = t;
      params.k = k;
      const auto est = exp::estimate_rate(
          h.pool(), h.seed ^ (n * 1000 + k), h.trials, [&](usize, Rng& rng) {
            return !proto::run_timestamp_ba(params, rng).validity(params.scenario);
          });
      const auto [lo, hi] = est.wilson95();
      narrow.add_row({std::to_string(n), std::to_string(t), std::to_string(n - 2 * t),
                      std::to_string(k), fmt_ci(est.rate(), lo, hi),
                      fmt(proto::timestamp_validity_failure_bound(n, t, k), 4)});
    }
  }
  h.emit(narrow, "Regime gap = O(1): failure decays slowly — k must grow with n (Ω(n log n)):");

  // Regime 2: linear gap (t = n/4).
  Table wide({"n", "t", "gap", "k", "measured failure [95% CI]", "predicted"});
  for (const u32 n : {8u, 16u, 32u}) {
    const u32 t = n / 4;
    for (const u32 k : {5u, 11u, 21u, 41u}) {
      proto::TimestampParams params;
      params.scenario.n = n;
      params.scenario.t = t;
      params.k = k;
      const auto est = exp::estimate_rate(
          h.pool(), h.seed ^ (n * 7919 + k), h.trials, [&](usize, Rng& rng) {
            return !proto::run_timestamp_ba(params, rng).validity(params.scenario);
          });
      const auto [lo, hi] = est.wilson95();
      wide.add_row({std::to_string(n), std::to_string(t), std::to_string(n - 2 * t),
                    std::to_string(k), fmt_ci(est.rate(), lo, hi),
                    fmt(proto::timestamp_validity_failure_bound(n, t, k), 4)});
    }
  }
  h.emit(wide, "Regime gap = Ω(n): small k already gives w.h.p. validity (Ω(log n)):");
  return 0;
}
