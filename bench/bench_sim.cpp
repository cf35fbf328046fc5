// Micro-benchmarks for the simulation substrates: event queue throughput,
// token generation, and end-to-end protocol trial rates (the quantity that
// bounds every Monte-Carlo experiment).
#include <benchmark/benchmark.h>

#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"
#include "protocols/timestamp_ba.hpp"
#include "sched/event_queue.hpp"
#include "sched/poisson.hpp"

namespace {

using namespace amm;

void BM_EventQueueChurn(benchmark::State& state) {
  sched::EventQueue q;
  SimTime t = 0.0;
  // Self-perpetuating event: measures schedule+dispatch cost.
  for (auto _ : state) {
    t += 1.0;
    q.schedule_at(t, [] {});
    q.run(1);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_EventQueueChurn);

void BM_TokenAuthority(benchmark::State& state) {
  sched::TokenAuthority auth(static_cast<u32>(state.range(0)), 1.0, 1.0, Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth.next());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TokenAuthority)->Arg(16)->Arg(1024);

void BM_TimestampTrial(benchmark::State& state) {
  proto::TimestampParams params;
  params.scenario.n = 20;
  params.scenario.t = 6;
  params.k = 101;
  u64 seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::run_timestamp_ba(params, Rng(seed++)));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TimestampTrial);

void BM_ChainSlottedTrial(benchmark::State& state) {
  proto::ChainParams params;
  params.scenario.n = 20;
  params.scenario.t = 4;
  params.k = 61;
  params.lambda = 0.5;
  params.adversary = proto::ChainAdversary::kRushExtend;
  u64 seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::run_chain_slotted(params, Rng(seed++)));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ChainSlottedTrial);

void BM_ChainContinuousTrial(benchmark::State& state) {
  proto::ChainParams params;
  params.scenario.n = 20;
  params.scenario.t = 4;
  params.k = 61;
  params.lambda = 0.5;
  params.adversary = proto::ChainAdversary::kRushExtend;
  u64 seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::run_chain_continuous(params, Rng(seed++)));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ChainContinuousTrial);

void BM_DagTrial(benchmark::State& state) {
  proto::DagParams params;
  params.scenario.n = 20;
  params.scenario.t = 5;
  params.k = 101;
  params.lambda = 1.0;
  params.adversary = proto::DagAdversary::kRateAndWithhold;
  u64 seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::run_dag_continuous(params, Rng(seed++)));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_DagTrial);

// The perfbench montecarlo shape: at k=1001 a per-append cost that grows
// with the history shows up, where k=101 hides it.
void BM_DagTrialLargeK(benchmark::State& state) {
  proto::DagParams params;
  params.scenario.n = 20;
  params.scenario.t = 6;
  params.k = 1001;
  params.lambda = 0.5;
  params.adversary = proto::DagAdversary::kRateAndWithhold;
  u64 seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::run_dag_continuous(params, Rng(seed++)));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_DagTrialLargeK);

void BM_DagTrialFullOrdering(benchmark::State& state) {
  proto::DagParams params;
  params.scenario.n = 20;
  params.scenario.t = 5;
  params.k = 101;
  params.lambda = 1.0;
  params.full_ordering = true;
  u64 seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::run_dag_continuous(params, Rng(seed++)));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_DagTrialFullOrdering);

}  // namespace
