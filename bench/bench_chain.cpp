// Micro-benchmarks for block-graph construction and the tip-to-root chain
// walk on synthetic DAGs. Pivot selection and linearization are timed once,
// in bench_hotpath's decision-rules table (scaling in history) and in
// perfbench's pb_layers (the dag_ba workload shape).
#include <benchmark/benchmark.h>

#include "chain/rules.hpp"
#include "support/rng.hpp"

namespace {

using namespace amm;

/// Builds a DAG of `blocks` messages over `nodes` registers where each
/// block references between 1 and `fanin` earlier blocks.
am::AppendMemory build_dag(u32 nodes, u32 blocks, u32 fanin, u64 seed) {
  am::AppendMemory memory(nodes);
  Rng rng(seed);
  std::vector<am::MsgId> all;
  for (u32 i = 0; i < blocks; ++i) {
    std::vector<am::MsgId> refs;
    if (!all.empty()) {
      const u32 want = 1 + static_cast<u32>(rng.uniform_below(fanin));
      for (u32 r = 0; r < want; ++r) {
        const am::MsgId pick = all[all.size() - 1 - rng.uniform_below(std::min<usize>(all.size(), 8))];
        if (std::find(refs.begin(), refs.end(), pick) == refs.end()) refs.push_back(pick);
      }
    }
    all.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(nodes))}, Vote::kPlus,
                                0, std::move(refs), static_cast<SimTime>(i)));
  }
  return memory;
}

void BM_BlockGraphBuild(benchmark::State& state) {
  const auto blocks = static_cast<u32>(state.range(0));
  const am::AppendMemory memory = build_dag(16, blocks, 3, 1);
  const am::MemoryView view = memory.read();
  for (auto _ : state) {
    chain::BlockGraph graph(view);
    benchmark::DoNotOptimize(graph.max_depth());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * blocks);
}
BENCHMARK(BM_BlockGraphBuild)->Arg(1000)->Arg(10000);

void BM_ChainToDeepTip(benchmark::State& state) {
  // Pure chain of 50k blocks: tip-to-root walk.
  am::AppendMemory memory(4);
  am::MsgId prev = memory.append(NodeId{0}, Vote::kPlus, 0, {}, 0.0);
  for (u32 i = 1; i < 50'000; ++i) {
    prev = memory.append(NodeId{i % 4}, Vote::kPlus, 0, {prev}, static_cast<SimTime>(i));
  }
  const chain::BlockGraph graph(memory.read());
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.chain_to(prev));
  }
}
BENCHMARK(BM_ChainToDeepTip);

}  // namespace
