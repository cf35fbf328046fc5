// Hot-path benchmark for the incremental append-memory machinery: graph
// growth (extend vs from-scratch rebuild), append-time ordering (k-way
// merge vs full sort vs incremental cursor), the decision rules on the
// final graph and the heap allocations of one Monte-Carlo trial. Emits
// harness tables; `--json` output is aggregated into the
// pinned BENCH_sim.json baseline by tools/collect_bench.py and compared by
// tools/bench_diff.py.
//
// Extra knobs (all optional):
//   --max-history N   cap per-config history length   (default 100000)
//   --rounds R        observation rounds per trial    (default 64)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "am/memory.hpp"
#include "am/order.hpp"
#include "chain/rules.hpp"
#include "exp/harness.hpp"
#include "mp/abd.hpp"
#include "mp/network.hpp"
#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"
#include "support/rng.hpp"

namespace {

using namespace amm;

/// Defeats dead-code elimination without google-benchmark.
volatile u64 g_sink = 0;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Calls of the global operator new so far. Not atomic: this binary
/// allocates on its main thread only (the harness pool stays idle).
u64 g_allocs = 0;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `fn`, in milliseconds.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best * 1e3;
}

/// Random DAG history: each append references up to 3 recent blocks (the
/// shape the dag_ba protocol produces), timestamps strictly increasing.
am::AppendMemory build_history(u32 n, u32 history, u64 seed) {
  am::AppendMemory memory(n);
  Rng rng(seed);
  std::vector<am::MsgId> all;
  all.reserve(history);
  for (u32 i = 0; i < history; ++i) {
    std::vector<am::MsgId> refs;
    if (!all.empty()) {
      const u32 want = 1 + static_cast<u32>(rng.uniform_below(3));
      for (u32 r = 0; r < want; ++r) {
        const am::MsgId pick =
            all[all.size() - 1 - rng.uniform_below(std::min<usize>(all.size(), 8))];
        if (std::find(refs.begin(), refs.end(), pick) == refs.end()) refs.push_back(pick);
      }
    }
    all.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(n))}, Vote::kPlus,
                                /*payload=*/0, std::move(refs), static_cast<SimTime>(i + 1)));
  }
  return memory;
}

/// A history as a runner's records: the memory's append order, each
/// reference as the position of the record it names.
struct Records {
  std::vector<chain::BlockRecord> blocks;
  std::vector<usize> pool;
};
Records as_records(const am::AppendMemory& memory) {
  const am::MemoryView view = memory.read();
  const std::vector<am::MsgId> order = am::merge_append_order(memory, {}, view.lens());
  std::vector<std::vector<usize>> position(view.register_count());
  Records out;
  for (const am::MsgId id : order) {
    const am::Message& m = memory.msg(id);
    chain::BlockRecord rec;
    rec.id = id;
    rec.time = m.appended_at;
    rec.ref_off = out.pool.size();
    rec.ref_count = m.refs.size();
    for (const am::MsgId ref : m.refs) out.pool.push_back(position[ref.author][ref.seq]);
    position[id.author].push_back(out.blocks.size());
    out.blocks.push_back(rec);
  }
  return out;
}

/// The growing views a protocol observes: `rounds` evenly spaced prefixes
/// of the history, ending at the full view.
std::vector<am::MemoryView> observation_views(const am::AppendMemory& memory, u32 history,
                                              u32 rounds) {
  std::vector<am::MemoryView> views;
  views.reserve(rounds);
  for (u32 r = 1; r <= rounds; ++r) {
    const SimTime horizon =
        static_cast<SimTime>(history) * static_cast<double>(r) / static_cast<double>(rounds) +
        0.5;
    views.push_back(memory.read_at(horizon));
  }
  views.back() = memory.read();
  return views;
}

/// Min and median wall time of `reps` calls of `fn`, in milliseconds;
/// `setup` runs untimed before each call.
struct Spread {
  double min_ms;
  double med_ms;
};
template <typename Setup, typename Fn>
Spread time_spread(int reps, Setup&& setup, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<usize>(reps));
  for (int r = 0; r < reps; ++r) {
    setup();
    const double t0 = now_seconds();
    fn();
    ms.push_back((now_seconds() - t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2]};
}

int reps_for(u32 history) { return history <= 2000 ? 5 : history <= 20000 ? 3 : 1; }

/// pb_montecarlo's six configurations (E9 at n=20, lambda=0.5, k=1001):
/// the slotted chain against kRushExtend, the DAG against kRateAndWithhold
/// on the fast path and with full ordering.
struct TrialConfig {
  const char* name;
  u32 t;
  int kind;  ///< 0 chain slotted, 1 DAG fast path, 2 DAG full ordering
};
constexpr TrialConfig kTrialConfigs[] = {
    {"chain_t2", 2, 0}, {"dag_fast_t2", 2, 1}, {"dag_exact_t2", 2, 2},
    {"chain_t6", 6, 0}, {"dag_fast_t6", 6, 1}, {"dag_exact_t6", 6, 2},
};

void run_trial(const TrialConfig& c, Rng rng) {
  if (c.kind == 0) {
    proto::ChainParams params;
    params.scenario.n = 20;
    params.scenario.t = c.t;
    params.k = 1001;
    params.lambda = 0.5;
    params.adversary = proto::ChainAdversary::kRushExtend;
    g_sink = g_sink + proto::run_chain_slotted(params, rng).total_appends;
    return;
  }
  proto::DagParams params;
  params.scenario.n = 20;
  params.scenario.t = c.t;
  params.k = 1001;
  params.lambda = 0.5;
  params.adversary = proto::DagAdversary::kRateAndWithhold;
  params.full_ordering = c.kind == 2;
  g_sink = g_sink + proto::run_dag_continuous(params, rng).outcome.total_appends;
}

}  // namespace

// Counting replacements of the global allocation functions. Every form
// but the aligned ones is replaced, so none of them pairs with a
// sanitizer's own replacement. Once a new/delete pair is inlined, GCC
// takes the free() for a mismatch; the two are matched by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
void* counted_malloc(std::size_t size) noexcept {
  ++g_allocs;
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "Hot paths — incremental graph, ordering, decision rules", 1);
  u32 max_history = 100000;
  u32 rounds = 64;
  h.opts.add_u32("max-history", &max_history, "cap per-config history length");
  h.opts.add_u32("rounds", &rounds, "observation rounds per trial");
  if (const std::optional<int> code = h.parse()) return *code;

  const std::vector<u32> ns = {8, 32, 128};
  std::vector<u32> histories;
  for (const u32 cand : {1000u, 10000u, 100000u}) {
    if (cand <= max_history) histories.push_back(cand);
  }
  if (histories.empty()) histories.push_back(max_history);

  // --- Graph growth: carry-and-extend vs rebuild-per-round -------------
  Table growth({"n", "history", "rounds", "extend [ms]", "rebuild [ms]", "speedup"});
  for (const u32 n : ns) {
    for (const u32 history : histories) {
      const am::AppendMemory memory = build_history(n, history, h.seed);
      const std::vector<am::MemoryView> views = observation_views(memory, history, rounds);
      const int reps = reps_for(history);

      const double extend_ms = time_ms(reps, [&] {
        chain::BlockGraph graph;
        for (const am::MemoryView& v : views) {
          graph.extend(v);
          g_sink = g_sink + graph.max_depth();
        }
      });
      const double rebuild_ms = time_ms(reps, [&] {
        for (const am::MemoryView& v : views) {
          const chain::BlockGraph graph(v);
          g_sink = g_sink + graph.max_depth();
        }
      });
      growth.add_row({std::to_string(n), std::to_string(history), std::to_string(rounds),
                      fmt(extend_ms, 3), fmt(rebuild_ms, 3), fmt(rebuild_ms / extend_ms, 2)});
    }
  }
  h.emit(growth, "Graph growth over " + std::to_string(rounds) +
                     " observation rounds: incremental extend vs from-scratch rebuild:");

  // --- Append-time ordering: merge vs sort vs incremental cursor -------
  Table ordering({"n", "history", "merge [ms]", "sort [ms]", "cursor [ms]"});
  for (const u32 n : ns) {
    for (const u32 history : histories) {
      const am::AppendMemory memory = build_history(n, history, h.seed + 1);
      const am::MemoryView view = memory.read();
      const std::vector<am::MemoryView> views = observation_views(memory, history, rounds);
      const int reps = reps_for(history);

      const double merge_ms = time_ms(reps, [&] { g_sink = g_sink + view.by_append_time().size(); });
      // The pre-merge implementation, timed as the baseline it replaced.
      const double sort_ms = time_ms(reps, [&] {
        std::vector<am::MsgId> ids;
        ids.reserve(view.size());
        for (u32 r = 0; r < view.register_count(); ++r) {
          for (u32 s = 0; s < view.register_len(r); ++s) ids.push_back(am::MsgId{r, s});
        }
        std::stable_sort(ids.begin(), ids.end(), [&](am::MsgId a, am::MsgId b) {
          const SimTime ta = view.msg(a).appended_at;
          const SimTime tb = view.msg(b).appended_at;
          if (ta != tb) return ta < tb;
          return a < b;
        });
        g_sink = g_sink + ids.size();
      });
      // Round-r watermark = the read horizon of round r's view: everything
      // still hidden was appended at or after it.
      std::vector<SimTime> horizons;
      horizons.reserve(views.size());
      for (u32 r = 1; r <= rounds; ++r) {
        horizons.push_back(static_cast<SimTime>(history) * static_cast<double>(r) /
                           static_cast<double>(rounds) + 0.5);
      }
      const double cursor_ms = time_ms(reps, [&] {
        am::AppendOrderCursor cursor(memory);
        std::vector<am::MsgId> out;
        out.reserve(view.size());
        for (usize i = 0; i < views.size(); ++i) cursor.drain(views[i], horizons[i], out);
        cursor.finish(view, out);
        g_sink = g_sink + out.size();
      });
      ordering.add_row({std::to_string(n), std::to_string(history), fmt(merge_ms, 3),
                        fmt(sort_ms, 3), fmt(cursor_ms, 3)});
    }
  }
  h.emit(ordering,
         "Append-time ordering of the full history: k-way merge vs the old full "
         "sort vs round-by-round cursor:");

  // --- Decision rules on the final graph -------------------------------
  // Each build stage is timed on its own. "records build" times the graph's
  // structure built from the history as runner records (what the exact DAG
  // decision does). The graph builds its topological order, GHOST weights
  // and child lists lazily, on first access; "cold build" times that first
  // access alone, each rep on a fresh graph built outside the timer; the
  // rule columns then run warm. Every figure is the min and the median of
  // the same fixed number of timed calls at every history, so rows compare
  // like for like.
  constexpr int kRuleReps = 7;
  Table rules({"n", "history", "records build min [ms]", "records build med [ms]",
               "cold build min [ms]", "cold build med [ms]", "ghost pivot min [ms]",
               "ghost pivot med [ms]", "longest pivot min [ms]", "longest pivot med [ms]",
               "linearize min [ms]", "linearize med [ms]"});
  const auto build_lazy = [](const chain::BlockGraph& g) {
    g_sink = g_sink + g.topo_order().size() + g.subtree_weight(g.id_at(0));
  };
  for (const u32 n : ns) {
    for (const u32 history : histories) {
      const am::AppendMemory memory = build_history(n, history, h.seed + 2);

      std::optional<chain::BlockGraph> fresh;
      const Records records = as_records(memory);
      const Spread from_records = time_spread(
          kRuleReps, [&] { fresh.reset(); },
          [&] { fresh.emplace(n, records.blocks, records.pool); });
      const Spread cold = time_spread(
          kRuleReps, [&] { fresh.emplace(memory.read()); }, [&] { build_lazy(*fresh); });
      const chain::BlockGraph graph(memory.read());
      build_lazy(graph);

      const auto warm = [&](chain::PivotRule rule, bool linearize) {
        return time_spread(kRuleReps, [] {}, [&] {
          g_sink = g_sink + (linearize ? chain::linearize_dag(graph, rule).size()
                                       : chain::select_pivot(graph, rule).size());
        });
      };
      const Spread ghost = warm(chain::PivotRule::kGhost, false);
      const Spread longest = warm(chain::PivotRule::kLongestChain, false);
      const Spread lin = warm(chain::PivotRule::kGhost, true);
      std::vector<std::string> row = {std::to_string(n), std::to_string(history)};
      for (const Spread& sp : {from_records, cold, ghost, longest, lin}) {
        row.push_back(fmt(sp.min_ms, 3));
        row.push_back(fmt(sp.med_ms, 3));
      }
      rules.add_row(std::move(row));
    }
  }
  h.emit(rules, "Decision rules on the final graph (min and median of " +
                    std::to_string(kRuleReps) + " calls):");

  // --- Decided-prefix compaction: resident record state vs history ------
  // mp layer over the simulated network (DESIGN.md §8). The unbounded node
  // pays one record body per appended record forever; a summary-mode node
  // folds the stable prefix into its checkpoint, so live record state is
  // the suffix behind the quantized cut — near-flat at any history. The
  // byte column is live records x the in-memory record size, so the
  // bytes/record-of-history curve falls as 1/history with compaction on.
  Table compact_mem({"mode", "n", "history", "live [records]", "resident [B]"});
  for (const bool summary : {false, true}) {
    for (const u32 history : histories) {
      const u32 cluster_n = 4;
      mp::Network net(cluster_n, 0.01, 0.1, Rng::for_stream(h.seed, summary ? 0xc1 : 0xc0));
      const crypto::KeyRegistry keys(cluster_n, h.seed);
      mp::AbdConfig cfg;
      cfg.compact.enabled = summary;
      cfg.compact.retain_records = false;
      cfg.compact.lag = 64;
      std::vector<std::unique_ptr<mp::AbdNode>> nodes;
      nodes.reserve(cluster_n);
      for (u32 i = 0; i < cluster_n; ++i) {
        nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, net, keys, cfg));
      }
      for (u32 k = 0; k < history; ++k) {
        nodes[k % cluster_n]->begin_append((k % 2) != 0 ? 1 : -1, [] {});
        // Drain in batches so the pipeline window, not the backlog, bounds
        // in-flight appends.
        if ((k & 31u) == 31u) net.queue().run();
      }
      net.queue().run();
      const usize live = nodes[0]->live_records();
      compact_mem.add_row({summary ? "summary" : "off", std::to_string(cluster_n),
                           std::to_string(history), std::to_string(live),
                           std::to_string(live * sizeof(mp::SignedAppend))});
    }
  }
  h.emit(compact_mem,
         "Decided-prefix compaction: live record state vs total history "
         "(summary mode folds the stable prefix into the checkpoint):");

  // --- Monte-Carlo trial heap allocations -------------------------------
  // Calls of operator new per trial, mean over a fixed set of seeded
  // trials: an exact count of a deterministic workload, so a runner that
  // starts allocating per block again shows here on any machine.
  constexpr u64 kAllocTrials = 32;
  Table allocs({"config", "trials", "allocs [allocs]"});
  for (const TrialConfig& c : kTrialConfigs) {
    u64 total = 0;
    for (u64 i = 0; i < kAllocTrials; ++i) {
      const Rng rng = Rng::for_stream(h.seed, i);
      const u64 before = g_allocs;
      run_trial(c, rng);
      total += g_allocs - before;
    }
    allocs.add_row({c.name, std::to_string(kAllocTrials),
                    fmt(static_cast<double>(total) / static_cast<double>(kAllocTrials), 2)});
  }
  h.emit(allocs, "Monte-Carlo trial heap allocations (mean of " + std::to_string(kAllocTrials) +
                     " seeded trials, pb_montecarlo configurations):");
  return 0;
}
