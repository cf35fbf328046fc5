// pb_montecarlo — the E9 headline question (chain vs DAG under the same
// adversarial budget) as a timed, in-process Monte-Carlo harness.
//
//   pb_montecarlo --seed S --seconds T --out DIR
//
// One round runs a fixed, seeded set of 32 trials for each of six
// configurations at n=20, lambda=0.5, k=1001, t in {2, 6}: the slotted
// chain against kRushExtend, the DAG against kRateAndWithhold on the fast
// path, and the same DAG trials with full_ordering (BlockGraph extend and
// linearize). Rounds repeat on a 4-worker exp pool until T seconds
// have passed; every round re-runs the same seeds, so the work per round
// is fixed and only its speed is measured. Afterwards one round runs on a
// single-thread pool for the determinism check.
//
// Files written to DIR:
//   trials.bin   int64 x4 per measured trial: config, start (ns from the
//                window start), wall duration, thread CPU time
//   summary.json set-up times, window length, /proc stat lines of the host
//                and the harness at the window's edges, pool busy time,
//                and per-config successes
//                of the measured, single-thread, fast and exact runs
#include <atomic>
#include <memory>

#include "exp/montecarlo.hpp"
#include "pb_common.hpp"
#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"

namespace {

using namespace amm;
using pb::i64;

constexpr u32 kN = 20;
constexpr u32 kK = 1001;
constexpr double kLambda = 0.5;
constexpr unsigned kThreads = 4;
constexpr usize kTrials = 32;     ///< per configuration and round
constexpr int kSetupReps = 25;
constexpr u64 kSetupSeed = 0x5e7u;  ///< seed of the warm-up trials

struct Config {
  const char* name;
  u32 t;
  int kind;  ///< 0 chain slotted, 1 DAG fast path, 2 DAG full ordering
};
constexpr Config kConfigs[] = {
    {"chain_t2", 2, 0}, {"dag_fast_t2", 2, 1}, {"dag_exact_t2", 2, 2},
    {"chain_t6", 6, 0}, {"dag_fast_t6", 6, 1}, {"dag_exact_t6", 6, 2},
};
constexpr usize kConfigCount = std::size(kConfigs);

/// One trial: true iff it terminated with validity.
bool run_trial(const Config& c, Rng& rng) {
  if (c.kind == 0) {
    proto::ChainParams params;
    params.scenario.n = kN;
    params.scenario.t = c.t;
    params.k = kK;
    params.lambda = kLambda;
    params.adversary = proto::ChainAdversary::kRushExtend;
    const proto::Outcome out = proto::run_chain_slotted(params, rng);
    return out.terminated && out.validity(params.scenario);
  }
  proto::DagParams params;
  params.scenario.n = kN;
  params.scenario.t = c.t;
  params.k = kK;
  params.lambda = kLambda;
  params.adversary = proto::DagAdversary::kRateAndWithhold;
  params.full_ordering = c.kind == 2;
  const proto::DagResult res = proto::run_dag_continuous(params, rng);
  return res.outcome.terminated && res.outcome.validity(params.scenario);
}

/// The DAG's fast and exact variants of one t share a seed.
u64 config_seed(u64 seed, const Config& c) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (c.t + 1)) ^ (c.kind == 0 ? 0 : 0xda6ULL);
}

struct RoundResult {
  std::vector<std::vector<u8>> outcomes;  ///< [config][trial]
  std::vector<u64> successes;             ///< [config]
  i64 busy_ns = 0;                        ///< summed trial durations
};

/// Runs the fixed trial set once on `pool`. With `samples`, appends one
/// (config, start, duration, cpu) row per trial, start relative to `origin`.
RoundResult run_round(ThreadPool& pool, u64 seed, i64 origin, std::vector<i64>* samples) {
  RoundResult result;
  for (usize ci = 0; ci < kConfigCount; ++ci) {
    const Config& c = kConfigs[ci];
    std::vector<u8> outcome(kTrials, 0);
    std::vector<i64> start(kTrials, 0), duration(kTrials, 0), cpu(kTrials, 0);
    const BernoulliEstimate est =
        exp::estimate_rate(pool, config_seed(seed, c), kTrials, [&](usize i, Rng& rng) {
          const i64 t0 = pb::now_ns();
          const i64 c0 = pb::thread_cpu_ns();
          const bool ok = run_trial(c, rng);
          cpu[i] = pb::thread_cpu_ns() - c0;
          start[i] = t0;
          duration[i] = pb::now_ns() - t0;
          outcome[i] = ok ? 1 : 0;
          return ok;
        });
    for (usize i = 0; i < kTrials; ++i) {
      result.busy_ns += duration[i];
      if (samples != nullptr) {
        samples->insert(samples->end(),
                        {static_cast<i64>(ci), start[i] - origin, duration[i], cpu[i]});
      }
    }
    result.outcomes.push_back(std::move(outcome));
    result.successes.push_back(est.successes());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  u64 seed = 1;
  double seconds = 10;
  std::string out_dir;
  tools::OptionSet opts("pb_montecarlo", "seeded Monte-Carlo trials on a 4-thread exp pool");
  opts.add_u64("seed", &seed, "trial seed");
  opts.add_double("seconds", &seconds, "length of the measured window");
  opts.add_string("out", &out_dir, "directory for trials.bin and summary.json");
  if (const int rc = pb::parse_options(opts, "pb_montecarlo", argc, argv); rc >= 0) return rc;
  if (out_dir.empty() || seconds <= 0) {
    std::fprintf(stderr, "pb_montecarlo: --out is required and --seconds must be positive\n");
    return 2;
  }

  // Set-up, repeated: start the worker pool and run one warm-up trial of
  // every configuration per worker, on the pool (allocator and cache
  // warm-up a user pays once per process). The last pool is kept for the
  // measured rounds. Set-up is timed on the process CPU clock: it is all
  // computation, and host steal would otherwise decide the figure. The
  // warm-up trials are the same in every rep and every run (their own fixed
  // seed), since a trial's length depends on its draws: setup_s then
  // compares the program's work on fixed inputs, not the luck of the
  // draws. Spreading them over the workers averages the speed of the cores
  // they land on, which on a shared host differs by up to 1.5x.
  std::vector<double> setup_s;
  std::unique_ptr<ThreadPool> pool;
  for (int r = 0; r < kSetupReps; ++r) {
    const i64 t0 = pb::process_cpu_ns();
    pool.reset();
    pool = std::make_unique<ThreadPool>(kThreads);
    for (const Config& c : kConfigs) {
      (void)exp::estimate_rate(*pool, config_seed(kSetupSeed, c), kThreads,
                               [&c](usize, Rng& rng) { return run_trial(c, rng); });
    }
    setup_s.push_back(static_cast<double>(pb::process_cpu_ns() - t0) / 1e9);
  }

  std::vector<i64> samples;
  const std::string proc_start = pb::proc_stat_line("self");
  const std::string host_start = pb::host_cpu_line();
  const i64 w0 = pb::now_ns();
  const i64 deadline = w0 + static_cast<i64>(seconds * 1e9);
  RoundResult first;
  i64 busy_ns = 0;
  u64 rounds = 0;
  bool stable = true;  ///< every round reproduced the first round's outcomes
  while (rounds == 0 || pb::now_ns() < deadline) {
    RoundResult round = run_round(*pool, seed, w0, &samples);
    busy_ns += round.busy_ns;
    if (rounds == 0) {
      first = std::move(round);
    } else {
      stable = stable && round.outcomes == first.outcomes;
    }
    ++rounds;
  }
  const i64 w1 = pb::now_ns();
  const std::string proc_end = pb::proc_stat_line("self");
  const std::string host_end = pb::host_cpu_line();

  ThreadPool single(1);
  const RoundResult serial = run_round(single, seed, w1, nullptr);
  u64 fast_exact_mismatch = 0;
  for (usize ci = 0; ci < kConfigCount; ++ci) {
    if (kConfigs[ci].kind != 1) continue;
    for (usize i = 0; i < kTrials; ++i) {
      if (first.outcomes[ci][i] != first.outcomes[ci + 1][i]) ++fast_exact_mismatch;
    }
  }

  std::vector<std::string> names;
  for (const Config& c : kConfigs) names.emplace_back(c.name);
  pb::JsonObject summary;
  summary.integer("window_ns", w1 - w0)
      .integer("threads", kThreads)
      .integer("trials_per_config", static_cast<i64>(kTrials))
      .integer("rounds", static_cast<i64>(rounds))
      .integer("busy_ns", busy_ns)
      .integer("fast_exact_mismatch", static_cast<i64>(fast_exact_mismatch))
      .raw("stable_across_rounds", stable ? "true" : "false")
      .raw("configs", pb::json_string_list(names))
      .raw("setup_s", pb::json_list(setup_s))
      .raw("successes", pb::json_list(first.successes))
      .raw("successes_single_thread", pb::json_list(serial.successes))
      .raw("proc", pb::json_string_list({proc_start, proc_end}))
      .raw("host", pb::json_string_list({host_start, host_end}));
  std::ofstream out(out_dir + "/summary.json");
  out << summary.text() << "\n";
  if (!out || !pb::write_i64s(out_dir + "/trials.bin", samples)) {
    std::fprintf(stderr, "pb_montecarlo: cannot write results to %s\n", out_dir.c_str());
    return 1;
  }
  return 0;
}
