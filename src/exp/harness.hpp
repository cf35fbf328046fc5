// Shared experiment-binary plumbing: the common flags, banner printing and
// table emission, so every exp_* target behaves identically.
//
// A binary declares its own flags on `opts`, then parses once:
//
//   exp::Harness h(argc, argv, "E1 — asynchronous impossibility (Theorem 2.1)", 1);
//   u32 n = 3;
//   h.opts.add_u32("n", &n, "processes");
//   if (const std::optional<int> code = h.parse()) return *code;
//
// Common flags, declared by the Harness on the same OptionSet:
//   --trials N    Monte-Carlo trials per configuration (default per-exp)
//   --seed S      master seed (default 20200715 — the SPAA'20 date)
//   --threads T   worker threads (default 0: hardware)
//   --csv         emit CSV instead of the ASCII table
//   --json FILE   additionally write every emitted table to FILE as JSON
//                 (machine-readable summary; aggregated by collect_bench.py)
// --help prints the binary's whole vocabulary and exits 0; an unknown flag
// or a bad value exits 2 (support/options.hpp).
#pragma once

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/options.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace amm::exp {

struct Harness {
  Harness(int argc, const char* const* argv, const std::string& title, usize default_trials)
      : opts(argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "exp", title),
        trials(default_trials),
        argc_(argc),
        argv_(argv),
        title_(title) {
    opts.add_u64("trials", &trials, "Monte-Carlo trials per configuration");
    opts.add_u64("seed", &seed, "master seed (20200715 is the SPAA'20 date)");
    opts.add_u32("threads", &threads_, "worker threads (0 = hardware)");
    opts.add_flag("csv", &csv, "emit CSV instead of the ASCII table");
    opts.add_string("json", &json_path, "additionally write every emitted table to this JSON file");
  }

  ~Harness() { write_json(); }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Parses argv against every declared flag, then starts the pool and
  /// prints the banner. nullopt to carry on, else main's exit code.
  std::optional<int> parse() {
    if (const std::optional<int> code = opts.parse_or_exit_code(argc_, argv_)) return code;
    pool_.emplace(threads_);
    if (!csv) {
      std::cout << "== " << title_ << " ==\n"
                << "trials/config=" << trials << " seed=" << seed << " threads=" << pool_->size()
                << "\n\n";
    }
    return std::nullopt;
  }

  /// The worker pool; valid after a parse() that returned nullopt.
  ThreadPool& pool() { return *pool_; }

  void emit(const Table& table, const std::string& caption = "") {
    if (csv) {
      table.print_csv(std::cout);
    } else {
      if (!caption.empty()) std::cout << caption << "\n";
      table.print(std::cout);
      std::cout << "\n";
    }
    if (!json_path.empty()) collected_.emplace_back(caption, table);
  }

  OptionSet opts;
  usize trials;
  u64 seed = 20200715;
  bool csv = false;
  std::string json_path;

 private:
  /// One JSON document per run: run parameters plus every emitted table,
  /// in emission order. Written at destruction so a binary that emits
  /// several tables still produces a single well-formed file; a run that
  /// never got past parse() writes none.
  void write_json() const {
    if (json_path.empty() || !pool_) return;
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "warning: cannot write --json file " << json_path << "\n";
      return;
    }
    out << "{\"title\":\"" << json_escape(title_) << "\",\"seed\":" << seed
        << ",\"trials\":" << trials << ",\"tables\":[";
    for (usize i = 0; i < collected_.size(); ++i) {
      if (i > 0) out << ',';
      out << "{\"caption\":\"" << json_escape(collected_[i].first) << "\",\"table\":";
      collected_[i].second.print_json(out);
      out << '}';
    }
    out << "]}\n";
  }

  int argc_;
  const char* const* argv_;
  u32 threads_ = 0;
  std::optional<ThreadPool> pool_;
  std::string title_;
  std::vector<std::pair<std::string, Table>> collected_;
};

}  // namespace amm::exp
