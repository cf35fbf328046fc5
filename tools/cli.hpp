// tools/cli.hpp — the node option vocabulary, declared once for every
// node-shaped process (amm_node today; cluster scripts pass the same flags
// through).
//
//   tools::NodeConfig cfg;
//   OptionSet opts("amm_node", "one append-memory node");
//   tools::add_node_options(opts, &cfg);
//   if (const std::optional<int> code = opts.parse_or_exit_code(argc, argv)) return *code;
//
// NodeConfig is the one struct all node-shaped tools share; the storage
// flags (--store-dir, --fsync, --snapshot-interval) feed
// storage::FileLogConfig and mp::AbdConfig in amm_node. A flag exists
// only where a script, CI step or perfbench sets it: finer knobs
// (backpressure watermarks, fsync interval, segment size) stay fields
// of the deeper configs, which tests set directly. The parser itself is
// support/options.hpp.
#pragma once

#include <string>

#include "support/options.hpp"
#include "support/types.hpp"

namespace amm::tools {

// perfbench/ names these through amm::tools.
using amm::OptionSet;
using amm::ParseStatus;

/// Everything a node-shaped process needs, one field per flag. Callers
/// overwrite the defaults that actually come from deeper configs
/// (compaction lag, snapshot interval) before add_node_options captures
/// them for --help.
struct NodeConfig {
  u32 n = 5;
  u32 id = 0;
  u64 seed = 20200715;
  std::string host = "127.0.0.1";
  u16 base_port = 9500;
  std::string backend = "auto";      // event loop: auto|poll|epoll
  std::string verify_threads = "0";  ///< accepted for perfbench; only "0"
  std::string compact = "off";       // off|summary
  u32 compact_lag = 256;             ///< caller seeds from mp::CompactConfig
  std::string store_dir;             ///< empty = memory-only node
  std::string fsync = "interval";    // never|interval|always
  u32 snapshot_interval = 1024;      ///< caller seeds from mp::AbdConfig
};

/// The node option vocabulary, declared once for every tool that hosts or
/// spawns nodes (amm_node today; cluster scripts pass these through).
inline void add_node_options(OptionSet& opts, NodeConfig* cfg) {
  opts.add_u32("n", &cfg->n, "cluster size (all nodes must share --n and --seed)");
  opts.add_u32("id", &cfg->id, "this node's id, 0 <= id < n");
  opts.add_u64("seed", &cfg->seed, "KeyRegistry master seed");
  opts.add_string("host", &cfg->host, "listen/dial host");
  opts.add_u16("base-port", &cfg->base_port, "node i listens on base-port+i");
  opts.add_enum("backend", &cfg->backend, {"auto", "poll", "epoll"}, "event-loop backend");
  // perfbench/run.py passes --verify-threads 0; the node verifies every
  // signature itself on the reactor thread, so 0 is the only value.
  opts.add_enum("verify-threads", &cfg->verify_threads, {"0"},
                "signature-verification worker threads; always 0 (verified inline)");
  opts.add_enum("compact", &cfg->compact, {"off", "summary"},
                "decided-prefix compaction mode (DESIGN.md §8)");
  opts.add_u32("compact-lag", &cfg->compact_lag,
               "records per author kept live behind the stability cut");
  opts.add_string("store-dir", &cfg->store_dir,
                  "durable store directory (empty = memory-only, DESIGN.md §10)");
  opts.add_enum("fsync", &cfg->fsync, {"never", "interval", "always"},
                "append-log fsync policy");
  opts.add_u32("snapshot-interval", &cfg->snapshot_interval,
               "admissions between automatic snapshots (0 = never)");
}

}  // namespace amm::tools
