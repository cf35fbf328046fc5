// amm_node — a real append-memory node: one AbdNode (§4, Algorithms 2–3)
// hosted behind the TCP transport (its reactor runs on the EventLoop seam:
// epoll, with a poll fallback), plus the DAG BA decision rule (§5.3,
// Algorithm 6) served over the control plane.
//
//   amm_node --id I --n N [--seed S] [--host 127.0.0.1] [--base-port 9500]
//            [--backend auto|poll|epoll] [--verify-threads 0]
//            [--compact off|summary] [--compact-lag L]
//            [--store-dir D] [--fsync never|interval|always]
//            [--snapshot-interval A]
//
// (Full option reference: amm_node --help; tools/cli.hpp declares the
// vocabulary once and support/options.hpp generates parsing, validation
// and help from it.)
//
// --store-dir attaches the durable backend (storage::FileLog, DESIGN.md
// §10): every admitted record is appended to a CRC-framed segment log and
// the node's protocol state is snapshotted periodically. On restart with a
// populated store the node first recovers locally — newest self-signed
// snapshot, then log replay — and only fetches the tail it missed from the
// cluster, via the same delta-read/checkpoint-sync machinery a live node
// uses. Restart wire cost is O(missed records), not O(history).
//
// --compact selects the decided-prefix compaction mode (DESIGN.md §8):
// `off` is the unbounded pre-compaction node; `summary` folds the stable
// prefix into a checkpoint and erases the folded bodies, so resident
// memory tracks the live suffix instead of total history. A summary node
// opens with a checkpoint sync: it adopts the decided prefix its peers
// agree on by quorum, then delta-reads only the live suffix.
//
// The node verifies every signature itself, once, on the reactor thread
// (mp/abd.hpp); --verify-threads accepts only 0 and exists because
// perfbench/run.py passes it.
//
// Node i listens on base-port+i and dials every other node. All nodes of a
// cluster must share --n and --seed: the KeyRegistry is derived from them,
// which is this runtime's stand-in for a deployed PKI (DESIGN.md §2 — the
// simulated-signature substitution, now enforced on real sockets).
//
// Control plane (see amm_ctl): append / read / decide / stats / kick on
// the same port. Operations run through the full ABD protocol — an append
// completes only after a majority of the cluster acked it, a read merges a
// majority of views — so every number amm_ctl prints is a real quorum
// result, not local state.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <deque>
#include <string>

#include <memory>
#include <optional>

#include "mp/abd.hpp"
#include "net/decision.hpp"
#include "net/transport.hpp"
#include "storage/file_log.hpp"
#include "tools/cli.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

/// Resident set size in KiB from /proc/self/statm (second field, pages).
/// Returns 0 where procfs is unavailable — the stat is then absent, not
/// wrong.
amm::u64 resident_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int matched = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<amm::u64>(resident_pages) * static_cast<amm::u64>(page) / 1024u;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amm;

  tools::NodeConfig cli;
  {
    // Seed the deep-config defaults before add_node_options captures them
    // for --help, so help and behavior cannot drift apart.
    const mp::AbdConfig abd_defaults;
    cli.compact_lag = abd_defaults.compact.lag;
    cli.snapshot_interval = abd_defaults.snapshot_interval;
  }
  OptionSet opts("amm_node", "one append-memory node (ABD quorum protocol over TCP)");
  tools::add_node_options(opts, &cli);
  if (const std::optional<int> code = opts.parse_or_exit_code(argc, argv)) return *code;
  const u32 n = cli.n;
  const u32 id = cli.id;
  const u64 seed = cli.seed;
  const std::string host = cli.host;
  const u16 base_port = cli.base_port;
  const std::string compact_mode = cli.compact;
  if (n == 0 || id >= n) {
    std::fprintf(stderr, "amm_node: need 0 <= --id < --n\n");
    return 2;
  }

  mp::AbdConfig abd_config;
  abd_config.compact.enabled = compact_mode == "summary";
  abd_config.compact.retain_records = false;  // a node folds only in summary mode
  abd_config.compact.lag = cli.compact_lag;
  abd_config.snapshot_interval = cli.snapshot_interval;

  std::unique_ptr<storage::FileLog> store;
  if (!cli.store_dir.empty()) {
    storage::FileLogConfig store_config;
    store_config.dir = cli.store_dir;
    store_config.fsync = *mp::parse_fsync_policy(cli.fsync);  // vocabulary enforced by parse()
    store = std::make_unique<storage::FileLog>(store_config);
    if (!store->ok()) {
      std::fprintf(stderr, "amm_node: cannot open --store-dir %s: %s\n", cli.store_dir.c_str(),
                   store->error().c_str());
      return 2;
    }
    abd_config.storage = store.get();
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  crypto::KeyRegistry keys(n, seed);
  net::TransportConfig config;
  config.self = NodeId{id};
  config.backend = net::parse_loop_backend(cli.backend);
  for (u32 i = 0; i < n; ++i) {
    config.peers.push_back(net::Endpoint{host, static_cast<u16>(base_port + i)});
  }
  net::TcpTransport transport(config, keys, Rng::for_stream(seed, 0x6e6f6465 + id));
  if (!transport.start()) {
    std::fprintf(stderr, "amm_node: cannot listen on %s:%u\n", host.c_str(),
                 static_cast<unsigned>(base_port + id));
    return 2;
  }

  mp::AbdNode node(NodeId{id}, transport, keys, abd_config);

  // Local recovery runs before any wire activity: snapshot + log replay
  // rebuild the pre-crash view, and the advanced watermarks then make the
  // follow-up read below a pure delta fetch.
  u64 replayed = 0;
  if (store != nullptr) replayed = node.recover_from_storage();

  // Control-plane ops dispatch immediately: AbdNode pipelines appends
  // internally (bounded by AbdConfig::max_pipeline, excess queues in
  // order) and correlates reads by read id, so concurrent ctl requests
  // keep the wire full instead of serializing on a single in-flight op.
  struct PendingCtl {
    u64 session = 0;
    net::CtlRequest request;
  };
  std::deque<PendingCtl> ctl_queue;

  transport.set_ctl_handler([&ctl_queue](u64 session, const net::CtlRequest& request) {
    ctl_queue.push_back(PendingCtl{session, request});
  });

  const auto pump_ops = [&] {
    while (!ctl_queue.empty()) {
      const PendingCtl item = ctl_queue.front();
      ctl_queue.pop_front();
      net::CtlReply reply;
      reply.op = item.request.op;
      switch (item.request.op) {
        case net::CtlOp::kAppend:
          node.begin_append(item.request.value, [&, item] {
            net::CtlReply done;
            done.op = net::CtlOp::kAppend;
            done.ok = true;
            done.status = net::CtlStatus::kOk;
            transport.send_ctl_reply(item.session, done);
          });
          break;
        case net::CtlOp::kRead:
          node.begin_read([&, item](const std::vector<mp::SignedAppend>& view) {
            net::CtlReply done;
            done.op = net::CtlOp::kRead;
            done.ok = true;
            done.status = net::CtlStatus::kOk;
            done.view = view;
            transport.send_ctl_reply(item.session, done);
          });
          break;
        case net::CtlOp::kDecide:
          node.begin_read([&, item](const std::vector<mp::SignedAppend>& view) {
            // In summary mode the quorum view is the live suffix (no peer
            // ships bodies below the reader's fold), so the folded prefix
            // contributes through the checkpoint's vote_sum. An `off`
            // view still holds every body — plain decide, or the fold
            // would double-count. k below the fold is undecidable in
            // summary mode: the per-record resolution is gone.
            const mp::Checkpoint& ckpt = node.checkpoint();
            const bool summary = compact_mode == "summary" && ckpt.folded_records > 0;
            net::Decision decision;
            bool resolvable = true;
            if (!summary) {
              decision = net::decide_first_k(view, item.request.k);
            } else if (item.request.k >= ckpt.folded_records) {
              decision = net::decide_first_k_with_checkpoint(ckpt, view, item.request.k);
            } else {
              resolvable = false;
            }
            net::CtlReply done;
            done.op = net::CtlOp::kDecide;
            done.ok = resolvable && decision.decided_over > 0;
            // Distinct machine-readable reasons: a cut below the fold is a
            // *refusal* (re-asking cannot help), no k-cut yet is a *not
            // yet* (amm_ctl exits 3 vs 1 accordingly).
            done.status = done.ok          ? net::CtlStatus::kOk
                          : resolvable     ? net::CtlStatus::kUndecided
                                           : net::CtlStatus::kRefusedBelowFold;
            done.decision = decision.sign;
            done.decided_over = decision.decided_over;
            transport.send_ctl_reply(item.session, done);
          });
          break;
        case net::CtlOp::kStats:
          reply.ok = true;
          reply.status = net::CtlStatus::kOk;
          // The node reports what it owns; only the host knows the
          // transport's wire counters and the process's RSS.
          reply.stats = node.stats();
          reply.stats.messages_sent = transport.messages_sent();
          reply.stats.bytes_sent = transport.bytes_sent();
          reply.stats.reconnects = transport.reconnects();
          reply.stats.auth_rejects = transport.auth_rejects();
          reply.stats.rss_kb = resident_kb();
          reply.stats.writes = transport.writev_calls();
          transport.send_ctl_reply(item.session, reply);
          break;
        case net::CtlOp::kKick:
          transport.kick_outbound();
          reply.ok = true;
          reply.status = net::CtlStatus::kOk;
          transport.send_ctl_reply(item.session, reply);
          break;
      }
    }
  };

  std::printf("amm_node: id=%u n=%u backend=%s listening on %s:%u\n", id, n,
              transport.backend_name(), host.c_str(),
              static_cast<unsigned>(transport.listen_port()));
  std::fflush(stdout);
  if (store != nullptr) {
    // After the "listening on" line — cluster harnesses gate readiness on
    // that line being first on stdout.
    std::printf("amm_node: id=%u recovered replayed=%llu snapshot=%s view=%zu torn_tail=%llu\n",
                id, static_cast<unsigned long long>(replayed),
                store->load_snapshot() ? "yes" : "no", node.local_view().size(),
                static_cast<unsigned long long>(store->stats().torn_tail_bytes));
    std::fflush(stdout);
  }

  transport.connect_peers();
  if (store != nullptr) {
    // Fetch the tail the cluster appended while we were down. The
    // recovered watermarks ride in the read frontier, so responders ship
    // only records we miss — the delta-only restart path ISSUE/E18
    // measures. Fire-and-forget like the checkpoint sync below.
    node.begin_read([](const std::vector<mp::SignedAppend>&) {});
  }
  if (compact_mode == "summary") {
    // A restarting summary node does not replay the folded prefix record by
    // record: it adopts the quorum-agreed checkpoint and delta-reads only
    // the live suffix (DESIGN.md §8). Fire-and-forget: until the sync
    // completes the node simply serves from an older (empty) checkpoint.
    node.begin_checkpoint_sync([id](bool ok) {
      std::printf("amm_node: id=%u checkpoint sync %s\n", id, ok ? "adopted" : "skipped");
      std::fflush(stdout);
    });
  }
  while (g_stop == 0) {
    transport.poll_once(std::chrono::milliseconds(50));
    pump_ops();
  }

  std::printf("amm_node: id=%u shutting down (view=%zu appends=%u)\n", id,
              node.local_view().size(), node.appends_issued());
  transport.stop();
  return 0;
}
