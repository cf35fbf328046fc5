// pb_layers — the traced run's per-layer numbers: spans recorded by this
// file around calls into each module's public functions, on inputs shaped
// like the cluster workloads' (three authors, unique signed values, read
// replies the size of a summary-mode live suffix) and the montecarlo
// workload's (n=20, k=1001 DAG histories and trials).
//
//   pb_layers --seed S --out DIR
//
// Every measurement runs a fixed number of repetitions; each repetition is
// one span around a fixed batch of calls, so the clock is read twice per
// batch, not per call. A metric is the median over its repetitions of the
// span length divided by the batch. Cold and warm BlockGraph work are
// separate measurements on separate graphs, so the lazy first build of
// topo_order/subtree_weight is never charged to a pivot rule.
//
// Output: one JSON object of metrics on stdout, and every span as
// `name,parent,start_ns,end_ns,calls` lines in DIR/spans.csv.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>

#include "am/memory.hpp"
#include "chain/block_graph.hpp"
#include "chain/rules.hpp"
#include "crypto/batch.hpp"
#include "exp/montecarlo.hpp"
#include "mp/abd.hpp"
#include "mp/network.hpp"
#include "net/codec.hpp"
#include "net/peer.hpp"
#include "pb_common.hpp"
#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"
#include "storage/file_log.hpp"

namespace {

using namespace amm;
using pb::i64;

/// In-memory span log: name, parent span, start, end, calls covered.
class Tracer {
 public:
  struct Span {
    std::string name;
    i64 parent = -1;
    i64 start = 0, end = 0;
    u64 calls = 0;
  };
  i64 open(const std::string& name) {
    spans_.push_back(Span{name, current_, pb::now_ns(), 0, 0});
    current_ = static_cast<i64>(spans_.size()) - 1;
    return current_;
  }
  void close(i64 id, u64 calls) {
    Span& s = spans_[static_cast<usize>(id)];
    s.end = pb::now_ns();
    s.calls = calls;
    current_ = s.parent;
  }
  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << s.name << ',' << s.parent << ',' << s.start << ',' << s.end << ',' << s.calls << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  i64 current_ = -1;
};

Tracer g_tracer;
pb::JsonObject g_metrics;
volatile u64 g_sink = 0;

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "pb_layers: %s\n", what.c_str());
  std::exit(1);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// `reps` spans named `metric`, each around `batch` calls of `fn` (after
/// `prepare`, which runs outside the span). Records and returns the median
/// ns per call divided by `divisor` (1000 reports microseconds; a call
/// doing several units of work reports per unit).
double metric_timed(const std::string& metric, int reps, u64 batch,
                    const std::function<void()>& fn, const std::function<void()>& prepare = {},
                    double divisor = 1) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    if (prepare) prepare();
    const i64 id = g_tracer.open(metric);
    const i64 t0 = pb::now_ns();
    for (u64 b = 0; b < batch; ++b) fn();
    const i64 t1 = pb::now_ns();
    g_tracer.close(id, batch);
    per_call.push_back(static_cast<double>(t1 - t0) / static_cast<double>(batch));
  }
  const double m = median(per_call) / divisor;
  g_metrics.num(metric, m);
  return m;
}

struct Layer {
  i64 id;
  explicit Layer(const std::string& name) : id(g_tracer.open("layer." + name)) {}
  ~Layer() { g_tracer.close(id, 0); }
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
};

// ---- inputs shaped like the cluster workloads ----

constexpr u32 kAuthors = 3;
constexpr usize kReplyRecords = 768;  // 3 authors x the default compaction lag of 256

std::vector<mp::SignedAppend> make_records(const crypto::KeyRegistry& keys, usize count,
                                           Rng& rng) {
  std::vector<mp::SignedAppend> out;
  std::vector<u32> next_seq(kAuthors, 0);
  for (usize i = 0; i < count; ++i) {
    mp::SignedAppend rec;
    rec.author = NodeId{static_cast<u32>(i % kAuthors)};
    rec.seq = next_seq[rec.author.index]++;
    const i64 magnitude = static_cast<i64>(i) + 1;
    rec.value = rng.bernoulli(0.5) ? magnitude : -magnitude;
    rec.sig = keys.sign(rec.author, rec.digest());
    out.push_back(rec);
  }
  return out;
}

void layer_net(const crypto::KeyRegistry& keys, const std::vector<mp::SignedAppend>& recs) {
  Layer layer("net");
  using Kind = mp::WireMessage::Kind;
  mp::WireMessage append;
  append.kind = Kind::kAppend;
  append.append = recs[0];
  mp::WireMessage ack = append;
  ack.kind = Kind::kAck;
  ack.ack_sig = keys.sign(NodeId{1}, recs[0].digest());
  mp::WireMessage req;
  req.kind = Kind::kReadReq;
  req.read_id = 42;
  for (u32 a = 0; a < kAuthors; ++a) req.frontier.push_back(mp::FrontierEntry{NodeId{a}, 1000});
  mp::WireMessage reply;
  reply.kind = Kind::kReadReply;
  reply.read_id = 42;
  reply.frontier_echo = mp::frontier_digest(req.frontier);
  reply.view.assign(recs.begin(), recs.begin() + kReplyRecords);

  const std::pair<const char*, const mp::WireMessage*> kinds[] = {
      {"append", &append}, {"ack", &ack}, {"read_req", &req}, {"read_reply", &reply}};
  for (const auto& [name, msg] : kinds) {
    const u64 batch = msg->kind == Kind::kReadReply ? 16 : 4096;
    const std::vector<u8> bytes = net::encode_message(*msg);
    metric_timed(std::string("net.codec.encode_") + name + "_ns", 9, batch,
                 [&] { g_sink = g_sink + net::encode_message(*msg).size(); });
    metric_timed(std::string("net.codec.decode_") + name + "_ns", 9, batch, [&] {
      const auto decoded = net::decode_message(bytes);
      g_sink = g_sink + (decoded ? decoded->view.size() + 1 : 0);
    });
  }

  net::CtlReply view_reply;
  view_reply.op = net::CtlOp::kRead;
  view_reply.ok = true;
  view_reply.status = net::CtlStatus::kOk;
  view_reply.view = reply.view;
  metric_timed("net.codec.ctl_view_reply_encode_ns", 9, 16,
               [&] { g_sink = g_sink + net::encode_ctl_reply(view_reply).size(); });

  // A receive buffer holding 1024 framed appends, parsed in place.
  std::vector<u8> rx;
  for (usize i = 0; i < 1024; ++i) {
    mp::WireMessage m = append;
    m.append = recs[i];
    const std::vector<u8> framed = net::encode_framed_message(m);
    rx.insert(rx.end(), framed.begin(), framed.end());
  }
  std::vector<double> per_frame;
  for (int r = 0; r < 9; ++r) {
    const i64 id = g_tracer.open("net.frame.extract_ns");
    const i64 t0 = pb::now_ns();
    usize off = 0, frames = 0;
    for (;;) {
      net::FrameView frame;
      usize consumed = 0;
      if (net::extract_frame_view(std::span<const u8>(rx.data() + off, rx.size() - off), &frame,
                                  &consumed) != net::FrameStatus::kFrame) {
        break;
      }
      off += consumed;
      ++frames;
    }
    const i64 t1 = pb::now_ns();
    g_tracer.close(id, frames);
    per_frame.push_back(static_cast<double>(t1 - t0) / static_cast<double>(frames));
  }
  g_metrics.num("net.frame.extract_ns", median(per_frame));

  // One broadcast to the two peers of a three-node cluster: encode once,
  // share the page, queue it on both sessions.
  net::Session peers[2];
  usize next = 0;
  metric_timed(
      "net.framebuf.broadcast_ns", 9, 1024,
      [&] {
        mp::WireMessage m = append;
        m.append = recs[next++ % recs.size()];
        const net::FrameBuf frame = net::FrameBuf::own(net::encode_framed_message(m));
        for (net::Session& s : peers) s.queue_frame(net::TxClass::kRepl, frame);
      },
      [&] {
        for (net::Session& s : peers) {
          s.tx[static_cast<usize>(net::TxClass::kRepl)].clear();
          s.tx_bytes = 0;
        }
      });
}

void layer_crypto(const crypto::KeyRegistry& keys, const std::vector<mp::SignedAppend>& recs) {
  Layer layer("crypto");
  usize i = 0;
  metric_timed("crypto.sign_ns", 9, 4096, [&] {
    const mp::SignedAppend& r = recs[i++ % recs.size()];
    g_sink = g_sink + keys.sign(r.author, r.digest()).tag;
  });
  metric_timed("crypto.verify_ns", 9, 4096, [&] {
    const mp::SignedAppend& r = recs[i++ % recs.size()];
    g_sink = g_sink + (keys.verify(r.digest(), r.sig) ? 1 : 0);
  });
  crypto::VerifyCache cache(keys);
  for (usize j = 0; j < 1024; ++j) (void)cache.verify(recs[j].digest(), recs[j].sig);
  metric_timed("crypto.verify_cache_hit_ns", 9, 4096, [&] {
    const mp::SignedAppend& r = recs[i++ % 1024];
    g_sink = g_sink + (cache.verify(r.digest(), r.sig) ? 1 : 0);
  });
  // One event-loop cycle's batch of 64 first-seen signatures, no pool
  // (the cluster nodes run with --verify-threads 0); reported per check.
  std::vector<crypto::BatchCheck> checks(64);
  std::unique_ptr<crypto::VerifyCache> fresh;
  usize base = 0;
  metric_timed(
      "crypto.verify_batch_ns", 9, 1,
      [&] { crypto::verify_batch(*fresh, checks, nullptr); },
      [&] {
        fresh = std::make_unique<crypto::VerifyCache>(keys);
        for (usize j = 0; j < checks.size(); ++j) {
          const mp::SignedAppend& r = recs[(base + j) % recs.size()];
          checks[j] = crypto::BatchCheck{r.digest(), r.sig, false};
        }
        base += checks.size();
      },
      static_cast<double>(checks.size()));
}

/// Three AbdNodes over the simulated Network (no sockets).
struct SimCluster {
  crypto::KeyRegistry keys;
  mp::Network net;
  std::vector<std::unique_ptr<mp::MemStorage>> stores;
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  SimCluster(u64 seed, mp::AbdConfig config, bool durable)
      : keys(kAuthors, seed), net(kAuthors, 0.05, 0.5, Rng(seed + 1)) {
    for (u32 i = 0; i < kAuthors; ++i) {
      stores.push_back(std::make_unique<mp::MemStorage>());
      mp::AbdConfig c = config;
      if (durable) c.storage = stores.back().get();
      nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, net, keys, c));
    }
  }
};

void layer_mp(u64 seed, Rng& rng) {
  Layer layer("mp");
  // The `append` workload's node: default config, memory only.
  {
    SimCluster c(seed, mp::AbdConfig{}, false);
    const u64 m0 = c.net.messages_sent(), b0 = c.net.bytes_sent();
    u64 appends = 0;
    i64 value = 1;
    metric_timed("mp.append_quorum_ns", 9, 256, [&] {
      bool done = false;
      c.nodes[appends % kAuthors]->begin_append(value++, [&done] { done = true; });
      c.net.queue().run();
      ++appends;
      if (!done) g_sink = g_sink + 1;
    });
    g_metrics.num("mp.sim.msgs_per_append",
                  static_cast<double>(c.net.messages_sent() - m0) / static_cast<double>(appends));
    g_metrics.num("mp.sim.bytes_per_append",
                  static_cast<double>(c.net.bytes_sent() - b0) / static_cast<double>(appends));
    u64 hits = 0, lookups = 0;
    for (const auto& node : c.nodes) {
      hits += node->verify_cache_hits();
      lookups += node->verify_cache_hits() + node->verify_cache_misses();
    }
    g_metrics.num("crypto.sim.verify_cache_hit_ratio",
                  static_cast<double>(hits) / static_cast<double>(std::max<u64>(lookups, 1)));
  }
  // The `durable_mixed` workload's node: summary compaction over a store,
  // appends from every author with reads beside them.
  mp::AbdConfig summary;
  summary.compact.enabled = true;
  summary.compact.retain_records = false;
  SimCluster c(seed + 2, summary, true);
  i64 value = 1;
  const auto append_from_all = [&](u64 i) {
    const i64 magnitude = value++;
    c.nodes[i % kAuthors]->begin_append(rng.bernoulli(0.5) ? magnitude : -magnitude, [] {});
  };
  // Reads beside appends: one read per eight appends, the network drained
  // every 64 operations, so replies carry the records a reader has missed.
  u64 reads = 0;
  for (u64 i = 0; i < 4096; ++i) {
    append_from_all(i);
    if (i % 8 == 7) {
      c.nodes[(i / 8) % kAuthors]->begin_read([](const std::vector<mp::SignedAppend>&) {});
      ++reads;
    }
    if (i % 64 == 63) c.net.queue().run();
  }
  c.net.queue().run();
  u64 served = 0, sent = 0, fallbacks = 0, live_max = 0, folded = 0;
  for (const auto& node : c.nodes) {
    served += node->stats().reads_served_full + node->stats().reads_served_delta;
    sent += node->stats().read_records_sent;
    fallbacks += node->stats().read_fallbacks;
    live_max = std::max<u64>(live_max, node->live_records());
    folded = std::max<u64>(folded, node->checkpoint().folded_records);
  }
  g_metrics.num("mp.sim.read_records_per_reply",
                static_cast<double>(sent) / static_cast<double>(std::max<u64>(served, 1)));
  g_metrics.num("mp.sim.read_fallback_ratio",
                static_cast<double>(fallbacks) / static_cast<double>(std::max<u64>(reads, 1)));
  // The quorum read alone, on a settled cluster.
  u64 timed_reads = 0;
  metric_timed("mp.read_quorum_ns", 9, 16, [&] {
    c.nodes[timed_reads++ % kAuthors]->begin_read([](const std::vector<mp::SignedAppend>&) {});
    c.net.queue().run();
  });
  g_metrics.num("mp.sim.live_records_max", static_cast<double>(live_max));
  g_metrics.num("mp.sim.records_folded", static_cast<double>(folded));

  metric_timed("mp.write_snapshot_ns", 9, 1, [&] { c.nodes[0]->write_snapshot(); });
  // Restart node 0 in-process from its store, on a fresh network.
  std::vector<std::unique_ptr<mp::Network>> nets;
  std::vector<std::unique_ptr<mp::AbdNode>> restarted;
  metric_timed(
      "mp.recover_from_storage_ns", 9, 1,
      [&] { g_sink = g_sink + restarted.back()->recover_from_storage(); },
      [&] {
        nets.push_back(std::make_unique<mp::Network>(kAuthors, 0.05, 0.5, Rng(seed + 3)));
        mp::AbdConfig cfg = summary;
        cfg.storage = c.stores[0].get();
        restarted.push_back(std::make_unique<mp::AbdNode>(NodeId{0}, *nets.back(), c.keys, cfg));
      });

  // Manual folds: compaction off the hot path, one quantum of history per fold.
  mp::AbdConfig manual = summary;
  manual.compact.auto_interval = 0;
  SimCluster m(seed + 4, manual, false);
  i64 v = 1;
  metric_timed(
      "mp.compact_below_ns", 9, 1,
      [&] { m.nodes[0]->compact_below(m.nodes[0]->stability_cut()); },
      [&] {
        for (usize a = 0; a < 3 * 256; ++a) m.nodes[a % kAuthors]->begin_append(v++, [] {});
        m.net.queue().run();
      });
}

void layer_storage(const crypto::KeyRegistry& keys, const std::vector<mp::SignedAppend>& recs,
                   const std::string& dir) {
  Layer layer("storage");
  const auto open_log = [&](const std::string& name, mp::FsyncPolicy policy) {
    storage::FileLogConfig config;
    config.dir = dir + "/" + name;
    config.fsync = policy;
    auto log = std::make_unique<storage::FileLog>(config);
    if (!log->ok()) die("cannot open a FileLog in " + config.dir + ": " + log->error());
    return log;
  };
  std::unique_ptr<storage::FileLog> logs[2] = {open_log("always", mp::FsyncPolicy::kAlways),
                                               open_log("never", mp::FsyncPolicy::kNever)};
  const char* names[2] = {"always", "never"};
  for (int p = 0; p < 2; ++p) {
    storage::FileLog& log = *logs[p];
    usize i = 0;
    metric_timed(std::string("storage.append_ns.") + names[p], 9, p == 0 ? 32 : 1024,
                 [&] { g_sink = g_sink + (log.append(recs[i++ % recs.size()]) ? 1 : 0); });
  }
  const mp::StorageStats& always = logs[0]->stats();
  g_metrics.num("storage.fsyncs_per_append",
                static_cast<double>(always.fsyncs) / static_cast<double>(always.log_records));
  g_metrics.num("storage.log_bytes_per_append",
                static_cast<double>(always.log_bytes) / static_cast<double>(always.log_records));

  // The disk underneath: one small write plus fdatasync, as FileLog issues it.
  const std::string probe = dir + "/fdatasync.probe";
  const int fd = ::open(probe.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) die("cannot open " + probe);
  const u8 frame[40] = {};
  metric_timed("storage.fdatasync_ns", 9, 32, [&] {
    g_sink = g_sink + static_cast<u64>(::write(fd, frame, sizeof(frame)));
    g_sink = g_sink + static_cast<u64>(::fdatasync(fd));
  });
  ::close(fd);

  // Replay of the never-synced log from a fresh open.
  const u64 records = logs[1]->stats().log_records;
  logs[1].reset();
  std::vector<double> per_record;
  for (int r = 0; r < 5; ++r) {
    const i64 id = g_tracer.open("storage.replay_ns_per_record");
    const i64 t0 = pb::now_ns();
    auto log = open_log("never", mp::FsyncPolicy::kNever);
    const u64 replayed =
        log->replay(0, [](const mp::SignedAppend& rec) { g_sink = g_sink + rec.seq; });
    const i64 t1 = pb::now_ns();
    g_tracer.close(id, replayed);
    per_record.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(std::max<u64>(records, 1)));
  }
  g_metrics.num("storage.replay_ns_per_record", median(per_record));

  // A summary-mode snapshot: three authors' checkpoint plus the live suffix.
  mp::Snapshot snap;
  snap.watermarks.assign(kAuthors, 4096);
  snap.checkpoint.chains.assign(kAuthors, 7);
  snap.live.assign(recs.begin(), recs.begin() + kReplyRecords);
  snap.sig = keys.sign(NodeId{0}, snap.digest());
  auto snaps = open_log("snap", mp::FsyncPolicy::kAlways);
  metric_timed("storage.snapshot_write_ns", 9, 1, [&] {
    ++snap.log_seq;
    g_sink = g_sink + (snaps->write_snapshot(snap) ? 1 : 0);
  });
  snaps.reset();
  metric_timed("storage.snapshot_load_ns", 9, 1, [&] {
    auto log = open_log("snap", mp::FsyncPolicy::kAlways);
    g_sink = g_sink + (log->load_snapshot() ? 1 : 0);
  });
}

// ---- inputs shaped like the montecarlo workload ----

/// A random DAG history of `history` appends by `n` authors, each append
/// referencing up to three of the eight newest blocks (the shape dag_ba
/// produces), timestamps strictly increasing.
am::AppendMemory build_history(u32 n, u32 history, Rng& rng) {
  am::AppendMemory memory(n);
  std::vector<am::MsgId> all;
  for (u32 i = 0; i < history; ++i) {
    std::vector<am::MsgId> refs;
    if (!all.empty()) {
      const u32 want = 1 + static_cast<u32>(rng.uniform_below(3));
      for (u32 r = 0; r < want; ++r) {
        const usize back = rng.uniform_below(std::min<usize>(all.size(), 8));
        const am::MsgId pick = all[all.size() - 1 - back];
        if (std::find(refs.begin(), refs.end(), pick) == refs.end()) refs.push_back(pick);
      }
    }
    all.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(n))}, Vote::kPlus, 0,
                                std::move(refs), static_cast<SimTime>(i + 1)));
  }
  return memory;
}

void layer_chain(Rng& rng) {
  Layer layer("chain");
  constexpr u32 kHistory = 20000;
  const am::AppendMemory memory = build_history(20, kHistory, rng);
  const am::MemoryView full = memory.read();
  const am::MemoryView most = memory.read_at(kHistory * 0.95);
  constexpr double kUs = 1000;

  metric_timed(
      "chain.extend_cold_us", 7, 1,
      [&] { g_sink = g_sink + chain::BlockGraph(full).block_count(); }, {}, kUs);
  std::unique_ptr<chain::BlockGraph> graph;
  metric_timed(
      "chain.extend_warm_us", 7, 1, [&] { graph->extend(full); },
      [&] { graph = std::make_unique<chain::BlockGraph>(most); }, kUs);
  metric_timed(
      "chain.topo_order_cold_us", 7, 1, [&] { g_sink = g_sink + graph->topo_order().size(); },
      [&] { graph = std::make_unique<chain::BlockGraph>(full); }, kUs);
  // Warm: the lazy analytics are built before the first timed call.
  const chain::BlockGraph warm(full);
  g_sink = g_sink + warm.topo_order().size() + warm.subtree_weight(warm.topo_order().front());
  const std::pair<const char*, chain::PivotRule> rules[] = {
      {"ghost", chain::PivotRule::kGhost}, {"longest", chain::PivotRule::kLongestChain}};
  for (const auto& [name, rule] : rules) {
    g_sink = g_sink + chain::select_pivot(warm, rule).size();
    metric_timed(std::string("chain.select_pivot_us.") + name, 7, 4,
                 [&] { g_sink = g_sink + chain::select_pivot(warm, rule).size(); }, {}, kUs);
  }
  metric_timed(
      "chain.linearize_dag_us", 7, 4,
      [&] { g_sink = g_sink + chain::linearize_dag(warm, chain::PivotRule::kGhost).size(); }, {},
      kUs);
  metric_timed("am.read_view_us", 9, 1024, [&] {
    g_sink = g_sink + memory.read_at(static_cast<SimTime>(rng.uniform_below(kHistory))).size();
  }, {}, kUs);
}

proto::DagParams dag_params() {
  proto::DagParams params;
  params.scenario.n = 20;
  params.scenario.t = 6;
  params.k = 1001;
  params.lambda = 0.5;
  params.adversary = proto::DagAdversary::kRateAndWithhold;
  return params;
}

void layer_protocols(u64 seed) {
  Layer layer("protocols");
  constexpr double kUs = 1000;
  const proto::DagParams dag = dag_params();
  proto::ChainParams chain_params;
  chain_params.scenario = dag.scenario;
  chain_params.k = dag.k;
  chain_params.lambda = dag.lambda;
  chain_params.adversary = proto::ChainAdversary::kRushExtend;
  u64 trial = 0;
  metric_timed(
      "protocols.dag_trial_us", 9, 4,
      [&] {
        const Rng rng = Rng::for_stream(seed, trial++);
        g_sink = g_sink + proto::run_dag_continuous(dag, rng).dumped;
      },
      {}, kUs);
  metric_timed(
      "protocols.chain_trial_us", 9, 4,
      [&] {
        const Rng rng = Rng::for_stream(seed, trial++);
        g_sink = g_sink + proto::run_chain_slotted(chain_params, rng).total_appends;
      },
      {}, kUs);

  // The exp pool the montecarlo workload uses: busy time of the trials
  // over the pool's capacity during the batch.
  Layer pool_layer("exp");
  ThreadPool pool(4);
  std::vector<i64> busy(32, 0);
  const i64 t0 = pb::now_ns();
  const i64 id = g_tracer.open("exp.estimate_rate");
  (void)exp::estimate_rate(pool, seed, busy.size(), [&](usize i, Rng& rng) {
    const i64 s = pb::now_ns();
    const bool ok = proto::run_dag_continuous(dag, rng).outcome.terminated;
    busy[i] = pb::now_ns() - s;
    return ok;
  });
  g_tracer.close(id, busy.size());
  const double wall = static_cast<double>(pb::now_ns() - t0);
  double busy_sum = 0;
  for (const i64 b : busy) busy_sum += static_cast<double>(b);
  g_metrics.num("exp.worker_idle_frac", 1.0 - busy_sum / (wall * pool.size()));
}

/// Tracing overhead: the same codec loop with and without a span per batch.
void tracing_overhead(const std::vector<mp::SignedAppend>& recs) {
  mp::WireMessage msg;
  msg.kind = mp::WireMessage::Kind::kAppend;
  constexpr u64 kCalls = 1u << 16;
  constexpr u64 kBatch = 256;
  std::vector<double> ratios;
  for (int r = 0; r < 9; ++r) {
    i64 t0 = pb::now_ns();
    for (u64 i = 0; i < kCalls; ++i) {
      msg.append = recs[i % recs.size()];
      g_sink = g_sink + net::encode_message(msg).size();
    }
    const double plain = static_cast<double>(pb::now_ns() - t0);
    t0 = pb::now_ns();
    for (u64 i = 0; i < kCalls; i += kBatch) {
      const i64 id = g_tracer.open("trace.overhead_probe");
      for (u64 j = i; j < i + kBatch; ++j) {
        msg.append = recs[j % recs.size()];
        g_sink = g_sink + net::encode_message(msg).size();
      }
      g_tracer.close(id, kBatch);
    }
    const double traced = static_cast<double>(pb::now_ns() - t0);
    ratios.push_back(traced / plain - 1.0);
  }
  g_metrics.num("trace.overhead_frac", median(ratios));
}

}  // namespace

int main(int argc, char** argv) {
  u64 seed = 1;
  std::string out_dir;
  tools::OptionSet opts("pb_layers", "per-layer spans around the modules' public calls");
  opts.add_u64("seed", &seed, "record and trial seed");
  opts.add_string("out", &out_dir, "directory for spans.csv and the layer store");
  if (const int rc = pb::parse_options(opts, "pb_layers", argc, argv); rc >= 0) return rc;
  if (out_dir.empty()) {
    std::fprintf(stderr, "pb_layers: --out is required\n");
    return 2;
  }
  const std::string store_dir = out_dir + "/layer_store";
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);

  Rng rng(seed ^ 0x6c61796572ULL);
  const crypto::KeyRegistry keys(kAuthors, seed);
  const std::vector<mp::SignedAppend> recs = make_records(keys, 4096, rng);
  layer_net(keys, recs);
  layer_crypto(keys, recs);
  layer_mp(seed, rng);
  layer_storage(keys, recs, store_dir);
  layer_chain(rng);
  layer_protocols(seed);
  tracing_overhead(recs);

  std::filesystem::remove_all(store_dir, ec);
  if (!g_tracer.write_csv(out_dir + "/spans.csv")) {
    std::fprintf(stderr, "pb_layers: cannot write %s/spans.csv\n", out_dir.c_str());
    return 1;
  }
  std::printf("%s\n", g_metrics.text().c_str());
  return 0;
}
