// pb_load — drives a running amm_node cluster for one measured window over
// at most four ctl connections, from one thread, and writes raw samples.
//
//   pb_load --ports P0,P1,P2 --pids I0,I1,I2 --out DIR --seed S
//           --seconds T --mode append|durable_mixed
//
// Each mode is one workload's fixed load shape (the constants below):
// append: closed loop, kAppendConns connections spread round-robin over
//   the nodes, each keeping kAppendWindow appends in flight (callers that
//   wait for replies).
// durable_mixed: open loop, one append connection per node, each sending
//   on a fixed schedule of kMixedRate/nodes appends per second whatever the
//   replies do (independent users), plus one closed-loop connection to node
//   kQueryNode alternating `read` and `decide kDecideK`, one at a time and
//   at most kQueryRate per second, so the query load does not depend on
//   how fast the cluster answers. Append latency is due time to reply, so
//   a stall is charged to every request it delays; sent-minus-due is the
//   generator's lateness.
// Both load the cluster for kWarmupS seconds before the measured window.
//
// Every append value is unique: sign * (1 + n) for the n-th append, the
// sign drawn from the seed. Files written to DIR:
//   appends.bin  int64 x5 per append: node, due, sent, done (ns from the
//                window start; done = -1 when no ok reply came back), value
//   queries.bin  int64 x4 per query: kind (1 read, 2 decide), start, done, ok
//   summary.json window length, /proc stat lines of the host and of every
//                process, ctl stats of every node at the window's edges,
//                and the first error
// The exit code is 0 when the window ran; failed operations are counted
// in the files, not in the exit code.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <deque>
#include <optional>

#include "net/codec.hpp"
#include "pb_common.hpp"
#include "support/rng.hpp"

namespace {

using namespace amm;
using pb::i64;

constexpr i64 kNs = 1'000'000'000;
constexpr i64 kDrainLimitNs = 60 * kNs;
constexpr double kWarmupS = 1.0;         ///< load before the window, not counted
constexpr usize kAppendConns = 4;        ///< append: ctl connections
constexpr usize kAppendWindow = 4;       ///< append: appends in flight on each
constexpr double kMixedRate = 600;       ///< durable_mixed: appends/s over all nodes
constexpr double kQueryRate = 200;       ///< durable_mixed: cap on reads plus decides per second
constexpr u32 kQueryNode = 0;            ///< durable_mixed: node the queries go to
constexpr u32 kDecideK = 2'000'000'000;  ///< above any run's append total: never below a fold

struct Conn {
  int fd = -1;
  u32 node = 0;
  bool query = false;
  std::vector<u8> rx;
  std::vector<u8> tx;
  usize tx_off = 0;
  std::deque<usize> inflight;  ///< append indices awaiting replies, FIFO
  i64 next_due = 0;            ///< open loop: next scheduled send
  i64 period = 0;              ///< open loop: ns between sends
  bool query_busy = false;
  int query_kind = 2;          ///< the last query sent (1 read, 2 decide)
  i64 query_start = 0;
};

struct Append {
  i64 node = 0, due = 0, sent = 0, done = -1, value = 0;
};

int dial(u16 port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : list + ",") {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  return out;
}

void queue_request(Conn& conn, const net::CtlRequest& req) {
  net::append_frame(conn.tx, net::FrameKind::kCtlReq, net::encode_ctl_request(req));
}

bool flush(Conn& conn) {
  while (conn.tx_off < conn.tx.size()) {
    const ssize_t n = ::send(conn.fd, conn.tx.data() + conn.tx_off, conn.tx.size() - conn.tx_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn.tx_off += static_cast<usize>(n);
  }
  conn.tx.clear();
  conn.tx_off = 0;
  return true;
}

std::string stats_json(const mp::NodeStats& stats) {
  pb::JsonObject obj;
  for (const mp::NodeStatsField& field : mp::kNodeStatsFields) {
    obj.integer(field.name, static_cast<i64>(stats.*field.member));
  }
  return obj.text();
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::string port_list, pid_list, out_dir;
  std::string mode = "append";
  u64 seed = 1;
  double seconds = 10;
  tools::OptionSet opts("pb_load", "drive an amm_node cluster for one measured window");
  opts.add_string("ports", &port_list, "comma-separated ctl ports, one per node");
  opts.add_string("pids", &pid_list, "comma-separated node pids, in --ports order");
  opts.add_string("out", &out_dir, "directory for appends.bin, queries.bin, summary.json");
  opts.add_u64("seed", &seed, "seed of the append values' signs");
  opts.add_double("seconds", &seconds, "length of the measured window");
  opts.add_enum("mode", &mode, {"append", "durable_mixed"}, "load shape (see the file comment)");
  if (const int rc = pb::parse_options(opts, "pb_load", argc, argv); rc >= 0) return rc;
  const std::vector<std::string> ports = split(port_list);
  const std::vector<std::string> pids = split(pid_list);
  const bool mixed = mode == "durable_mixed";
  std::vector<u16> port_numbers;
  for (const std::string& p : ports) {
    const unsigned long v = std::strtoul(p.c_str(), nullptr, 10);
    if (v > 0 && v <= 0xffff) port_numbers.push_back(static_cast<u16>(v));
  }
  if (ports.empty() || port_numbers.size() != ports.size() || pids.size() != ports.size() ||
      out_dir.empty() || seconds <= 0 || (mixed && kQueryNode >= ports.size())) {
    std::fprintf(stderr,
                 "pb_load: need --ports and --pids of equal length, --out, and --seconds > 0\n");
    return 2;
  }
  const u32 nodes = static_cast<u32>(ports.size());

  // Connection plan: append = kAppendConns round-robin appenders;
  // durable_mixed = one appender per node, then the query connection (so
  // nodes + 1 <= 4). With at most four nodes, connection i < nodes goes to
  // node i either way and also carries that node's ctl stats requests.
  std::vector<Conn> conns(mixed ? nodes + 1 : kAppendConns);
  if (conns.size() > 4 || nodes > 4) {
    std::fprintf(stderr, "pb_load: %u nodes need more than the four ctl connections allowed\n",
                 nodes);
    return 2;
  }
  for (usize i = 0; i < conns.size(); ++i) {
    Conn& conn = conns[i];
    conn.query = mixed && i == nodes;
    conn.node = conn.query ? kQueryNode : static_cast<u32>(i % nodes);
    conn.fd = dial(port_numbers[conn.node]);
    if (conn.fd < 0) {
      std::fprintf(stderr, "pb_load: cannot connect to node %u\n", conn.node);
      return 1;
    }
  }

  Rng rng(seed ^ 0x70626c6f6164ULL);
  std::vector<Append> appends;
  appends.reserve(1u << 20);
  std::vector<i64> queries;
  i64 next_value = 1;
  std::string error;

  const i64 start = pb::now_ns();
  const i64 w0 = start + static_cast<i64>(kWarmupS * kNs);  // window start
  const i64 w1 = w0 + static_cast<i64>(seconds * kNs);     // window end
  if (mixed) {
    const i64 period = static_cast<i64>(static_cast<double>(nodes) * kNs / kMixedRate);
    for (u32 i = 0; i < nodes; ++i) {
      conns[i].period = period;
      conns[i].next_due = start + period * i / nodes;  // staggered phases
    }
    conns[nodes].period = static_cast<i64>(kNs / kQueryRate);
    conns[nodes].next_due = start;
  }

  // Edge snapshots: [0] at the window start, [1] at its end.
  // proc_lines[e][i]: node i's /proc stat line, the client's last.
  std::vector<std::string> proc_lines[2] = {std::vector<std::string>(nodes + 1),
                                            std::vector<std::string>(nodes + 1)};
  std::string host_lines[2];
  std::vector<std::optional<mp::NodeStats>> node_stats[2] = {
      std::vector<std::optional<mp::NodeStats>>(nodes),
      std::vector<std::optional<mp::NodeStats>>(nodes)};
  int edge = -1;  // last edge taken
  std::vector<pollfd> pfds(conns.size());
  u8 chunk[65536];

  const auto take_edge = [&](int which) {
    edge = which;
    for (u32 i = 0; i < nodes; ++i) proc_lines[which][i] = pb::proc_stat_line(pids[i]);
    proc_lines[which][nodes] = pb::proc_stat_line("self");
    host_lines[which] = pb::host_cpu_line();
    for (u32 i = 0; i < nodes; ++i) {
      net::CtlRequest req;
      req.op = net::CtlOp::kStats;
      queue_request(conns[i], req);
    }
  };
  const auto send_append = [&](Conn& conn, i64 due, i64 now) {
    net::CtlRequest req;
    req.op = net::CtlOp::kAppend;
    const i64 magnitude = next_value++;
    req.value = rng.bernoulli(0.5) ? magnitude : -magnitude;
    queue_request(conn, req);
    conn.inflight.push_back(appends.size());
    appends.push_back(Append{conn.node, due - w0, now - w0, -1, req.value});
  };

  for (;;) {
    i64 now = pb::now_ns();
    if (edge < 0 && now >= w0) take_edge(0);
    if (edge < 1 && now >= w1) take_edge(1);
    const bool sending = now < w1;
    bool idle = !sending;
    for (Conn& conn : conns) {
      if (conn.query) {
        if (sending && !conn.query_busy && conn.next_due <= now) {
          conn.next_due = std::max(conn.next_due + conn.period, now);
          net::CtlRequest req;
          conn.query_kind = conn.query_kind == 1 ? 2 : 1;
          req.op = conn.query_kind == 1 ? net::CtlOp::kRead : net::CtlOp::kDecide;
          req.k = kDecideK;
          queue_request(conn, req);
          conn.query_busy = true;
          conn.query_start = now;
        }
        idle = idle && !conn.query_busy;
      } else if (mixed) {
        while (sending && conn.next_due <= now) {
          send_append(conn, conn.next_due, now);
          conn.next_due += conn.period;
        }
      } else {
        while (sending && conn.inflight.size() < kAppendWindow) send_append(conn, now, now);
      }
      idle = idle && conn.inflight.empty();
      if (!flush(conn)) {
        error = "send failed on node " + std::to_string(conn.node);
        break;
      }
    }
    const bool stats_done = [&] {
      for (u32 i = 0; i < nodes; ++i) {
        if (!node_stats[1][i]) return false;
      }
      return true;
    }();
    if (!error.empty() || (idle && stats_done)) break;
    if (now - w1 > kDrainLimitNs) {
      error = "operations still outstanding 60 s after the window";
      break;
    }

    // Sleep until the next due send, window edge or reply.
    i64 wait = 50'000'000;
    if (edge < 0) wait = std::min(wait, w0 - now);
    if (edge < 1) wait = std::min(wait, w1 - now);
    if (mixed && sending) {
      for (const Conn& conn : conns) {
        if (!conn.query || !conn.query_busy) wait = std::min(wait, conn.next_due - now);
      }
    }
    wait = std::max<i64>(wait, 0);
    for (usize i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].fd;
      pfds[i].events = static_cast<short>(POLLIN | (conns[i].tx.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait / kNs), static_cast<long>(wait % kNs)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      error = "ppoll failed";
      break;
    }
    now = pb::now_ns();
    for (usize i = 0; i < conns.size() && error.empty(); ++i) {
      Conn& conn = conns[i];
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n > 0) {
          conn.rx.insert(conn.rx.end(), chunk, chunk + n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          error = "node " + std::to_string(conn.node) + " closed its ctl connection";
        }
        break;
      }
      usize off = 0;
      for (;;) {
        net::FrameView frame;
        usize consumed = 0;
        const auto status = net::extract_frame_view(
            std::span<const u8>(conn.rx.data() + off, conn.rx.size() - off), &frame, &consumed);
        if (status == net::FrameStatus::kNeedMore) break;
        off += consumed;
        const bool reply_frame =
            status == net::FrameStatus::kFrame && frame.kind == net::FrameKind::kCtlRep;
        const auto reply = reply_frame ? net::decode_ctl_reply(frame.payload) : std::nullopt;
        if (!reply) {
          error = "corrupt reply from node " + std::to_string(conn.node);
          break;
        }
        switch (reply->op) {
          case net::CtlOp::kAppend:
            if (conn.inflight.empty()) {
              error = "unexpected append reply";
              break;
            }
            if (reply->ok) appends[conn.inflight.front()].done = now - w0;
            conn.inflight.pop_front();
            break;
          case net::CtlOp::kRead:
          case net::CtlOp::kDecide:
            queries.insert(queries.end(), {reply->op == net::CtlOp::kRead ? i64{1} : i64{2},
                                           conn.query_start - w0, now - w0, reply->ok ? 1 : 0});
            conn.query_busy = false;
            break;
          case net::CtlOp::kStats: {
            const int slot = node_stats[0][conn.node] ? 1 : 0;
            node_stats[slot][conn.node] = reply->stats;
            break;
          }
          case net::CtlOp::kKick:
            error = "unexpected kick reply";
            break;
        }
        if (!error.empty()) break;
      }
      conn.rx.erase(conn.rx.begin(), conn.rx.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }
  for (Conn& conn : conns) ::close(conn.fd);

  std::vector<i64> rows;
  rows.reserve(appends.size() * 5);
  for (const Append& a : appends) {
    rows.insert(rows.end(), {a.node, a.due, a.sent, a.done, a.value});
  }
  bool wrote = pb::write_i64s(out_dir + "/appends.bin", rows) &&
               pb::write_i64s(out_dir + "/queries.bin", queries);

  pb::JsonObject summary;
  summary.integer("window_ns", w1 - w0).integer("nodes", nodes).str("error", error);
  summary.raw("host", pb::json_string_list({host_lines[0], host_lines[1]}));
  for (int e = 0; e < 2; ++e) {
    std::string stats = "[";
    for (u32 i = 0; i < nodes; ++i) {
      if (i > 0) stats += ',';
      stats += node_stats[e][i] ? stats_json(*node_stats[e][i]) : "null";
    }
    stats += ']';
    summary.raw(e == 0 ? "proc_start" : "proc_end", pb::json_string_list(proc_lines[e]));
    summary.raw(e == 0 ? "stats_start" : "stats_end", stats);
  }
  std::ofstream out(out_dir + "/summary.json");
  out << summary.text() << "\n";
  wrote = wrote && static_cast<bool>(out);
  if (!wrote) {
    std::fprintf(stderr, "pb_load: cannot write results to %s\n", out_dir.c_str());
    return 1;
  }
  if (!error.empty()) std::fprintf(stderr, "pb_load: %s\n", error.c_str());
  return 0;
}
