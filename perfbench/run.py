#!/usr/bin/env python3
"""The repository's benchmark: one command per workload, checked outputs,
every metric by name with its unit.

    python3 perfbench/run.py --workload append|durable_mixed|montecarlo
                             --seed N --seconds S --trace 0|1
                             [--base-port P] [--keep]

Run from the repository root. The first run builds the repository
(Release, via its own CMakeLists.txt) and the benchmark's C++ tools into
.bench_build/; later runs rebuild only what changed. Each run works in a
fresh directory under .bench_run/ and removes it at the end (--keep keeps
it). The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer metrics, measured by pb_layers after the
same workload run. Lines before it describe the run, including the
workload-specific figures that are not metrics of every workload (see
perfbench/README.md). The exit code is 0 only when a result was printed.
"""
import argparse
import array
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import pbstats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
NODES = 3
SETUP_REPS = 31           # cluster set-ups per run; setup_s is their median
RESTART_APPENDS = 500     # per surviving node while node 2 is down
PROBE_BASE = 9 * 10**15   # value ranges: readiness probes and restart appends
RESTART_BASE = 8 * 10**15
SLICE_NS = 2 * 10**9      # shortest slice of the sliced p99 (pbstats)
TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ----------------------------------------------------------------

def run_logged(cmd, logfile):
    with open(logfile, "a") as out:
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            with open(logfile) as f:
                tail = f.read()[-4000:]
            raise BenchError("command failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    """Release build of the repository, then of the benchmark's tools."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository sources next to perfbench/ (need CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    amm = os.path.join(BUILD, "amm")
    tools = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(amm, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", amm, "-DCMAKE_BUILD_TYPE=Release",
                    "-DAMM_BUILD_TESTS=OFF", "-DAMM_BUILD_BENCH=OFF",
                    "-DAMM_BUILD_EXAMPLES=OFF"], logfile)
    run_logged(["cmake", "--build", amm, "-j", jobs], logfile)
    if not os.path.isfile(os.path.join(tools, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", tools, "-DCMAKE_BUILD_TYPE=Release",
                    "-DAMM_ROOT=" + ROOT, "-DAMM_BUILD_DIR=" + amm], logfile)
    run_logged(["cmake", "--build", tools, "-j", jobs], logfile)
    return {"node": os.path.join(amm, "tools", "amm_node"),
            "ctl": os.path.join(amm, "tools", "amm_ctl"),
            "load": os.path.join(tools, "pb_load"),
            "layers": os.path.join(tools, "pb_layers"),
            "montecarlo": os.path.join(tools, "pb_montecarlo")}


# ---- processes --------------------------------------------------------------

class Procs:
    """Every child process of the run, so each is stopped and reaped."""

    def __init__(self):
        self.live = []

    def spawn(self, cmd, **kw):
        p = subprocess.Popen(cmd, **kw)
        self.live.append(p)
        return p

    def stop(self, p, sig=signal.SIGTERM):
        if p.poll() is None:
            p.send_signal(sig)
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if p.stdout:
            p.stdout.close()
        if p in self.live:
            self.live.remove(p)

    def stop_all(self):
        for p in list(self.live):
            self.stop(p, signal.SIGKILL)


def wait_line(proc, needle, deadline):
    """Reads the child's stdout until a line containing `needle`."""
    buf = getattr(proc, "_pb_buf", b"")
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            if needle in line.decode(errors="replace"):
                proc._pb_buf = buf
                return
        left = deadline - time.monotonic()
        if left <= 0 or proc.poll() is not None:
            raise BenchError("process %s never printed %r" % (proc.args[0], needle))
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk and proc.poll() is not None:
                raise BenchError("process %s exited before printing %r" % (proc.args[0], needle))
            buf += chunk


def free_base_port(rng):
    """Three consecutive loopback ports that are free right now, below the
    kernel's ephemeral range so no outgoing connection takes one later."""
    for _ in range(200):
        base = rng.randrange(20000, 32000)
        socks = []
        try:
            for i in range(NODES):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                socks.append(s)
                s.bind(("127.0.0.1", base + i))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise BenchError("no three free consecutive ports")


class Cluster:
    """Three amm_node processes on loopback, driven through amm_ctl."""

    def __init__(self, ctx, base_port, node_flags, store_root, node_seed):
        self.ctx, self.base, self.flags, self.store_root = ctx, base_port, node_flags, store_root
        self.node_seed = node_seed
        self.procs = [None] * NODES

    def port(self, i):
        return self.base + i

    def node_cmd(self, i):
        cmd = [self.ctx.bins["node"], "--id", str(i), "--n", str(NODES),
               "--seed", str(self.node_seed), "--host", "127.0.0.1",
               "--base-port", str(self.base), "--verify-threads", "0"] + self.flags
        if self.store_root:
            cmd += ["--store-dir", os.path.join(self.store_root, "node%d" % i)]
        return cmd

    def start(self):
        for i in range(NODES):
            self.procs[i] = self.ctx.procs.spawn(self.node_cmd(i), stdout=subprocess.PIPE,
                                                 stderr=subprocess.DEVNULL)
        for p in self.procs:
            wait_line(p, "listening", time.monotonic() + 20)

    def pids(self):
        return [p.pid for p in self.procs]

    def stop(self):
        for p in self.procs:
            if p is not None:
                self.ctx.procs.stop(p)

    def ctl(self, i, *args, timeout=120):
        r = subprocess.run([self.ctx.bins["ctl"], "--port", str(self.port(i))] + list(args),
                           capture_output=True, text=True, timeout=timeout)
        return r.returncode, r.stdout

    def ctl_many(self, calls, timeout=120):
        """Runs (node, args) amm_ctl calls concurrently; [(rc, stdout)]."""
        ps = [self.ctx.procs.spawn([self.ctx.bins["ctl"], "--port", str(self.port(i))] + args,
                                   stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
              for i, args in calls]
        out = []
        for p in ps:
            try:
                data, _ = p.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.ctx.procs.stop(p, signal.SIGKILL)
                raise BenchError("amm_ctl timed out")
            out.append((p.returncode, data.decode()))
            self.ctx.procs.live.remove(p)
        return out

    def stats(self, i):
        rc, out = self.ctl(i, "--op", "stats")
        if rc != 0:
            raise BenchError("stats failed on node %d" % i)
        return dict((k, int(v)) for k, v in (f.split("=") for f in out.split()[1:]))

    def read(self, i):
        """A quorum read through node i as (authors, seqs, values) arrays,
        parsed while amm_ctl prints it; None when the read failed."""
        p = self.ctx.procs.spawn([self.ctx.bins["ctl"], "--port", str(self.port(i)),
                                  "--op", "read"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        authors, seqs, values = array.array("q"), array.array("q"), array.array("q")
        for line in p.stdout:
            if line.startswith(b"record "):
                _, a, s, v = line.split()
                authors.append(int(a[7:]))
                seqs.append(int(s[4:]))
                values.append(int(v[6:]))
        rc = p.wait(timeout=120)
        self.ctx.procs.stop(p)
        return (authors, seqs, values) if rc == 0 else None

    def decide(self, i, k):
        rc, out = self.ctl(i, "--op", "decide", "--k", str(k))
        if rc != 0:
            return None
        sign, over = out.split()
        return int(sign.split("=")[1]), int(over.split("=")[1])


class Context:
    def __init__(self, args, bins, run_dir):
        self.seed = args.seed
        self.seconds = args.seconds
        self.bins = bins
        self.run_dir = run_dir
        self.procs = Procs()
        self.port_rng = random.Random()
        self.fixed_port = args.base_port
        self.notes = []  # human-readable lines printed before the result

    def base_port(self):
        return self.fixed_port or free_base_port(self.port_rng)

    def note(self, name, value, unit, extra=""):
        shown = "%14.6g" % value if value is not None else "%14s" % "n/a"
        self.notes.append("%-34s %s %-6s %s" % (name, shown, unit, extra))


# ---- cluster workloads ------------------------------------------------------

def set_up_cluster(ctx, flags, durable, rep):
    """Spawns a cluster and waits until an append through every node has
    reached a quorum. Returns (cluster, seconds, probe values by node).
    The node seed also seeds the peer-redial jitter that most of a set-up
    waits on. Rep r has node seed r + 1 whatever the workload seed, so the
    median over reps is not one jitter draw, and every run waits on the same
    draws: setup_s then differs between runs by the program's work, not by
    jitter luck."""
    store = os.path.join(ctx.run_dir, "store%d" % rep) if durable else None
    for attempt in range(5):
        cluster = Cluster(ctx, ctx.base_port(), flags, store, rep + 1)
        t0 = time.monotonic()
        try:
            cluster.start()
            break
        except BenchError:
            cluster.stop()  # a port was taken between the probe and the bind
            if store:
                shutil.rmtree(store, ignore_errors=True)
            if attempt == 4 or ctx.fixed_port:
                raise
    probes = {i: PROBE_BASE + rep * NODES + i for i in range(NODES)}
    results = cluster.ctl_many([(i, ["--op", "append", "--value", str(probes[i])])
                                for i in range(NODES)])
    elapsed = time.monotonic() - t0
    if any(rc != 0 for rc, _ in results):
        raise BenchError("a readiness append did not complete")
    return cluster, elapsed, probes


def setup_reps(ctx, flags, durable):
    """SETUP_REPS set-ups; all but the last cluster are torn down."""
    times = []
    for rep in range(SETUP_REPS):
        cluster, elapsed, probes = set_up_cluster(ctx, flags, durable, rep)
        times.append(elapsed)
        if rep < SETUP_REPS - 1:
            cluster.stop()
            if durable:
                shutil.rmtree(os.path.join(ctx.run_dir, "store%d" % rep), ignore_errors=True)
    return cluster, statistics.median(times), probes


def run_load(ctx, cluster, mode):
    """pb_load in `mode`, the workload's name; pb_load fixes its load shape."""
    out = os.path.join(ctx.run_dir, "load")
    os.makedirs(out, exist_ok=True)
    cmd = [ctx.bins["load"], "--ports", ",".join(str(cluster.port(i)) for i in range(NODES)),
           "--pids", ",".join(str(p) for p in cluster.pids()), "--out", out,
           "--seed", str(ctx.seed), "--seconds", str(ctx.seconds), "--mode", mode]
    p = ctx.procs.spawn(cmd)
    try:
        rc = p.wait(timeout=ctx.seconds + 120)
    except subprocess.TimeoutExpired:
        raise BenchError("pb_load did not finish")
    finally:
        ctx.procs.stop(p, signal.SIGKILL)
    if rc != 0:
        raise BenchError("pb_load exited with %d" % rc)
    with open(os.path.join(out, "summary.json")) as f:
        summary = json.load(f)
    if summary["error"]:
        raise BenchError("pb_load: " + summary["error"])
    appends = pbstats.read_rows(os.path.join(out, "appends.bin"), 5)
    queries = pbstats.read_rows(os.path.join(out, "queries.bin"), 4)
    return summary, appends, queries


def p50_p99(ctx, label, times, values, window):
    """Whole-window p50 and sliced p99 of one latency sample, noted with
    their sample counts; a p99 without enough samples (or past a failure)
    is None. Slices are at least SLICE_NS long and long enough for ~2000
    samples each; if one still falls short, the whole window is one slice."""
    p50 = pbstats.summarize(values)["p50"]
    slice_ns = max(SLICE_NS, window * 2000 // max(len(values), 1))
    p99, slices, smallest = pbstats.sliced_percentile(times, values, window, slice_ns, 99)
    if p99 is None:
        p99, slices, smallest = pbstats.sliced_percentile(times, values, window, window, 99)
    ctx.note(label + " samples", len(values), "count",
             "(p99: median of %d slices of >= %d)" % (slices, smallest))
    if p50 is None or not math.isfinite(p50):
        raise BenchError("%s: too few samples or too many failures for a p50" % label)
    return p50, p99 if p99 is not None and math.isfinite(p99) else None


def load_metrics(ctx, summary, appends, queries, open_loop):
    """The window's figures by metric name, plus notes on what the node
    counters and /proc describe."""
    _, due, sent, done, _ = appends
    window = summary["window_ns"]
    lat = pbstats.open_loop_latencies_us(due, done, window)
    p50, p99 = p50_p99(ctx, "append latency", [d for d in due if 0 <= d < window], lat, window)
    rate = pbstats.completed_rate(done, window)
    completed = rate * window / pbstats.NS
    proc0, proc1 = summary["proc_start"], summary["proc_end"]
    node_busy = [pbstats.cpu_busy_frac(proc0[i], proc1[i], window, TICKS) for i in range(NODES)]
    node_cpu_s = sum(b * window / pbstats.NS for b in node_busy)
    metrics = {
        "cpu_us_per_op": node_cpu_s * 1e6 / max(completed, 1),
        "client.op_p50_us": p50,
        "client.ops_per_s": rate,
        "client.op_p99_us": p99,
        "client.cpu_busy_frac": pbstats.cpu_busy_frac(proc0[NODES], proc1[NODES], window, TICKS),
        "host.steal_frac": pbstats.host_steal_frac(*summary["host"]),
    }
    for i, b in enumerate(node_busy):
        ctx.note("node.cpu_busy_frac.%d" % i, b, "cores")
    if open_loop:
        late = pbstats.summarize(pbstats.lateness_us(due, sent, window))
        ctx.note("client.gen_late_p50_us", late["p50"], "us", "n=%d" % late["n"])
        ctx.note("client.gen_late_p99_us", late["p99"], "us", "n=%d" % late["n"])
        kind, start, qdone, _ = queries
        for k, name in ((1, "read"), (2, "decide")):
            q = pbstats.summarize([(e - s) / 1000.0 for kk, s, e in zip(kind, start, qdone)
                                   if kk == k and 0 <= s < window])
            ctx.note("%s_p50_us" % name, q["p50"], "us", "n=%d" % q["n"])
            ctx.note("%s_p99_us" % name, q["p99"], "us", "n=%d" % q["n"])
    # Node counter deltas over the window, as ratios with their base.
    s0, s1 = summary["stats_start"], summary["stats_end"]
    delta = {k: sum(s1[i][k] - s0[i][k] for i in range(NODES)) for k in s0[0]}
    ctx.note("wire_bytes_per_append", delta["bytes"] / max(completed, 1), "B",
             "(%d B / %d appends)" % (delta["bytes"], completed))
    ctx.note("wire_msgs_per_append", delta["msgs"] / max(completed, 1), "count")
    lookups = delta["verify_cache_hits"] + delta["verify_cache_misses"]
    ctx.note("verify_cache_hit_ratio", delta["verify_cache_hits"] / max(lookups, 1), "ratio",
             "(of %d lookups)" % lookups)
    served = delta["reads_full"] + delta["reads_delta"]
    ctx.note("read_records_per_reply", delta["read_records_sent"] / max(served, 1), "count",
             "(over %d replies)" % served)
    reads = sum(1 for k, s in zip(queries[0], queries[1]) if k == 1 and 0 <= s < window)
    ctx.note("read_fallbacks_per_read", delta["read_fallbacks"] / max(reads, 1), "ratio",
             "(over %d reads)" % reads)
    ctx.note("live_records_max", max(s["live_records"] for s in s1), "count")
    ctx.note("records_folded_max", max(s["records_folded"] for s in s1), "count")
    ctx.note("node_rss_kb", max(s["rss_kb"] for s in s1), "KiB", "(max over nodes)")
    return metrics


class Checker:
    """Outside-in correctness checks; each failure is recorded, not raised."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
            log("check failed: " + what)
        return ok

    def views(self, cluster, nodes, acked, sent_values, summary_mode):
        """Every acked value is in a quorum read of every node in `nodes`,
        or below the fold that node reports."""
        author_of = {v: n for n, v in acked}
        for i in nodes:
            view = cluster.read(i)
            if not self.expect(view is not None, "quorum read through node %d" % i):
                continue
            authors, seqs, values = view
            folded = cluster.stats(i)["records_folded"]
            folded_below = folded // NODES
            held = set(values)
            self.expect(len(held) == len(values), "node %d: duplicate values" % i)
            self.expect(len(set(zip(authors, seqs))) == len(values),
                        "node %d: duplicate (author, seq)" % i)
            self.expect(held <= sent_values, "node %d: unknown values" % i)
            self.expect(all(author_of.get(v, a) == a for a, v in zip(authors, values)),
                        "node %d: a value under the wrong author" % i)
            for a in range(NODES):
                missing = sum(1 for n, v in acked if n == a and v not in held)
                self.expect(missing <= folded_below,
                            "node %d: %d acked values of author %d missing, fold %d"
                            % (i, missing, a, folded_below))
            if folded_below:
                self.expect(min(seqs, default=folded_below) >= folded_below,
                            "node %d: body below its fold" % i)
            if summary_mode:
                self.expect(folded + len(values) >= len(acked),
                            "node %d: folded %d + live %d < acked %d"
                            % (i, folded, len(values), len(acked)))

    def decisions(self, cluster, nodes, acked):
        """Algorithm 6 over every acked value: all nodes agree, over all
        of them, on the sign of their vote sum."""
        k = len(acked)
        votes = sum(1 if v >= 0 else -1 for _, v in acked)
        expected = 1 if votes >= 0 else -1
        for i in nodes:
            d = cluster.decide(i, k)
            if self.expect(d is not None, "decide through node %d" % i):
                self.expect(d == (expected, k), "node %d decided %r, expected %r"
                            % (i, d, (expected, k)))


def cluster_workload(ctx, flags, durable):
    cluster, setup_s, probes = setup_reps(ctx, flags, durable)
    summary, appends, queries = run_load(ctx, cluster, "durable_mixed" if durable else "append")
    # durable_mixed is the open-loop workload (see pb_load.cpp).
    metrics = load_metrics(ctx, summary, appends, queries, open_loop=durable)
    metrics["setup_s"] = setup_s
    node, _, _, done, value = appends
    acked = list(probes.items()) + [(n, v) for n, e, v in zip(node, done, value)
                                    if e != pbstats.FAILED]
    # An append without a reply may still have reached the nodes.
    sent_values = set(value) | set(probes.values())
    attempted = len(done) + len(queries[0])
    failed = len(done) + len(probes) - len(acked) + sum(1 for ok in queries[3] if ok != 1)
    check = Checker()
    if durable:
        restart = restart_node2(ctx, cluster, check)
        attempted += restart["attempted"]
        failed += restart["failed"]
        acked += restart["acked"]
        sent_values |= {v for _, v in restart["acked"]}
    check.views(cluster, range(NODES), acked, sent_values, summary_mode=durable)
    check.decisions(cluster, range(NODES), acked)
    cluster.stop()
    return metrics, attempted, failed, check.failures


def restart_node2(ctx, cluster, check):
    """SIGKILL node 2, append through nodes 0 and 1, restart node 2 from its
    store and time its recovery; its quorum read is checked later with the
    others."""
    ctx.procs.stop(cluster.procs[2], signal.SIGKILL)
    bases = {i: RESTART_BASE + i * RESTART_APPENDS for i in (0, 1)}
    results = cluster.ctl_many([(i, ["--op", "append", "--value", str(bases[i]),
                                     "--count", str(RESTART_APPENDS), "--window", "4"])
                                for i in (0, 1)])
    acked, failed = [], 0
    for (rc, _), i in zip(results, (0, 1)):
        if rc == 0:
            acked += [(i, bases[i] + j) for j in range(RESTART_APPENDS)]
        else:
            failed += RESTART_APPENDS
    before = sum(cluster.stats(i)["bytes"] for i in (0, 1))
    t0 = time.monotonic()
    cluster.procs[2] = ctx.procs.spawn(cluster.node_cmd(2), stdout=subprocess.PIPE,
                                       stderr=subprocess.DEVNULL)
    wait_line(cluster.procs[2], "recovered", time.monotonic() + 30)
    local_s = time.monotonic() - t0
    first_read = cluster.read(2)
    first_read_s = time.monotonic() - t0
    check.expect(first_read is not None, "first quorum read through the restarted node")
    fetch = sum(cluster.stats(i)["bytes"] for i in (0, 1)) - before
    ctx.note("restart_fetch_bytes", fetch, "B", "(sent by nodes 0 and 1)")
    ctx.note("recovery.local_s", local_s, "s", "(spawn to local replay done)")
    ctx.note("recovery.first_read_s", first_read_s, "s", "(spawn to first quorum read)")
    return {"attempted": 2 * RESTART_APPENDS + 1, "failed": failed + (first_read is None),
            "acked": acked}


def workload_append(ctx):
    return cluster_workload(ctx, ["--compact", "off"], durable=False)


def workload_durable_mixed(ctx):
    return cluster_workload(ctx, ["--compact", "summary", "--fsync", "always"], durable=True)


# ---- montecarlo -------------------------------------------------------------

def workload_montecarlo(ctx):
    out = os.path.join(ctx.run_dir, "mc")
    os.makedirs(out, exist_ok=True)
    p = ctx.procs.spawn([ctx.bins["montecarlo"], "--seed", str(ctx.seed),
                         "--seconds", str(ctx.seconds), "--out", out])
    try:
        rc = p.wait(timeout=ctx.seconds + 120)
    except subprocess.TimeoutExpired:
        raise BenchError("pb_montecarlo did not finish")
    finally:
        ctx.procs.stop(p, signal.SIGKILL)
    if rc != 0:
        raise BenchError("pb_montecarlo exited with %d" % rc)
    with open(os.path.join(out, "summary.json")) as f:
        s = json.load(f)
    config, start, _, cpu = pbstats.read_rows(os.path.join(out, "trials.bin"), 4)
    window = s["window_ns"]
    names = s["configs"]
    fast = {names.index("dag_fast_t2"), names.index("dag_fast_t6")}
    # A trial's latency is its service time (its thread's CPU clock), so
    # host preemption and steal do not enter it.
    picked = [(t, d / 1000.0) for c, t, d in zip(config, start, cpu) if c in fast]
    p50, p99 = p50_p99(ctx, "DAG fast-path trial", [t for t, _ in picked],
                       [d for _, d in picked], window)
    busy = pbstats.cpu_busy_frac(s["proc"][0], s["proc"][1], window, TICKS)
    trials = len(config)
    metrics = {
        "setup_s": statistics.median(s["setup_s"]),
        "cpu_us_per_op": busy * window / 1000.0 / trials,
        "client.op_p50_us": p50,
        "client.ops_per_s": trials * pbstats.NS / window,
        "client.op_p99_us": p99,
        "client.cpu_busy_frac": busy,
        "host.steal_frac": pbstats.host_steal_frac(*s["host"]),
    }
    ctx.note("exp.worker_idle_frac", 1 - s["busy_ns"] / (s["threads"] * window), "ratio")
    per = s["trials_per_config"]
    validity = {n: c / per for n, c in zip(names, s["successes"])}
    for n in names:
        ctx.note("validity." + n, validity[n], "ratio", "(%d trials)" % per)
    check = Checker()
    check.expect(s["successes"] == s["successes_single_thread"],
                 "estimates differ between 4 threads %r and 1 thread %r"
                 % (s["successes"], s["successes_single_thread"]))
    check.expect(s["stable_across_rounds"], "a round did not reproduce the first round")
    check.expect(s["fast_exact_mismatch"] == 0,
                 "%d trials decided differently on the fast and exact DAG paths"
                 % s["fast_exact_mismatch"])
    check.expect(validity["dag_fast_t6"] >= 0.9, "DAG validity below 0.9 at t=6")
    check.expect(validity["chain_t6"] < 0.9, "chain validity not below 0.9 at t=6")
    return metrics, trials, 0, check.failures


WORKLOADS = {
    "append": workload_append,
    "durable_mixed": workload_durable_mixed,
    "montecarlo": workload_montecarlo,
}


def declared():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


def layer_metrics(ctx):
    """The per-layer metrics pb_layers measures."""
    out = os.path.join(ctx.run_dir, "layers")
    os.makedirs(out, exist_ok=True)
    r = subprocess.run([ctx.bins["layers"], "--seed", str(ctx.seed), "--out", out],
                       capture_output=True, text=True, timeout=300)
    if r.returncode != 0:
        raise BenchError("pb_layers failed: " + r.stderr[-2000:])
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base-port", type=int, default=0,
                    help="first of three node ports (default: three free ones)")
    ap.add_argument("--keep", action="store_true", help="keep the run directory")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    def on_signal(signum, _frame):
        raise BenchError("stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    run_dir = None
    ctx = None
    try:
        bins = build()
        run_dir = os.path.join(ROOT, ".bench_run", "%s-%d-%d" % (args.workload, args.seed,
                                                                os.getpid()))
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        ctx = Context(args, bins, run_dir)
        measured, attempted, failed, failures = WORKLOADS[args.workload](ctx)
        measured = {k: v for k, v in measured.items() if v is not None}
        end_to_end, per_layer = declared()
        if args.trace:
            measured.update(layer_metrics(ctx))
        units = per_layer if args.trace else end_to_end
        missing = sorted(set(units) - set(measured))
        if missing:
            raise BenchError("BENCHMARK.json metrics not measured: %s" % missing)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    finally:
        if ctx is not None:
            ctx.procs.stop_all()
        if run_dir and not args.keep:
            shutil.rmtree(run_dir, ignore_errors=True)

    for line in ctx.notes:
        print(line)
    all_units = dict(per_layer, **end_to_end)
    for name, value in sorted(measured.items()):
        print("%-34s %14.6g %s" % (name, value, all_units.get(name, "")))
    if failures:
        print("correctness: FAILED (%s)" % "; ".join(failures))
    result = {
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in sorted(units.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
