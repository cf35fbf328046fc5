#!/usr/bin/env python3
"""Loopback cluster integration test for amm_node / amm_ctl.

Spawns n real amm_node processes on 127.0.0.1, drives >= --appends appends
through amm_ctl (pipelined with --window), SIGKILLs floor((n-1)/2) nodes
mid-run, forces the survivors' outbound links down (kick) so reconnect
paths are exercised, keeps appending, and then asserts the paper's §4
guarantees end-to-end:

  * Lemma 4.2 — every append whose ctl reply reported completion is
    present in every survivor's subsequent quorum read;
  * Algorithm 6 — the survivors' DAG BA decisions (sign of the first-k
    prefix of the canonical record order) agree exactly;
  * DESIGN.md §9 — steady-state delta reads stay sub-linear in history
    (wire bytes per read far below the full-view cost), and a restarted
    node full-syncs exactly once before returning to cheap delta reads.

Exit status 0 iff every assertion holds. Registered as the ctest/CI
`cluster_loopback` job. With --json FILE the measured byte costs are
written as a JSON document for the CI artifact / bench fold-in.

With --durable the default scenario is replaced by the crash-recovery
gauntlet (DESIGN.md §10): every node runs with --store-dir, one node is
SIGKILLed in the middle of an append batch, its store's log tail is
smeared with garbage (the torn-frame crash artifact), amm_logtool must
detect (verify -> exit 1), repair (truncate) and re-certify (verify ->
exit 0) the store offline, and the restarted node must recover its view
from local replay plus a delta-only tail fetch — asserted both on bytes
(within 2x the ideal delta cost, far below a full history sync) and on
state (its quorum read agrees with every survivor's and contains every
completed append).

With --mem-soak the default scenario is replaced by a memory soak
(DESIGN.md §8): the same append load is driven twice — once with
compaction off (the unbounded node) and once in summary mode — and each
node 0's live-record count and resident set are sampled after every
round. Asserts that summary-mode live records stay strictly below the
unbounded history while compaction folds a nonzero prefix; rss_kb is
reported for the bench fold-in (report-only — allocator noise makes a
hard byte assertion flaky) where bench_diff treats the [KB]/[records]
columns as lower-is-better metrics.

Usage:
  tools/cluster_test.py --bin-dir build/tools [--n 5] [--appends 1000] [--json out.json]
  tools/cluster_test.py --bin-dir build/tools --mem-soak [--json mem_soak.json]
"""

from __future__ import annotations

import argparse
import json
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RECORD_WIRE_BYTES = 28  # one signed append record on the wire (codec.cpp)
# TcpTransport's default backoff_max (net/transport.hpp): once every node
# listens, a link whose startup dial was refused redials within this bound.
BACKOFF_MAX_S = 2.0


class ClusterError(Exception):
    pass


def log(msg: str) -> None:
    print(f"[cluster_test] {msg}", flush=True)


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """Reads one stdout line from proc, raising on timeout or process exit."""
    fd = proc.stdout.fileno()
    buf = b""
    while not buf.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ClusterError(f"timeout waiting for output from pid {proc.pid}")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = proc.stdout.read1(4096)
        if not chunk:
            raise ClusterError(f"node pid {proc.pid} exited before becoming ready")
        buf += chunk
    return buf.decode(errors="replace").splitlines()[0]


class Cluster:
    def __init__(self, bin_dir: Path, n: int, seed: int,
                 node_args: tuple[str, ...] = ()):
        self.node_bin = bin_dir / "amm_node"
        self.ctl_bin = bin_dir / "amm_ctl"
        self.n = n
        self.seed = seed
        self.node_args = list(node_args)
        self.base_port = 0
        self.procs: list[subprocess.Popen | None] = []
        self.up_at = 0.0

    def start(self, attempts: int = 10) -> None:
        rng = random.Random()
        for _ in range(attempts):
            self.base_port = rng.randrange(20000, 55000)
            if self._try_start():
                return
        raise ClusterError(f"could not find a free port range in {attempts} attempts")

    def args_for(self, i: int) -> list[str]:
        """Per-node extra args: a literal `{id}` in any node_args element is
        replaced with the node id (how --durable gives each node its own
        --store-dir)."""
        return [a.replace("{id}", str(i)) for a in self.node_args]

    def _try_start(self) -> bool:
        self.procs = []
        for i in range(self.n):
            cmd = [str(self.node_bin), "--id", str(i), "--n", str(self.n),
                   "--seed", str(self.seed), "--base-port", str(self.base_port),
                   *self.args_for(i)]
            self.procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                               stderr=subprocess.STDOUT))
        deadline = time.monotonic() + 10
        try:
            for i, proc in enumerate(self.procs):
                line = read_line(proc, deadline)
                if "listening on" not in line:
                    raise ClusterError(f"node {i} not ready: {line!r}")
        except ClusterError as err:
            log(f"startup on base port {self.base_port} failed ({err}); retrying")
            self.stop_all()
            return False
        self.up_at = time.monotonic()
        log(f"{self.n} nodes up on 127.0.0.1:{self.base_port}..{self.base_port + self.n - 1}")
        return True

    def settle_mesh(self) -> None:
        """Waits until every outbound link has connected at least once.

        Nodes dial as they start, so a dial toward a peer that is not yet
        listening is refused and backs off. A link that first connects only
        after its peer was killed never counts a reconnect, because the
        transport counts re-dials of links that were up before."""
        remaining = self.up_at + BACKOFF_MAX_S + 0.5 - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)

    def port(self, i: int) -> int:
        return self.base_port + i

    def alive(self) -> list[int]:
        return [i for i, p in enumerate(self.procs) if p is not None]

    def ctl(self, node: int, *op_args: str, timeout: float = 60.0) -> str:
        cmd = [str(self.ctl_bin), "--port", str(self.port(node)), *op_args]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise ClusterError(f"{' '.join(cmd)} -> exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def kill(self, node: int) -> None:
        proc = self.procs[node]
        assert proc is not None
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
        self.procs[node] = None
        log(f"node {node} SIGKILLed")

    def restart(self, node: int) -> None:
        """Relaunches a killed node with its original identity (same id, n,
        seed, port) and a blank view — the reconnect + full-sync-once case."""
        assert self.procs[node] is None
        cmd = [str(self.node_bin), "--id", str(node), "--n", str(self.n),
               "--seed", str(self.seed), "--base-port", str(self.base_port),
               *self.args_for(node)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        line = read_line(proc, time.monotonic() + 10)
        if "listening on" not in line:
            raise ClusterError(f"restarted node {node} not ready: {line!r}")
        self.procs[node] = proc
        log(f"node {node} restarted on port {self.port(node)}")

    def stats(self, node: int) -> dict[str, int]:
        out = self.ctl(node, "--op", "stats")
        return {m.group(1): int(m.group(2))
                for m in re.finditer(r"([a-z_]+)=(\d+)", out)}

    def total_bytes(self) -> int:
        """Sum of bytes_sent over every alive node — the cluster-wide wire
        volume counter used for per-operation byte deltas."""
        return sum(self.stats(node)["bytes"] for node in self.alive())

    def stop_all(self) -> None:
        for i, proc in enumerate(self.procs):
            if proc is None:
                continue
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            self.procs[i] = None


def append_batch(cluster: Cluster, targets: list[int], per_node: int,
                 next_value: int, completed: set[int]) -> int:
    """Issues per_node appends to every target concurrently; returns the next
    unused value. Values are globally unique so each append is identifiable
    in later reads."""
    jobs = []
    for node in targets:
        cmd = [str(cluster.ctl_bin), "--port", str(cluster.port(node)), "--op", "append",
               "--value", str(next_value), "--count", str(per_node), "--window", "8"]
        jobs.append((node, next_value, subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                                        stderr=subprocess.STDOUT, text=True)))
        next_value += per_node
    for node, first, proc in jobs:
        out, _ = proc.communicate(timeout=120)
        match = re.search(r"appended count=(\d+) first=(-?\d+)", out)
        if proc.returncode != 0 or not match:
            raise ClusterError(f"append batch on node {node} failed: {out.strip()}")
        count = int(match.group(1))
        completed.update(range(first, first + count))
        if count != per_node:
            raise ClusterError(f"node {node} completed only {count}/{per_node} appends")
    return next_value


def read_values(cluster: Cluster, node: int) -> list[int]:
    out = cluster.ctl(node, "--op", "read")
    return [int(m.group(1)) for m in re.finditer(r"value=(-?\d+)", out)]


def read_cost(cluster: Cluster, node: int) -> tuple[int, int]:
    """Performs one quorum read at `node`; returns (wire bytes, view size).
    Bytes are measured as the cluster-wide bytes_sent delta, so they cover
    the read requests AND every responder's reply."""
    before = cluster.total_bytes()
    view = read_values(cluster, node)
    return cluster.total_bytes() - before, len(view)


def logtool(args, *tool_args: str) -> tuple[int, str]:
    """Runs amm_logtool; returns (exit status, stdout+stderr)."""
    proc = subprocess.run([str(args.bin_dir / "amm_logtool"), *tool_args],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout + proc.stderr


def store_summary(args, store_dir: Path) -> str:
    """One line from `amm_logtool dump`: the newest snapshot's log_seq and
    the highest logged record (log_seq, author, seq). Recovery replays the
    records from the snapshot's log_seq on, so a snapshot log_seq past the
    highest record means it had nothing to replay."""
    status, out = logtool(args, "dump", "--dir", str(store_dir))
    snap_seq = "none"
    top = None
    for line in out.splitlines():
        fields = dict(kv.split("=", 1) for kv in line.split()[1:] if "=" in kv)
        if line.startswith("snapshot "):
            snap_seq = fields.get("log_seq", "undecodable")
        elif line.startswith("record ") and "log_seq" in fields:
            if top is None or int(fields["log_seq"]) > int(top["log_seq"]):
                top = fields
    record = ("none" if top is None else
              f"log_seq={top['log_seq']} author={top['author']} seq={top['seq']}")
    return f"dump exit {status}: snapshot log_seq={snap_seq}, highest record {record}"


def run_durable(args) -> None:
    """Crash-recovery gauntlet: SIGKILL mid-write, offline repair, restart
    with local replay + delta-only tail fetch (DESIGN.md §10)."""
    store_root = Path(tempfile.mkdtemp(prefix="amm_durable_"))
    node_args = ("--store-dir", str(store_root / "store{id}"),
                 "--fsync", "always", "--snapshot-interval", "32")
    cluster = Cluster(args.bin_dir, args.n, args.seed, node_args=node_args)
    cluster.start()
    completed: set[int] = set()
    try:
        # Phase 1: the bulk of the history lands while every node is up, so
        # the store under the crash has real segments and snapshots in it.
        phase1_per_node = (args.appends * 85 // 100) // args.n + 1
        value = append_batch(cluster, list(range(args.n)), phase1_per_node, 1, completed)
        log(f"phase 1: {len(completed)} appends completed, durable stores populated")

        # SIGKILL the highest node in the middle of an append batch it is
        # itself driving — the canonical torn-write crash.
        target = args.n - 1
        kill_batch = 64
        kill_first = value
        job = subprocess.Popen(
            [str(cluster.ctl_bin), "--port", str(cluster.port(target)), "--op", "append",
             "--value", str(value), "--count", str(kill_batch), "--window", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        value += kill_batch
        time.sleep(0.15)
        cluster.kill(target)
        job.communicate(timeout=60)  # the driver dies with its node; ignore
        survivors = cluster.alive()

        # Smear garbage over the log tail so the crash artifact is there
        # deterministically (a real mid-write kill only sometimes tears).
        store_dir = store_root / f"store{target}"
        segments = sorted(store_dir.glob("seg-*.log"))
        if not segments:
            raise ClusterError(f"no segments in {store_dir}")
        with segments[-1].open("ab") as f:
            f.write(b"\x17" * 17)

        # Offline repair flow: verify must flag the torn tail and fail,
        # truncate must cut it, verify must then certify a clean store.
        status, out = logtool(args, "verify", "--dir", str(store_dir),
                              "--n", str(args.n), "--seed", str(args.seed))
        if status != 1 or "kind=torn_tail" not in out:
            raise ClusterError(f"verify missed the torn tail (exit {status}): {out.strip()}")
        status, out = logtool(args, "truncate", "--dir", str(store_dir))
        if status != 0 or "cut_bytes=" not in out:
            raise ClusterError(f"truncate failed (exit {status}): {out.strip()}")
        status, out = logtool(args, "verify", "--dir", str(store_dir),
                              "--n", str(args.n), "--seed", str(args.seed))
        if status != 0 or "faults=0" not in out:
            raise ClusterError(f"store still faulty after repair (exit {status}): {out.strip()}")
        log(f"offline repair: torn tail detected, truncated, store re-certified clean")

        # Phase 2 while the target is down — the tail it must later fetch
        # over the wire (and the only part it should pay wire bytes for).
        phase2_per_node = (args.appends - len(completed)) // len(survivors) + 1
        append_batch(cluster, survivors, phase2_per_node, value, completed)
        if len(completed) < args.appends:
            raise ClusterError(f"only {len(completed)} < {args.appends} appends completed")
        survivor_view = read_values(cluster, survivors[0])
        history = len(survivor_view)
        partials = len([v for v in survivor_view if kill_first <= v < kill_first + kill_batch])
        phase2_total = len([v for v in survivor_view if v >= kill_first + kill_batch])
        log(f"phase 2: history {history} ({phase2_total} + {partials} partials "
            f"appended while node {target} was down)")

        steady_bytes, steady_view = read_cost(cluster, survivors[0])
        if steady_view != history:
            raise ClusterError(f"steady read view {steady_view} != history {history}")

        # Restart on the repaired store. Recovery itself is local (snapshot
        # + log replay); the wire pays only for the missed tail. The store's
        # shape is summarized first: it is what recovery will start from.
        restart_store = store_summary(args, store_dir)
        before_bytes = cluster.total_bytes()
        cluster.restart(target)
        deadline = time.monotonic() + 30
        while cluster.stats(target).get("view", 0) < history:
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"restarted node stuck at view "
                    f"{cluster.stats(target).get('view', 0)} < {history}")
            time.sleep(0.2)
        restart_bytes = cluster.total_bytes() - before_bytes

        stats = cluster.stats(target)
        if stats.get("recovery_replayed_records", 0) == 0:
            raise ClusterError(f"restarted node replayed nothing from its log: {stats}; "
                               f"store at restart: {restart_store}")
        if stats.get("snapshot_count", 0) == 0:
            raise ClusterError(f"restarted node loaded/wrote no snapshot: {stats}")
        if stats.get("log_bytes", 0) == 0:
            raise ClusterError(f"restarted node reports an empty log: {stats}")
        log(f"recovery: replayed {stats['recovery_replayed_records']} records locally, "
            f"log_bytes={stats['log_bytes']}, snapshots={stats['snapshot_count']}")

        # The §10 byte assertion: restart wire cost within 2x the ideal
        # delta (steady read overhead + peers shipping exactly the missed
        # records), and nowhere near a full history sync.
        missed = phase2_total + partials
        ideal = steady_bytes + (args.n - 1) * missed * RECORD_WIRE_BYTES
        full_estimate = (args.n - 1) * history * RECORD_WIRE_BYTES
        log(f"restart wire bytes {restart_bytes} (ideal delta {ideal}, "
            f"full-sync estimate {full_estimate})")
        if restart_bytes > 2 * ideal:
            raise ClusterError(
                f"restart cost {restart_bytes} B exceeds 2x ideal delta {ideal} B "
                f"— recovery is not delta-only")
        if restart_bytes * 3 > full_estimate:
            raise ClusterError(
                f"restart cost {restart_bytes} B is within 3x of a full history "
                f"sync ({full_estimate} B) — local replay bought nothing")

        # State assertion: the recovered node's quorum read is exactly the
        # survivors' — every completed append present, nothing invented.
        recovered_view = read_values(cluster, target)
        if sorted(recovered_view) != sorted(survivor_view):
            raise ClusterError(
                f"recovered view ({len(recovered_view)} records) differs from "
                f"survivor view ({len(survivor_view)} records)")
        missing = completed - set(recovered_view)
        if missing:
            raise ClusterError(
                f"recovered node misses {len(missing)} completed appends, "
                f"e.g. {sorted(missing)[:5]}")
        log(f"recovered node {target}: view matches survivors, "
            f"all {len(completed)} completed appends present")

        if args.json is not None:
            args.json.write_text(json.dumps({
                "title": "cluster durable restart",
                "tables": [{
                    "caption": "restart wire cost",
                    "table": {
                        "headers": ["n", "history", "path", "bytes [B]"],
                        "rows": [
                            [str(args.n), str(history), "steady_delta_read", str(steady_bytes)],
                            [str(args.n), str(history), "durable_restart", str(restart_bytes)],
                            [str(args.n), str(history), "restart_ideal_delta", str(ideal)],
                            [str(args.n), str(history), "restart_full_sync_estimate",
                             str(full_estimate)],
                        ],
                    },
                }],
            }, indent=2) + "\n")
            log(f"wrote {args.json}")
        log("PASS")
    except ClusterError as err:
        log(f"FAIL: {err}")
        sys.exit(1)
    finally:
        cluster.stop_all()
        shutil.rmtree(store_root, ignore_errors=True)


def run_mem_soak(args) -> None:
    """Memory-vs-history soak: identical load, compaction off vs summary."""
    rounds = 4
    per_round_per_node = args.appends // rounds // args.n + 1
    modes = {
        "off": (),
        # lag 8 so the quantized cut activates within the soak's history
        # (the production default of 256 records/author is sized for real
        # deployments, not a 1k-append smoke run).
        "summary": ("--compact", "summary", "--compact-lag", "8"),
    }
    samples: dict[str, list[dict[str, int]]] = {}
    try:
        for mode, extra in modes.items():
            cluster = Cluster(args.bin_dir, args.n, args.seed, node_args=extra)
            cluster.start()
            try:
                completed: set[int] = set()
                value = 1
                rows = []
                for _ in range(rounds):
                    value = append_batch(cluster, list(range(args.n)),
                                         per_round_per_node, value, completed)
                    # One quorum read settles node 0's view (read repair pulls
                    # in records still in flight) before sampling.
                    read_values(cluster, 0)
                    stats = cluster.stats(0)
                    rows.append({"history": len(completed),
                                 "live": stats["live_records"],
                                 "folded": stats["records_folded"],
                                 "rss_kb": stats["rss_kb"]})
                    log(f"mode={mode} history={len(completed)} "
                        f"live={stats['live_records']} folded={stats['records_folded']} "
                        f"rss_kb={stats['rss_kb']}")
                samples[mode] = rows
                if mode == "summary" and rows[-1]["folded"] > 1:
                    # A decide whose k lies below the compaction fold must
                    # fail with a machine-readable reason (exit 3), distinct
                    # from plain k-undecided (exit 1) — the old behaviour
                    # exited 0 and scripts treated the refusal as a decision.
                    proc = subprocess.run(
                        [str(cluster.ctl_bin), "--port", str(cluster.port(0)),
                         "--op", "decide", "--k", "1"],
                        capture_output=True, text=True, timeout=60)
                    out = proc.stdout + proc.stderr
                    if proc.returncode != 3 or "reason=refused_below_fold" not in out:
                        raise ClusterError(
                            f"decide below fold: want exit 3 + refused_below_fold, "
                            f"got exit {proc.returncode}: {out.strip()}")
                    log("decide below fold refused with exit 3 reason=refused_below_fold")
            finally:
                cluster.stop_all()

        history = samples["off"][-1]["history"]
        off_live = samples["off"][-1]["live"]
        sum_live = samples["summary"][-1]["live"]
        sum_folded = samples["summary"][-1]["folded"]
        if off_live != history:
            raise ClusterError(f"uncompacted node holds {off_live} != history {history}")
        if sum_folded == 0:
            raise ClusterError("summary mode folded nothing over the whole soak")
        if sum_live + sum_folded < history:
            raise ClusterError(
                f"summary node lost records: live {sum_live} + folded {sum_folded} "
                f"< history {history}")
        if sum_live * 2 >= off_live:
            raise ClusterError(
                f"summary live records {sum_live} not well below unbounded {off_live}")
        log(f"mem soak: unbounded live={off_live}, summary live={sum_live} "
            f"(folded {sum_folded}) at history {history}")

        if args.json is not None:
            args.json.write_text(json.dumps({
                "title": "cluster memory soak: compaction off vs summary",
                "tables": [{
                    "caption": "resident memory vs history",
                    "table": {
                        "headers": ["mode", "round", "history",
                                    "live [records]", "rss [KB]"],
                        "rows": [[mode, str(r), str(row["history"]),
                                  str(row["live"]), str(row["rss_kb"])]
                                 for mode, rows in samples.items()
                                 for r, row in enumerate(rows, start=1)],
                    },
                }],
            }, indent=2) + "\n")
            log(f"wrote {args.json}")
        log("PASS")
    except ClusterError as err:
        log(f"FAIL: {err}")
        sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", type=Path, default=Path("build/tools"))
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--appends", type=int, default=1000,
                    help="minimum total completed appends across both phases")
    ap.add_argument("--seed", type=int, default=20200715)
    ap.add_argument("--json", type=Path, default=None,
                    help="write measured byte costs to this file as JSON")
    ap.add_argument("--mem-soak", action="store_true",
                    help="run the compaction memory soak instead of the default scenario")
    ap.add_argument("--durable", action="store_true",
                    help="run the crash-recovery gauntlet instead of the default scenario")
    args = ap.parse_args()
    if args.n < 3:
        sys.exit("error: need --n >= 3 for a meaningful minority crash")
    if args.mem_soak:
        run_mem_soak(args)
        return
    if args.durable:
        run_durable(args)
        return

    cluster = Cluster(args.bin_dir, args.n, args.seed)
    cluster.start()
    completed: set[int] = set()
    try:
        # Phase 1: appends through every node (authors include the nodes
        # that will be killed — their completed records must still survive).
        phase1_per_node = (args.appends * 6 // 10) // args.n + 1
        value = append_batch(cluster, list(range(args.n)), phase1_per_node, 1, completed)
        log(f"phase 1: {len(completed)} appends completed across {args.n} nodes")

        # Crash a minority mid-run: floor((n-1)/2) highest-numbered nodes.
        # The restart check below needs every survivor's link to them up first.
        cluster.settle_mesh()
        for node in range(args.n - (args.n - 1) // 2, args.n):
            cluster.kill(node)
        survivors = cluster.alive()

        # Force every survivor's outbound links down — phase 2 must ride
        # on reconnected sockets with the backoff/salvage path exercised.
        for node in survivors:
            cluster.ctl(node, "--op", "kick")
        log(f"survivors {survivors} kicked; continuing appends")

        remaining = args.appends - len(completed)
        phase2_per_node = remaining // len(survivors) + 1
        append_batch(cluster, survivors, phase2_per_node, value, completed)
        log(f"phase 2: {len(completed)} total appends completed")
        if len(completed) < args.appends:
            raise ClusterError(f"only {len(completed)} < {args.appends} appends completed")

        # Lemma 4.2: every completed append is in every survivor's read.
        for node in survivors:
            view = read_values(cluster, node)
            missing = completed - set(view)
            if missing:
                raise ClusterError(
                    f"node {node} read misses {len(missing)} completed appends, "
                    f"e.g. {sorted(missing)[:5]}")
            log(f"node {node} read: view={len(view)} contains all {len(completed)} appends")

        # Algorithm 6: identical decisions on every survivor.
        k = len(completed)
        decisions = set()
        for node in survivors:
            out = cluster.ctl(node, "--op", "decide", "--k", str(k))
            match = re.search(r"decision=([+-]\d+) over=(\d+)", out)
            if not match:
                raise ClusterError(f"node {node} decide output unparseable: {out.strip()}")
            decisions.add((int(match.group(1)), int(match.group(2))))
        if len(decisions) != 1:
            raise ClusterError(f"survivors disagree: {sorted(decisions)}")
        decision, over = next(iter(decisions))
        log(f"all survivors decide {decision:+d} over {over} records")

        # The kick above must have produced real reconnects.
        for node in survivors:
            stats = cluster.stats(node)
            if stats.get("reconnects", 0) < 1:
                raise ClusterError(f"node {node} shows no reconnects after kick: {stats}")

        # §9 sub-linearity: a synced survivor's steady-state read ships only
        # protocol overhead, far below the full-view cost of the same read
        # (|alive| replies x history x 28 B/record).
        history = len(completed)
        full_estimate = len(survivors) * history * RECORD_WIRE_BYTES
        steady_bytes, steady_view = read_cost(cluster, survivors[0])
        log(f"steady-state read: {steady_bytes} B over history {history} "
            f"(full-view estimate {full_estimate} B)")
        if steady_view != history:
            raise ClusterError(f"steady read view {steady_view} != history {history}")
        if steady_bytes * 10 >= full_estimate:
            raise ClusterError(
                f"steady-state read cost {steady_bytes} B is not sub-linear in "
                f"history (full-view estimate {full_estimate} B)")

        # Restart one killed node with a blank view: its first read must
        # full-sync (frontier at zero -> responders ship whole views), its
        # second must be back on cheap deltas.
        restarted = args.n - 1
        pre_reconnects = {node: cluster.stats(node).get("reconnects", 0)
                          for node in survivors}
        cluster.restart(restarted)
        deadline = time.monotonic() + 30
        while any(cluster.stats(node).get("reconnects", 0) <= pre_reconnects[node]
                  for node in survivors):
            if time.monotonic() > deadline:
                raise ClusterError("survivors never reconnected to the restarted node")
            time.sleep(0.2)
        time.sleep(0.5)  # let queued frames toward the revived peer flush

        sync_bytes, sync_view = read_cost(cluster, restarted)
        delta_bytes, delta_view = read_cost(cluster, restarted)
        log(f"restarted node {restarted}: full-sync read {sync_bytes} B, "
            f"steady read {delta_bytes} B (views {sync_view}/{delta_view})")
        if sync_view != history or delta_view != history:
            raise ClusterError(
                f"restarted node reads {sync_view}/{delta_view} != history {history}")
        if sync_bytes <= 10 * delta_bytes:
            raise ClusterError(
                f"restarted node did not return to deltas: full-sync {sync_bytes} B "
                f"vs steady {delta_bytes} B (need > 10x)")

        if args.json is not None:
            # Harness-document shape: collect_bench.py --extra folds this in
            # and bench_diff.py diffs the [B] columns like any other metric.
            args.json.write_text(json.dumps({
                "title": "cluster loopback delta reads",
                "tables": [{
                    "caption": "read wire cost",
                    "table": {
                        "headers": ["n", "history", "read", "bytes [B]"],
                        "rows": [
                            [str(args.n), str(history), "steady_survivor", str(steady_bytes)],
                            [str(args.n), str(history), "restart_full_sync", str(sync_bytes)],
                            [str(args.n), str(history), "restart_steady", str(delta_bytes)],
                        ],
                    },
                }],
            }, indent=2) + "\n")
            log(f"wrote {args.json}")

        log("PASS")
    except ClusterError as err:
        log(f"FAIL: {err}")
        sys.exit(1)
    finally:
        cluster.stop_all()


if __name__ == "__main__":
    main()
