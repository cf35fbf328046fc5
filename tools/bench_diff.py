#!/usr/bin/env python3
"""Compare a bench run against a pinned BENCH_*.json baseline.

Extracts every time- or byte-like metric from two collect_bench.py
documents and reports per-metric ratios. A metric is:

  * a cell in a harness table whose column header carries a unit marker
    ("[ms]", "[s]", "[us]", "[B]" for wire bytes, "[KB]"/"[records]" for
    resident memory, "[allocs]" for heap allocations — all
    lower-is-better), keyed by (binary, table caption, row label, column)
    — row label = the leading non-metric cells (n, history, ...);
  * a cell in a rate column (header contains "/sec", e.g. amm_swarm's
    appends/sec) — higher is better, so the regression test inverts;
  * a google-benchmark entry's real_time, keyed by (binary, benchmark name).

Byte columns make wire-volume regressions (a delta read quietly shipping
the full view again) fail the diff exactly like a time regression would.

"[B]", "[records]" and "[allocs]" cells are *exact*: counts of a seeded
or fixed workload, identical from run to run of one commit, so no runner
noise can move them. Timing, "[KB]" (RSS) and rate cells are noisy.

Exit status is nonzero iff any metric regressed by more than --threshold
(default 1.5x). --report-only makes the noisy metrics informational (the
CI perf-smoke job; shared runners are too noisy to block on timings) but
still exits nonzero when an exact cell regresses.

Usage:
  tools/bench_diff.py --baseline BENCH_sim.json --current run.json [--threshold 1.5]
  tools/bench_diff.py --baseline BENCH_sim.json --current run.json --report-only
  tools/bench_diff.py --self-test
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

METRIC_UNIT = re.compile(r"\[(ms|us|s|B|KB|records|allocs)\]")
# Exact columns: gated even under --report-only.
EXACT_UNIT = re.compile(r"\[(B|records|allocs)\]")
# Throughput columns: metrics where HIGHER is better (ratio test inverts).
RATE_UNIT = re.compile(r"/sec\b")
# Derived ratio columns are neither labels nor metrics.
DERIVED_COLS = ("speedup", "growth", "reduction")

Metrics = dict[str, float]


def parse_number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def extract_metrics(doc: dict) -> tuple[Metrics, set[str], set[str]]:
    """Flattens a collect_bench.py document into {metric key: value}.

    Returns (metrics, rate_keys, exact_keys): keys in rate_keys are
    throughput metrics where a *drop* is the regression; keys in
    exact_keys are exact cells ([B], [records], [allocs])."""
    metrics: Metrics = {}
    rate_keys: set[str] = set()
    exact_keys: set[str] = set()
    for name, sub in sorted(doc.get("experiments", {}).items()):
        # google-benchmark micro document.
        for bench in sub.get("benchmarks", []):
            t = bench.get("real_time")
            if isinstance(t, (int, float)) and bench.get("run_type", "iteration") == "iteration":
                metrics[f"{name} :: {bench['name']}"] = float(t)
        # Harness document: tables with string cells.
        for table in sub.get("tables", []):
            caption = table.get("caption", "")
            inner = table.get("table", {})
            headers = inner.get("headers", [])
            metric_cols = [i for i, hdr in enumerate(headers) if METRIC_UNIT.search(hdr)]
            rate_cols = [i for i, hdr in enumerate(headers)
                         if i not in metric_cols and RATE_UNIT.search(hdr)]
            if not metric_cols and not rate_cols:
                continue
            value_cols = metric_cols + rate_cols
            label_cols = [i for i in range(len(headers)) if i not in value_cols]
            for row in inner.get("rows", []):
                label = ",".join(f"{headers[i]}={row[i]}" for i in label_cols
                                 if i < len(row) and headers[i] not in DERIVED_COLS)
                for i in value_cols:
                    if i >= len(row):
                        continue
                    value = parse_number(row[i])
                    if value is None or value <= 0.0:
                        continue
                    key = f"{name} :: {caption} :: {label} :: {headers[i]}"
                    metrics[key] = value
                    if i in rate_cols:
                        rate_keys.add(key)
                    if EXACT_UNIT.search(headers[i]):
                        exact_keys.add(key)
    return metrics, rate_keys, exact_keys


def compare(baseline: Metrics, current: Metrics, threshold: float,
            rate_keys: set[str] | None = None,
            exact_keys: set[str] | None = None) -> tuple[list[str], int, int]:
    """Returns (report lines, regression count, exact regression count)."""
    rate_keys = rate_keys or set()
    exact_keys = exact_keys or set()
    lines = []
    lines.append(f"| metric | baseline | current | ratio | status |")
    lines.append(f"|---|---|---|---|---|")
    regressions = 0
    exact_regressions = 0
    for key in sorted(set(baseline) & set(current)):
        base, cur = baseline[key], current[key]
        ratio = cur / base
        # Rate metrics (appends/sec): a drop is the regression.
        worse = ratio < 1.0 / threshold if key in rate_keys else ratio > threshold
        better = ratio > threshold if key in rate_keys else ratio < 1.0 / threshold
        if worse:
            status = "REGRESSION"
            regressions += 1
            if key in exact_keys:
                status = "REGRESSION (exact)"
                exact_regressions += 1
        elif better:
            status = "improved"
        else:
            status = "ok"
        lines.append(f"| {key} | {base:.4g} | {cur:.4g} | {ratio:.2f}x | {status} |")
    only_base = sorted(set(baseline) - set(current))
    only_cur = sorted(set(current) - set(baseline))
    for key in only_base:
        lines.append(f"| {key} | {baseline[key]:.4g} | — | — | missing in current |")
    for key in only_cur:
        lines.append(f"| {key} | — | {current[key]:.4g} | — | new |")
    return lines, regressions, exact_regressions


def self_test() -> None:
    """The regression detector must fire on an injected synthetic slowdown
    and stay quiet on identical runs; --report-only must still fail on an
    exact regression (unit-tested via ctest). `exact` scales the exact
    ([B], [records]) cells, by default together with the noisy ones;
    `allocs` scales the [allocs] cell, by default together with `exact`."""
    def doc(ms: float, exact: float | None = None, allocs: float | None = None) -> dict:
        exact = ms if exact is None else exact
        allocs = exact if allocs is None else allocs
        return {
            "experiments": {
                "bench_hotpath": {
                    "tables": [{
                        "caption": "growth",
                        "table": {
                            "headers": ["n", "history", "extend [ms]", "speedup"],
                            "rows": [["8", "1000", f"{ms}", "10.0"]],
                        },
                    }, {
                        # A heap-allocation table: a fractional mean of a
                        # seeded trial set is still exact.
                        "caption": "trial allocations",
                        "table": {
                            "headers": ["config", "trials", "allocs [allocs]"],
                            "rows": [["chain_t2", "32", f"{96.25 * allocs}"]],
                        },
                    }],
                },
                "bench_chain": {
                    "benchmarks": [
                        {"name": "BM_Build/1000", "real_time": 5.0 * ms,
                         "run_type": "iteration"},
                    ],
                },
                # A wire-volume table: the bytes column is a metric, the
                # derived reduction column is neither label nor metric.
                "exp_e10_abd": {
                    "tables": [{
                        "caption": "steady state",
                        "table": {
                            "headers": ["n", "history", "delta read [B]", "reduction"],
                            "rows": [["4", "10000", f"{100.0 * exact}", "800.0"]],
                        },
                    }],
                },
                # A memory table: [KB]/[records] columns are metrics where
                # growth (an unbounded container, a lost compaction) is the
                # regression — lower is better, like time and bytes.
                "cluster_mem_soak": {
                    "tables": [{
                        "caption": "resident memory vs history",
                        "table": {
                            "headers": ["mode", "history", "live [records]", "rss [KB]"],
                            "rows": [["summary", "1000", f"{40.0 * exact}", f"{2000.0 * ms}"]],
                        },
                    }],
                },
                # A throughput table: /sec is a higher-is-better metric,
                # not part of the row label.
                "amm_swarm": {
                    "tables": [{
                        "caption": "ladder",
                        "table": {
                            "headers": ["writers", "appends/sec", "label"],
                            "rows": [["8", f"{1000.0 / ms}", "epoll"]],
                        },
                    }],
                },
            },
        }

    base, base_rates, base_exact = extract_metrics(doc(1.0))
    assert len(base) == 7, f"expected 7 metrics, got {base}"
    alloc_key = "bench_hotpath :: trial allocations :: config=chain_t2,trials=32 :: allocs [allocs]"
    assert base[alloc_key] == 96.25, base
    assert "bench_hotpath :: growth :: n=8,history=1000 :: extend [ms]" in base, base
    assert "exp_e10_abd :: steady state :: n=4,history=10000 :: delta read [B]" in base, base
    assert ("cluster_mem_soak :: resident memory vs history :: "
            "mode=summary,history=1000 :: rss [KB]") in base, base
    assert ("cluster_mem_soak :: resident memory vs history :: "
            "mode=summary,history=1000 :: live [records]") in base, base
    rate_key = "amm_swarm :: ladder :: writers=8,label=epoll :: appends/sec"
    assert base_rates == {rate_key}, base_rates
    assert base_exact == {
        "exp_e10_abd :: steady state :: n=4,history=10000 :: delta read [B]",
        "cluster_mem_soak :: resident memory vs history :: "
        "mode=summary,history=1000 :: live [records]", alloc_key}, base_exact

    def diff(current: dict) -> tuple[int, int]:
        _, regressed, exact = compare(base, extract_metrics(current)[0], threshold=1.5,
                                      rate_keys=base_rates, exact_keys=base_exact)
        return regressed, exact

    assert diff(doc(1.0)) == (0, 0), "identical runs must not report regressions"
    # ms-metrics (and memory) 10x worse AND the rate 10x lower: all must fire.
    assert diff(doc(10.0)) == (7, 3), f"10x slowdown must regress all 7, got {diff(doc(10.0))}"
    # Timings, RSS and the rate 10x worse, exact cells unchanged.
    assert diff(doc(10.0, exact=1.0)) == (4, 0), diff(doc(10.0, exact=1.0))
    # Only the exact cells 10x worse.
    assert diff(doc(1.0, exact=10.0)) == (3, 3), diff(doc(1.0, exact=10.0))
    # Only the allocation count doubled.
    assert diff(doc(1.0, exact=1.0, allocs=2.0)) == (1, 1), diff(doc(1.0, allocs=2.0))
    # Fewer allocations is an improvement, not a regression.
    assert diff(doc(1.0, exact=1.0, allocs=0.1)) == (0, 0), diff(doc(1.0, allocs=0.1))
    # 10x faster everywhere: the rate *rises* 10x — still zero regressions.
    assert diff(doc(0.1)) == (0, 0), "a speedup is not a regression"

    # End-to-end: the CLI contract is "nonzero exit on regression".
    import subprocess
    import tempfile
    with tempfile.TemporaryDirectory(prefix="amm_bench_diff_") as tmp:
        base_p = Path(tmp) / "base.json"
        slow_p = Path(tmp) / "slow.json"
        noisy_p = Path(tmp) / "noisy.json"
        allocs_p = Path(tmp) / "allocs.json"
        base_p.write_text(json.dumps(doc(1.0)))
        slow_p.write_text(json.dumps(doc(10.0)))
        noisy_p.write_text(json.dumps(doc(10.0, exact=1.0)))
        allocs_p.write_text(json.dumps(doc(1.0, exact=1.0, allocs=2.0)))

        def run(current: Path, *extra: str) -> int:
            argv = [sys.executable, __file__, "--baseline", str(base_p),
                    "--current", str(current), *extra]
            return subprocess.run(argv, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode

        assert run(slow_p) != 0, "regression must exit nonzero"
        assert run(noisy_p) != 0, "a timing regression must exit nonzero"
        assert run(noisy_p, "--report-only") == 0, \
            "--report-only must not fail on timing/RSS/rate regressions"
        assert run(slow_p, "--report-only") != 0, \
            "--report-only must still fail on an exact [B]/[records] regression"
        assert run(allocs_p, "--report-only") != 0, \
            "--report-only must still fail on an [allocs] regression"
        rc = subprocess.run(
            [sys.executable, __file__, "--baseline", str(base_p), "--current", str(base_p)],
            stdout=subprocess.DEVNULL).returncode
        assert rc == 0, "identical runs must exit 0"
    print("bench_diff self-test: OK")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="pinned baseline (BENCH_sim.json)")
    ap.add_argument("--current", type=Path, help="fresh collect_bench.py output")
    ap.add_argument("--threshold", type=float, default=1.5,
                    help="regression ratio; current > threshold*baseline fails (default 1.5)")
    ap.add_argument("--report-only", action="store_true",
                    help="fail only on exact [B]/[records]/[allocs] regressions; timings, RSS "
                         "and rates are informational (CI perf-smoke)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the detector fires on an injected regression")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required (or use --self-test)")

    base_doc = json.loads(args.baseline.read_text())
    cur_doc = json.loads(args.current.read_text())
    for doc, path in ((base_doc, args.baseline), (cur_doc, args.current)):
        sha = doc.get("git_sha", "unknown")[:12]
        bt = doc.get("build_type", "unknown")
        print(f"[bench_diff] {path}: sha={sha} build={bt}")

    base_metrics, base_rates, base_exact = extract_metrics(base_doc)
    cur_metrics, cur_rates, cur_exact = extract_metrics(cur_doc)
    lines, regressions, exact_regressions = compare(
        base_metrics, cur_metrics, args.threshold, rate_keys=base_rates | cur_rates,
        exact_keys=base_exact | cur_exact)
    print("\n".join(lines))
    if regressions:
        print(f"[bench_diff] {regressions} metric(s) regressed beyond "
              f"{args.threshold:.2f}x, {exact_regressions} of them exact ([B]/[records]/[allocs])",
              file=sys.stderr)
        if exact_regressions or not args.report_only:
            sys.exit(1)
    else:
        print("[bench_diff] no regressions")


if __name__ == "__main__":
    main()
