"""Statistics of the benchmark: every percentile, rate and CPU share that
run.py reports is computed here, and test_pbstats.py pins each of them.

Conventions:
  * Percentiles use the nearest-rank definition: the p-th percentile of n
    sorted samples is the sample at rank ceil(p/100 * n). It is always a
    measured value, never an interpolation.
  * A percentile is reported only when at least ten samples lie beyond it
    (n * (1 - p/100) >= 10); otherwise it is None and the caller reports
    a lower percentile.
  * Open-loop latency runs from a request's due time to its reply, so a
    stall is charged to every request it delayed; the generator's
    lateness is sent minus due.
  * A request that failed or never got a reply counts as missing every
    latency limit: it enters the percentile as +infinity.
  * The tail percentile of a run is the median over consecutive slices of
    the window of each slice's percentile (sliced_percentile). One stall
    of the shared host then moves one slice, not the run's figure; each
    slice still needs ten samples beyond its percentile.
"""
import array
import math
import statistics

NS = 1_000_000_000
FAILED = -1  # the `done` value pb_load writes for a request without an ok reply


def percentile(sorted_values, p):
    """Nearest-rank p-th percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def has_tail(n, p):
    """True when at least ten of n samples lie beyond the p-th percentile."""
    return n * (1.0 - p / 100.0) >= 10.0 - 1e-9


def summarize(values, percentiles=(50, 99)):
    """{'n': count, 'p50': ..., 'p99': ...}; a percentile without ten
    samples beyond it is None."""
    ordered = sorted(values)
    out = {"n": len(ordered)}
    for p in percentiles:
        key = "p%g" % p
        out[key] = percentile(ordered, p) if ordered and has_tail(len(ordered), p) else None
    return out


def read_rows(path, width):
    """A file of little-endian int64 rows of `width` columns, as a list of
    column arrays."""
    data = array.array("q")
    with open(path, "rb") as f:
        data.frombytes(f.read())
    if len(data) % width:
        raise ValueError("%s: %d words is not a whole number of %d-word rows"
                         % (path, len(data), width))
    return [data[c::width] for c in range(width)]


def open_loop_latencies_us(due, done, window_ns):
    """Latency in microseconds (due to reply) of every request due inside
    [0, window_ns); failed requests are +inf."""
    out = []
    for d, e in zip(due, done):
        if 0 <= d < window_ns:
            out.append(math.inf if e == FAILED else (e - d) / 1000.0)
    return out


def lateness_us(due, sent, window_ns):
    """How late the generator sent each request due in the window, in us."""
    return [(s - d) / 1000.0 for d, s in zip(due, sent) if 0 <= d < window_ns]


def completed_rate(done, window_ns):
    """Requests completed inside [0, window_ns], per second."""
    count = sum(1 for e in done if 0 <= e <= window_ns)
    return count * NS / window_ns


def sliced_percentile(times, values, window_ns, slice_ns, p):
    """Median over the slices of [0, window_ns) (each `slice_ns` long, the
    last one absorbing any remainder) of the p-th percentile of the values
    whose time falls in the slice. Returns (median, slices, smallest slice
    sample count); the median is None when any slice lacks ten samples
    beyond its percentile."""
    slices = max(1, window_ns // slice_ns)
    buckets = [[] for _ in range(slices)]
    for t, v in zip(times, values):
        if 0 <= t < window_ns:
            buckets[min(slices - 1, t // slice_ns)].append(v)
    smallest = min(len(b) for b in buckets)
    if not has_tail(smallest, p):
        return None, slices, smallest
    return statistics.median(percentile(sorted(b), p) for b in buckets), slices, smallest


def proc_cpu_ticks(stat_line):
    """utime + stime (clock ticks) from one /proc/<pid>/stat line. The
    command name is parenthesised and may contain spaces or parentheses,
    so fields are counted after its last ')'."""
    rest = stat_line[stat_line.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]) + int(rest[12])


def cpu_busy_frac(start_line, end_line, wall_ns, ticks_per_s):
    """CPU time a process used between two stat lines over the wall time
    between them: 1.0 is one core kept busy."""
    ticks = proc_cpu_ticks(end_line) - proc_cpu_ticks(start_line)
    return ticks / ticks_per_s / (wall_ns / NS)


def host_steal_frac(start_line, end_line):
    """Share of the host's CPU time the hypervisor gave to others between
    two "cpu ..." lines of /proc/stat (steal is the eighth value)."""
    a = [int(x) for x in start_line.split()[1:]]
    b = [int(x) for x in end_line.split()[1:]]
    delta = [y - x for x, y in zip(a, b)]
    return delta[7] / max(sum(delta[:8]), 1)


def relative_spread(values):
    """Interquartile distance over the median, with the quartiles of
    statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
