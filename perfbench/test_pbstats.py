"""Self-tests of the benchmark's statistics (pbstats.py).

    python3 perfbench/test_pbstats.py
"""
import math
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pbstats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank_is_a_sample(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(pbstats.percentile(values, 50), 50)
        self.assertEqual(pbstats.percentile(values, 99), 99)
        self.assertEqual(pbstats.percentile(values, 100), 100)
        self.assertEqual(pbstats.percentile([7], 99), 7)
        self.assertEqual(pbstats.percentile([1, 2, 3, 4], 50), 2)

    def test_percentile_needs_ten_samples_beyond(self):
        self.assertTrue(pbstats.has_tail(1000, 99))
        self.assertFalse(pbstats.has_tail(999, 99))
        self.assertTrue(pbstats.has_tail(20, 50))
        self.assertFalse(pbstats.has_tail(19, 50))

    def test_summarize_reports_count_and_withholds_thin_tails(self):
        s = pbstats.summarize(range(500))
        self.assertEqual(s["n"], 500)
        self.assertEqual(s["p50"], 249)
        self.assertIsNone(s["p99"])
        s = pbstats.summarize(range(2000))
        self.assertEqual(s["p99"], 1979)

    def test_failed_request_sorts_past_every_limit(self):
        s = pbstats.summarize([1.0] * 990 + [math.inf] * 10)
        self.assertEqual(s["p99"], 1.0)
        s = pbstats.summarize([1.0] * 989 + [math.inf] * 11)
        self.assertEqual(s["p99"], math.inf)


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        # A 5 ms stall: the second request was due at 1 ms but sent at 5 ms.
        due = [0, 1_000_000, 2_000_000]
        sent = [0, 5_000_000, 5_000_000]
        done = [200_000, 5_200_000, 5_300_000]
        self.assertEqual(pbstats.open_loop_latencies_us(due, done, 10_000_000),
                         [200.0, 4200.0, 3300.0])
        self.assertEqual(pbstats.lateness_us(due, sent, 10_000_000), [0.0, 4000.0, 3000.0])

    def test_only_requests_due_in_the_window_count(self):
        due = [-1_000, 0, 9_999, 10_000]
        done = [5_000, 5_000, 20_000, 30_000]
        self.assertEqual(pbstats.open_loop_latencies_us(due, done, 10_000), [5.0, 10.001])

    def test_failed_request_is_infinite(self):
        lat = pbstats.open_loop_latencies_us([0], [pbstats.FAILED], 10)
        self.assertEqual(lat, [math.inf])

    def test_completed_rate(self):
        done = [-5, 0, 250_000_000, 999_999_999, 1_000_000_000, 1_000_000_001, pbstats.FAILED]
        self.assertEqual(pbstats.completed_rate(done, pbstats.NS), 4.0)


class SlicedPercentile(unittest.TestCase):
    def test_one_stalled_slice_does_not_move_the_median(self):
        # Three slices of 1000 samples; the middle one holds a stall.
        times = [i for i in range(3000)]
        values = [1.0] * 3000
        for i in range(1000, 1100):
            values[i] = 50.0
        median, slices, smallest = pbstats.sliced_percentile(times, values, 3000, 1000, 99)
        self.assertEqual((median, slices, smallest), (1.0, 3, 1000))
        # Over the whole window the stall is the p99.
        self.assertEqual(pbstats.summarize(values)["p99"], 50.0)

    def test_remainder_joins_the_last_slice_and_thin_slices_report_none(self):
        median, slices, smallest = pbstats.sliced_percentile([0, 5, 12], [1, 2, 3], 13, 5, 50)
        self.assertEqual((median, slices, smallest), (None, 2, 1))
        times = list(range(2500))
        median, slices, smallest = pbstats.sliced_percentile(times, times, 2500, 1000, 99)
        self.assertEqual((slices, smallest), (2, 1000))
        self.assertEqual(median, statistics.median([989, 2484]))


class ProcStat(unittest.TestCase):
    LINE = ("4242 (amm_node) S 1 4242 4242 0 -1 4194560 300 0 0 0 "
            "150 25 0 0 20 0 1 0 12345 1000000 250 18446744073709551615")

    def test_cpu_fields(self):
        self.assertEqual(pbstats.proc_cpu_ticks(self.LINE), 175)

    def test_command_with_spaces_and_parentheses(self):
        line = self.LINE.replace("(amm_node)", "(a b) (c)")
        self.assertEqual(pbstats.proc_cpu_ticks(line), 175)

    def test_busy_fraction(self):
        end = self.LINE.replace(" 150 25 ", " 250 75 ")
        # 150 ticks at 100/s over 2 s of wall time: 0.75 of one core.
        self.assertAlmostEqual(pbstats.cpu_busy_frac(self.LINE, end, 2 * pbstats.NS, 100), 0.75)


    def test_host_steal(self):
        a = "cpu  100 0 50 800 10 0 5 20 0 0"
        b = "cpu  200 0 100 1500 10 0 15 120 7 0"
        # 100 steal ticks out of 100+50+700+10+100 = 960 ticks (guest excluded).
        self.assertAlmostEqual(pbstats.host_steal_frac(a, b), 100 / 960)


class Files(unittest.TestCase):
    def test_rows_round_trip_and_reject_partial_rows(self):
        import array
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "rows.bin")
            with open(path, "wb") as f:
                array.array("q", [1, -2, 3, 4, 5, -6]).tofile(f)
            self.assertEqual([list(c) for c in pbstats.read_rows(path, 3)],
                             [[1, 4], [-2, 5], [3, -6]])
            with self.assertRaises(ValueError):
                pbstats.read_rows(path, 4)

    def test_spread(self):
        self.assertAlmostEqual(pbstats.relative_spread([10, 10, 10, 10]), 0.0)
        self.assertGreater(pbstats.relative_spread([8, 9, 10, 11, 12]), 0.2)


if __name__ == "__main__":
    unittest.main()
