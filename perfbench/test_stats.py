"""Tests of perfbench/stats.py.  Run: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def span(name, ts, dur, tid=0):
    return {"ph": "X", "cat": "t", "name": name, "ts": ts, "dur": dur, "tid": tid}


class TailTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.tail(list(range(1000)))["percentile"], 99.0)
        self.assertEqual(stats.tail(list(range(999)))["percentile"], 95.0)

    def test_at_least_ten_samples_beyond_the_reported_value(self):
        for n in (20, 37, 100, 199, 200, 999, 1000, 5000, 10000):
            samples = list(range(n))
            t = stats.tail(samples)
            self.assertEqual(t["n"], n)
            self.assertGreaterEqual(sum(1 for x in samples if x > t["value"]), 10, n)

    def test_highest_qualifying_percentile_is_chosen(self):
        # n = 200: p95 leaves exactly 10 above its rank, p99 only 2.
        self.assertEqual(stats.tail(list(range(200)))["percentile"], 95.0)
        self.assertEqual(stats.tail(list(range(199)))["percentile"], 90.0)

    def test_too_few_samples_report_the_maximum(self):
        t = stats.tail([5.0, 1.0, 3.0] * 4)  # n = 12, as in one Table-1 pass
        self.assertEqual(t, {"value": 5.0, "percentile": 100.0, "n": 12})

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(stats.geomean([0.5]), 0.5)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])

    def test_percentile_and_median(self):
        self.assertEqual(stats.percentile([3, 1, 2, 4], 50), 2)
        self.assertEqual(stats.percentile([3, 1, 2, 4], 75), 3)
        self.assertEqual(stats.median([3, 1, 2, 4]), 2.5)
        self.assertEqual(stats.median([3, 1, 2]), 2)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        job = {"due": 1.0, "sent": 1.5, "done": 2.25}
        self.assertAlmostEqual(stats.latency_ms(job), 1250.0)
        self.assertAlmostEqual(stats.lag_ms(job), 500.0)

    def test_an_early_send_is_no_lag(self):
        self.assertEqual(stats.lag_ms({"due": 2.0, "sent": 1.999, "done": 3.0}), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = stats.build_spans([
            span("root", 0, 100),
            span("a", 10, 20),
            span("a.child", 12, 5),
            span("b", 50, 10),
        ])
        by_name = {s.name: s for s in spans}
        self.assertEqual(by_name["root"].self_us, 70)
        self.assertEqual(by_name["a"].self_us, 15)
        self.assertEqual(by_name["a.child"].self_us, 5)
        self.assertIs(by_name["a.child"].parent, by_name["a"])
        self.assertIs(by_name["b"].parent, by_name["root"])

    def test_threads_do_not_nest(self):
        spans = stats.build_spans([span("main", 0, 100, tid=0), span("worker", 10, 50, tid=1)])
        by_name = {s.name: s for s in spans}
        self.assertEqual(by_name["main"].self_us, 100)
        self.assertIsNone(by_name["worker"].parent)

    def test_equal_start_nests_the_shorter_span(self):
        spans = stats.build_spans([span("inner", 0, 40), span("outer", 0, 100)])
        by_name = {s.name: s for s in spans}
        self.assertIs(by_name["inner"].parent, by_name["outer"])
        self.assertEqual(by_name["outer"].self_us, 60)

    def test_sequential_spans_are_siblings(self):
        spans = stats.build_spans([span("first", 0, 10), span("second", 10, 10)])
        self.assertTrue(all(s.parent is None for s in spans))

    def test_max_overlap(self):
        spans = stats.build_spans([span("a", 0, 10, tid=0), span("b", 5, 10, tid=1),
                                   span("c", 8, 1, tid=2), span("d", 15, 5, tid=3)])
        self.assertEqual(stats.max_overlap(spans), 3)
        self.assertEqual(stats.max_overlap([]), 0)

    def test_counter_events_are_ignored(self):
        spans = stats.build_spans([span("x", 0, 10), {"ph": "C", "name": "c", "ts": 5}])
        self.assertEqual([s.name for s in spans], ["x"])


class RatioTest(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = stats.ratio(3, 4)
        self.assertEqual(r, {"value": 0.75, "num": 3, "den": 4})
        self.assertEqual(stats.format_ratio(r), "0.7500 (3/4)")

    def test_empty_base(self):
        r = stats.ratio(0, 0)
        self.assertEqual(r["value"], 0.0)
        self.assertEqual(stats.format_ratio(r), "0.0000 (0/0)")

    def test_fractional_base(self):
        self.assertEqual(stats.format_ratio(stats.ratio(1.5, 3)), "0.5000 (1.5/3)")


if __name__ == "__main__":
    unittest.main()
