"""Tests for the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_the_acceptance_rule(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 11.5, 12.5, 30.0]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_of_ten_values(self):
        q1, q2, q3 = stats.quartiles([float(v) for v in range(1, 11)])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(stats.percentile(values, 50), 50.0)
        self.assertEqual(stats.percentile(values, 90), 90.0)
        self.assertEqual(stats.percentile(values, 99), 99.0)
        self.assertEqual(stats.percentile(values, 100), 100.0)
        self.assertEqual(stats.percentile([5.0], 99), 5.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0, 4.0], 50), 2.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)


class SupportedPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertTrue(stats.supports_percentile(100, 90))
        self.assertFalse(stats.supports_percentile(99, 90))
        self.assertTrue(stats.supports_percentile(1000, 99))
        self.assertFalse(stats.supports_percentile(999, 99))
        self.assertTrue(stats.supports_percentile(20, 50))
        self.assertFalse(stats.supports_percentile(19, 50))

    def test_highest_supported(self):
        self.assertIsNone(stats.highest_supported_percentile(19))
        self.assertEqual(stats.highest_supported_percentile(20), 50)
        self.assertEqual(stats.highest_supported_percentile(999), 90)
        self.assertEqual(stats.highest_supported_percentile(1000), 99)
        self.assertEqual(stats.highest_supported_percentile(10000), 99.9)


class DueTimeLatency(unittest.TestCase):
    def test_measured_from_due_not_submit(self):
        # The second request was submitted late; its lateness is charged.
        due = [0.0, 1.0, 2.0]
        submit = [0.0, 1.5, 2.0]
        done = [0.25, 1.75, 2.5]
        self.assertEqual(stats.due_time_latencies(due, done, [True] * 3), [0.25, 0.75, 0.5])
        self.assertEqual(stats.generator_lag(due, submit), [0.0, 0.5, 0.0])

    def test_warmup_requests_are_left_out(self):
        due = [0.0, 1.0, 2.0]
        done = [0.5, 1.5, 2.5]
        self.assertEqual(stats.due_time_latencies(due, done, [True] * 3, warmup=1.0), [0.5, 0.5])

    def test_failed_requests_miss_every_limit(self):
        lat = stats.due_time_latencies([0.0, 1.0, 2.0], [0.5, 1.0, 2.5], [True, False, True])
        self.assertEqual(lat[0], 0.5)
        self.assertTrue(math.isinf(lat[1]))
        self.assertTrue(math.isinf(stats.percentile(lat, 90)))
        self.assertEqual(stats.percentile(lat, 50), 0.5)

    def test_completion_before_due_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.due_time_latencies([1.0], [0.5], [True])

    def test_lengths_must_match(self):
        with self.assertRaises(ValueError):
            stats.due_time_latencies([0.0, 1.0], [0.5], [True])

    def test_completions_in_window(self):
        done = [0.5, 1.0, 1.5, 2.0, 2.5, 3.5]
        ok = [True, True, False, True, True, True]
        # [1, 3): 1.0, 2.0, 2.5 count; 1.5 failed; 3.5 is outside.
        self.assertEqual(stats.completions_in_window(done, ok, 1.0, 3.0), 1.5)
        with self.assertRaises(ValueError):
            stats.completions_in_window(done, ok, 2.0, 2.0)


class FailFrac(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.fail_frac(10, 0), 0.0)
        self.assertEqual(stats.fail_frac(10, 3), 0.3)
        self.assertEqual(stats.fail_frac(4, 4), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_frac(3, 4)
        with self.assertRaises(ValueError):
            stats.fail_frac(3, -1)


if __name__ == "__main__":
    unittest.main()
