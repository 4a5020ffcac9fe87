"""Tests for idsbench's statistics and digest helpers.

Run from the root of a checkout:

    python3 -m unittest discover -s idsbench -p 'test_*.py'
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(benchstats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchstats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_single_value(self):
        self.assertEqual(benchstats.median([7.5]), 7.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [0.91, 1.02, 0.97, 1.10, 0.95, 1.01, 0.99, 1.05, 0.93, 1.00]
        self.assertEqual(benchstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchstats.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(benchstats.spread([4.0] * 10), 0.0)


class TailTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        value, percentile, beyond = benchstats.tail(values)
        self.assertEqual(value, 90.0)
        self.assertEqual(percentile, 90.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1000)]
        shuffled = values[1::2] + values[0::2]
        self.assertEqual(benchstats.tail(values), benchstats.tail(shuffled))
        self.assertEqual(benchstats.tail(values)[1], 99.0)

    def test_twenty_one_samples_give_the_median(self):
        values = [float(v) for v in range(21)]
        self.assertEqual(benchstats.tail(values), (10.0, 100.0 * 11 / 21, 10))
        self.assertEqual(benchstats.tail(values)[0], benchstats.median(values))

    def test_twenty_or_fewer_samples_fall_back_to_the_maximum(self):
        # The sample with ten beyond it would lie below the median.
        self.assertEqual(benchstats.tail([3.0, 9.0, 1.0]), (9.0, 100.0, 0))
        self.assertEqual(benchstats.tail([float(v) for v in range(20)]),
                         (19.0, 100.0, 0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.tail([])


class DigestTest(unittest.TestCase):
    TEXT = '{"product":"SentryNID","auc":0.79290576099922805}'

    def test_digest_is_pinned(self):
        # A changed digest function would invalidate every recorded
        # reference in references.json.
        self.assertEqual(
            benchstats.digest("idseval"),
            "60d401a9fdb72bef929d083729b7eb5781b4af7dd1684bba6609f94fb0c8dd9f")

    def test_same_text_same_digest(self):
        self.assertEqual(benchstats.digest(self.TEXT),
                         benchstats.digest(str(self.TEXT)))

    def test_one_digit_changes_the_digest(self):
        changed = self.TEXT.replace("805}", "806}")
        self.assertNotEqual(benchstats.digest(self.TEXT),
                            benchstats.digest(changed))


if __name__ == "__main__":
    unittest.main()
