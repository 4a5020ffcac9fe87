"""Statistics and digests shared by run.py, spread.py and their tests."""

import hashlib
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(values):
    """The highest percentile that still has TAIL_BEYOND samples beyond it.

    Returns (value, percentile, beyond): the sorted sample with exactly
    TAIL_BEYOND larger-ranked samples after it, the share of samples at or
    below it in percent, and the number of samples beyond it. Below
    2 * TAIL_BEYOND + 1 samples that sample would lie under the median, so
    the maximum is returned instead, with percentile 100 and 0 beyond.
    """
    if not values:
        raise ValueError("tail of no values")
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return (ordered[-1], 100.0, 0)
    k = n - TAIL_BEYOND - 1
    return (ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND)


def digest(text):
    """Stable digest of one canonical output text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
