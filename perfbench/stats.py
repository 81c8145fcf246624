"""Statistics the benchmark reports: medians, quartiles, supported
percentiles, due-time latency accounting and failure fractions.

Everything here is a pure function of its arguments so that
perfbench/test_stats.py can pin it down.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them (the 'exclusive' method)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p percent
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


BEYOND = 10  # samples a reported percentile needs above it
CANDIDATES = (50, 90, 99, 99.9)  # percentiles a tail may be reported at


def supports_percentile(n, p):
    """True when n samples leave at least BEYOND samples above the p-th
    percentile, so the figure is not set by a handful of outliers."""
    return n * (100.0 - p) / 100.0 >= BEYOND - 1e-9


def highest_supported_percentile(n):
    """The highest of CANDIDATES with at least BEYOND samples beyond it, or
    None when even the lowest is unsupported."""
    best = None
    for p in CANDIDATES:
        if supports_percentile(n, p):
            best = p
    return best


def due_time_latencies(due, done, ok, warmup=0.0):
    """Open-loop latencies (same unit as the inputs), each measured from the
    request's scheduled due time rather than its submission, so a generator
    that falls behind still charges the delay. A failed or refused request
    counts as infinitely late: it misses every latency limit. Requests due
    before `warmup` are left out."""
    if not len(due) == len(done) == len(ok):
        raise ValueError("due, done and ok must have equal lengths")
    out = []
    for d, t, good in zip(due, done, ok):
        if d < warmup:
            continue
        if not good:
            out.append(math.inf)
            continue
        if t < d:
            raise ValueError("a request completed before it was due")
        out.append(t - d)
    return out


def generator_lag(due, submit):
    """How far behind its schedule the generator submitted each request."""
    return [max(0.0, s - d) for d, s in zip(due, submit)]


def completions_in_window(done, ok, start, end):
    """Completions per unit time within [start, end)."""
    if end <= start:
        raise ValueError("empty window")
    return sum(1 for t, good in zip(done, ok) if good and start <= t < end) / (end - start)


def fail_frac(attempted, failed):
    """Failed, refused or expired operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted
