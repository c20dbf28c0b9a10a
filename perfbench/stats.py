"""Statistics of the end-to-end benchmark (self-tested by test_perfbench.py).

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, always with the sample count, so a
short run never reports a "p99" that rests on one sample.  Open-loop
latency is timed from each request's *scheduled* send time: a stall in
the server then inflates every request that was due while it lasted
(no coordinated omission), and the generator's own lateness is reported
next to it.
"""

import math
import statistics

MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


def nearest_rank(sorted_values, percentile):
    """The nearest-rank percentile of already sorted values."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(values, wanted=99.0):
    """The highest percentile <= `wanted` with at least MIN_BEYOND samples
    beyond it, as a dict {percentile, value, samples}.  With too few
    samples for any tail (fewer than 2 * MIN_BEYOND) the percentile is
    the median's 50 and the value the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    supported = 100.0 * (1.0 - MIN_BEYOND / n)
    percentile = max(50.0, min(wanted, supported))
    return {
        "percentile": percentile,
        "value": nearest_rank(ordered, percentile),
        "samples": n,
    }


def summary(values):
    """Median, quartiles and supported p99 tail of one timing series."""
    tail = tail_percentile(values)
    out = {"median": median(values), "samples": len(values),
           "tail_percentile": tail["percentile"], "tail": tail["value"]}
    if len(values) >= 2:
        q1, _, q3 = quartiles(values)
        out.update(q1=q1, q3=q3, iqr_share=iqr_share(values))
    return out


def open_loop_latencies(scheduled, received):
    """Latency of each answered request, from when it was due to be sent
    to when its answer arrived.  Both are dicts keyed by request id;
    requests without an answer are left out (count them as failures)."""
    return {key: received[key] - due for key, due in scheduled.items()
            if key in received}


def generator_lag(scheduled, sent):
    """How late the load generator sent each request: max and median
    lateness over every request it sent."""
    lags = [sent[key] - due for key, due in scheduled.items() if key in sent]
    if not lags:
        return {"max": 0.0, "median": 0.0, "samples": 0}
    return {"max": max(lags), "median": median(lags), "samples": len(lags)}
