"""Arithmetic behind the reported numbers: percentiles, failure counts and
span self time.  Pure functions, no library imports."""

import math

from hostspeed import normalised

INF = math.inf
TAIL_BEYOND = 10


def median(values):
    xs = sorted(values)
    if not xs:
        raise ValueError("median of nothing")
    mid = len(xs) // 2
    if len(xs) % 2:
        return xs[mid]
    return (xs[mid - 1] + xs[mid]) / 2


# Harrell-Davis weights below this are rounding noise, not a share of the
# estimate; skipping them keeps a failed op (infinitely slow) far from the
# middle of a run out of it.
HD_NEGLIGIBLE = 1e-9


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def beta_cdf(x, a, b):
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_median(values):
    """The Harrell-Davis estimate of the median: a weighted mean of all the
    order statistics, the i-th of n weighted by the Beta((n+1)/2, (n+1)/2)
    mass on [(i-1)/n, i/n].

    Op times bunch by op kind, so the middle op of a run often sits where
    times climb steeply from one kind to the next, and the plain median
    jumps with the rank order of a few ops.  This estimate moves smoothly:
    on six runs of the same local-factors inputs its spread was half that
    of the plain median."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("median of nothing")
    a = (n + 1) / 2.0
    cdf = [beta_cdf(i / n, a, a) for i in range(n + 1)]
    total = 0.0
    for i, x in enumerate(xs):
        w = cdf[i + 1] - cdf[i]
        if w > HD_NEGLIGIBLE:
            total += w * x
    return total


def host_s(record):
    """An op's wall time in host-normalised seconds (see hostspeed.py)."""
    return normalised(record["t"], record["cal"])


def op_times(records):
    """Host-normalised op times with every failed op counted as infinitely
    slow."""
    return [host_s(r) if r["ok"] else INF for r in records]


def tail(times, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` ops past it.

    Returns (value, percentile, ops past it).  With `beyond` ops or fewer
    no percentile qualifies, and the fastest op stands in for it.
    """
    xs = sorted(times)
    n = len(xs)
    if not n:
        raise ValueError("tail of nothing")
    rank = max(1, n - beyond)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def count_failures(records):
    """(attempted, failed, wrong, ids of failed ops).

    An op fails if it raised, exited non-zero, reported not ok, or
    disagreed with its independent check; `wrong` counts the ops whose
    answer was checked and found false, as opposed to refused."""
    failed = [r["id"] for r in records if not r["ok"]]
    wrong = sum(1 for r in records if r.get("wrong"))
    return len(records), len(failed), wrong, failed


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct child spans cover.

    spans is a list of (name, start, end, parent) tuples, extra fields
    allowed, with parent the index of the enclosing span or -1."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        reach = start
        for j in sorted(children[i], key=lambda c: spans[c][1]):
            lo = max(spans[j][1], reach)
            hi = min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def end_to_end(records, setup_samples, peak_rss_kb):
    """The six user-facing numbers of one run.  Records carry their wall
    time t and calibration cal; setup_samples are (seconds, cal) pairs.
    Times are host-normalised, and None when the ops that decide them
    failed (they are unbounded).  op_p50_raw_s is the plain wall-time
    median, for context."""
    attempted, failed, _wrong, _ids = count_failures(records)
    times = op_times(records)
    p50 = hd_median(times)
    raw_p50 = hd_median([r["t"] if r["ok"] else INF for r in records])
    tail_value, tail_pct, tail_beyond = tail(times)
    busy = sum(host_s(r) for r in records)
    good = attempted - failed
    return {
        "op_p50_s": p50 if p50 != INF else None,
        "op_p50_raw_s": raw_p50 if raw_p50 != INF else None,
        "op_tail_s": tail_value if tail_value != INF else None,
        "tail_percentile": tail_pct,
        "tail_beyond": tail_beyond,
        "ops_per_s": good / busy if busy > 0 else 0.0,
        "fail_ratio": failed / attempted,
        "ok_ratio": good / attempted,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": median([normalised(t, cal) for t, cal in setup_samples]),
        "setup_samples": len(setup_samples),
        "attempted": attempted,
        "failed": failed,
    }
