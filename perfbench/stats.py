"""Statistics of the end-to-end benchmark: percentiles, geometric mean,
open-loop latency, span self time and ratios.  Pure functions; perfbench/test_stats.py tests
them.
"""

import math

# Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples):
    """The usual median (mean of the middle two for an even count)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def geomean(samples):
    """Geometric mean: every sample weighs the same whatever its scale, so
    a few long designs do not drown the short ones."""
    if not samples or min(samples) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(x) for x in samples) / len(samples))


def tail(samples):
    """The highest percentile in TAIL_PERCENTILES that leaves at least
    MIN_BEYOND samples above its nearest rank.

    Returns {"value", "percentile", "n"}.  With fewer samples than any
    percentile allows (n < 20) there is no tail; the maximum is returned
    with "percentile" 100 so that the report says so.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of no samples")
    chosen = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            chosen = p
    if chosen is None:
        return {"value": max(samples), "percentile": 100.0, "n": n}
    return {"value": percentile(samples, chosen), "percentile": chosen, "n": n}


def latency_ms(job):
    """Open-loop latency: from the time the job was due, not the time it
    was sent, so a late generator cannot hide a stall."""
    return (job["done"] - job["due"]) * 1e3


def lag_ms(job):
    """How late the generator sent the job."""
    return max(0.0, job["sent"] - job["due"]) * 1e3


def ratio(num, den):
    """A ratio that keeps its base: {"value", "num", "den"}.  A ratio over
    an empty base is 0 and says so through den == 0."""
    return {"value": (num / den) if den else 0.0, "num": num, "den": den}


def format_ratio(r):
    return "%.4f (%s/%s)" % (r["value"], _fmt(r["num"]), _fmt(r["den"]))


def _fmt(x):
    return ("%d" % x) if float(x).is_integer() else ("%.6g" % x)


def max_overlap(spans):
    """The largest number of spans open at one instant (a span covers
    [ts, ts + dur); one ending as another starts does not overlap it)."""
    edges = sorted([(s.ts, 1) for s in spans] + [(s.end, -1) for s in spans],
                   key=lambda e: (e[0], e[1]))
    depth = best = 0
    for _, step in edges:
        depth += step
        best = max(best, depth)
    return best


class Span:
    __slots__ = ("cat", "name", "ts", "dur", "tid", "args", "parent", "children", "self_us")

    def __init__(self, event):
        self.cat = event.get("cat", "")
        self.name = event.get("name", "")
        self.ts = event["ts"]
        self.dur = event.get("dur", 0)
        self.tid = event.get("tid", 0)
        self.args = event.get("args", {})
        self.parent = None
        self.children = []
        self.self_us = self.dur

    @property
    def end(self):
        return self.ts + self.dur

    def descendants(self):
        stack = list(self.children)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)


def build_spans(events):
    """Nests the complete ("X") events of a Chrome trace into per-thread
    trees and fills in self time: a span's duration minus the part of it
    that its child spans cover.  Returns every span, in start order."""
    spans = [Span(e) for e in events if e.get("ph") == "X"]
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for group in by_tid.values():
        # Parents first at equal start; the longer span encloses.
        group.sort(key=lambda s: (s.ts, -s.dur))
        stack = []
        for s in group:
            while stack and s.ts >= stack[-1].end:
                stack.pop()
            if stack:
                s.parent = stack[-1]
                stack[-1].children.append(s)
            stack.append(s)
    for s in spans:
        s.self_us = s.dur - _covered(s)
    spans.sort(key=lambda s: s.ts)
    return spans


def _covered(span):
    """Microseconds of `span` covered by the union of its children."""
    total = 0
    cursor = span.ts
    for c in sorted(span.children, key=lambda c: c.ts):
        lo = max(c.ts, cursor)
        hi = min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
