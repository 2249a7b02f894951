"""Independent 1D tube-volume references for the tests.

Two ways to measure a union of fattened intervals that share no code with
the library's gap-sum kernel: a sort-and-merge sweep over the fattened
intervals, and overlap accounting over consecutive points.
"""

import numpy as np


def fattened_length(intervals, t):
    """Measure of the union of ``(a - t, b + t)``: sort, merge overlaps, add up."""
    merged = []
    for a, b in sorted((float(a) - t, float(b) + t) for a, b in intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return float(sum(b - a for a, b in merged))


def union_measure_of_fattened_points(points, t):
    """Measure of ``union of (p - t, p + t)`` by direct overlap accounting.

    ``2 t n`` minus the overlap ``max(0, 2t - gap)`` of each consecutive pair.
    """
    ps = sorted(float(p) for p in points)
    total = 2.0 * t * len(ps)
    for lo, hi in zip(ps, ps[1:]):
        gap = hi - lo
        if gap < 2.0 * t:
            total -= 2.0 * t - gap
    return total


def cantor_segments(set_, t):
    """Starts and common length of the level-n construction segments whose internal gaps are all <= 2t."""
    n = 0
    while set_.largest_gap * set_.ratio**n > 2.0 * t:
        n += 1
    starts = np.array([0.0])
    length = set_.scale
    for _ in range(n):
        starts = np.concatenate([starts, starts + (1.0 - set_.ratio) * length])
        length *= set_.ratio
    return np.sort(starts), length
