"""Independent tube-volume references for the tests.

Two ways to measure a union of fattened intervals that share no code with
the library's gap-sum kernel: a sort-and-merge sweep over the fattened
intervals, and overlap accounting over consecutive points.  And the true
``|A_t|`` of the self-similar catalog sets at a float radius, in 300-digit
decimals: a direct sum over the gaps of Cantor sets and self-similar
strings, and hull minus hole cores for the gasket and the 3D carpet (at
that precision the cancellation leaves over 200 digits down to
``t = 1e-150``).
"""

from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

_DIGITS = 300


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


@lru_cache(maxsize=None)
def _pi() -> Decimal:
    """pi to 300 digits by the series of the decimal module's documentation."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS + 2
        last, term, total, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while total != last:
            last = total
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            term = term * n / d
            total += term
    return total


def _gap_sum(t, first, ratio, count):
    """``2t + sum over gaps of min(gap, 2t)``: level k has count^(k-1) gaps of width first ratio^(k-1)."""
    total, width, number = 2 * t, first, 1
    while width > 2 * t:
        total += number * 2 * t
        width *= ratio
        number *= count
    # the narrower levels are covered whole: a geometric series
    return total + number * width / (1 - count * ratio)


def cantor_volume(set_, t) -> Decimal:
    """True ``|A_t|`` of a ``CantorLike`` set."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        r, scale = Decimal(set_.ratio), Decimal(set_.scale)
        return _gap_sum(Decimal(t), (1 - 2 * r) * scale, r, 2)


def string_volume(set_, t) -> Decimal:
    """True ``|A_t|`` of a self-similar ``FractalStringBoundary``."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        b, scale = Decimal(set_.base), Decimal(set_.scale)
        return _gap_sum(Decimal(t), scale / b, 1 / b, set_.multiplicity)


def gasket_volume(set_, t) -> Decimal:
    """True ``|A_t|`` of the Sierpinski gasket: hull and its outer band minus the uncovered hole cores."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        sqrt3, t = Decimal(3).sqrt(), Decimal(t)
        a = 2 * sqrt3 * t
        total = sqrt3 / 4 + 3 * t + _pi() * t * t
        side, number = Decimal(1) / 2, 1
        while side > a:
            total -= number * sqrt3 / 4 * (side - a) ** 2
            side /= 2
            number *= 3
        return total


def carpet_volume(set_, t) -> Decimal:
    """True ``|A_t|`` of the 3D carpet: hull and its outer band minus the uncovered hole cores."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        t = Decimal(t)
        pi = _pi()
        total = 1 + 6 * t + 3 * pi * t * t + 4 * pi * t**3 / 3
        side, number = Decimal(1) / 3, 1
        while side > 2 * t:
            total -= number * (side - 2 * t) ** 3
            side /= 3
            number *= 26
        return total
