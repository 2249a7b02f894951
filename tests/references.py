"""Independent distance and tube-volume references for the tests.

Distances to the Sierpinski gasket by the level-by-level digit descent,
which the library replaced by a closed form over the same digits, with the
big triangle's outline as three point-to-segment distances.  Distances to
the 3D carpet by the level-by-level float descent over base-3 digits, which
the library replaced by integer steps of six levels.  Distances to
fractal-string boundaries by a search in the sorted list of their points,
which the library replaced by a table of levels.

Two ways to measure a union of fattened intervals that share no code with
the library's gap-sum kernel: a sort-and-merge sweep over the fattened
intervals, and overlap accounting over consecutive points.  And the true
``|A_t|`` of the self-similar catalog sets at a float radius, in 300-digit
decimals: a direct sum over the gaps of Cantor sets and self-similar
strings, and hull minus hole cores for the gasket and the 3D carpet (at
that precision the cancellation leaves over 200 digits down to
``t = 1e-150``).

The Monte Carlo tube oracle one radius at a time, as the library ran it
before a curve's radii shared their draws.  The gasket grid oracle's row
count at six radii, ``tau -+ tol`` about each flip, as the library ran it
before it bounded how far a row's ends can move.  The truncated tube
formula one radius at a time, as the library ran it before it took all
radii in one array.  The Cantor-set descent one level per pass, and the
conjugate-closure check one pole at a time.  And helpers that only the tests
ask for: a closed form's residue at a genuine pole as a ``Pole``, a closed
form to and from JSON, a closed form of a scaled set, the real poles and
largest real part of a tube series, and the distance from one point.
"""

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from fractalzeta import geometry as geo
from fractalzeta.dimensions import Pole
from fractalzeta.errors import NotAPole
from fractalzeta.geometry import distances_to_set
from fractalzeta.tube import tube_term
from fractalzeta.zeta import ClosedFormZeta, ElementaryTerm, LatticeTerm

_DIGITS = 300
_SQRT3 = math.sqrt(3.0)


def triangle_outline_distance(qx, qy):
    """Distance to the outline of the unit triangle: the least of three point-to-segment distances."""
    e = np.full(qx.shape, np.inf)
    corners = ((0.0, 0.0), (1.0, 0.0), (0.5, _SQRT3 / 2.0))
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        ux, uy = bx - ax, by - ay
        wx, wy = qx - ax, qy - ay
        tt = np.clip(ux * wx + uy * wy, 0.0, 1.0)
        e = np.minimum(e, np.hypot(wx - ux * tt, wy - uy * tt))
    return e


def gasket_distances_descent(pts):
    """Gasket distances by descent, one level at a time, over base-2 barycentric digits.

    A point in the big triangle descends into the subtriangle of its largest
    coordinate (the first one on ties), ``lam <- 2 lam - e_i``, until all
    three coordinates are below 1/2: it is then in the middle hole, whose
    edges lie on ``lam_i = 1/2``.  Points that find no hole by side 2^-52
    are on the set.
    """
    pts = np.asarray(pts, dtype=float)
    px, py = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - px - py / _SQRT3, px - py / _SQRT3, (2.0 / _SQRT3) * py
    inside = (l0 > 0.0) & (l1 > 0.0) & (l2 > 0.0)
    out = np.zeros(px.size)
    out[~inside] = triangle_outline_distance(px[~inside], py[~inside])
    idx = np.flatnonzero(inside)
    l0, l1, l2 = l0[idx], l1[idx], l2[idx]
    s = 1.0
    while idx.size and s >= np.finfo(float).eps:
        c0 = (l0 >= l1) & (l0 >= l2)
        c1 = (l1 >= l2) & ~c0
        lmax = np.maximum(np.maximum(l0, l1), l2)
        hole = lmax < 0.5
        out[idx[hole]] = (s * _SQRT3 / 4.0) * (1.0 - 2.0 * lmax[hole])
        k = np.flatnonzero(~hole)
        idx, l0, l1, l2, c0, c1 = idx[k], l0[k], l1[k], l2[k], c0[k], c1[k]
        l0, l1, l2 = 2.0 * l0 - c0, 2.0 * l1 - c1, 2.0 * l2 - ~(c0 | c1)
        s *= 0.5
    return out


def carpet_distances_descent(pts):
    """Carpet distances by descent, one level at a time, over base-3 digits.

    A point in the open unit cube takes the digit ``min(floor(3 y), 2)`` of
    each coordinate and steps to ``3 y - digit``; it is in a hole when all
    three digits of a level are 1, at ``(s / 3) min(f, 1 - f)`` from its
    faces.  Points that find no hole while the side ``s`` is at least
    2^-52 are on the set.  Outside the cube the distance is the norm of the
    offset, which squares it: rows far from the cube or within about
    1e-154 of it are out of range.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.linalg.norm(np.maximum(np.maximum(-pts, pts - 1.0), 0.0), axis=1)
    idx = np.flatnonzero(((pts > 0.0) & (pts < 1.0)).all(axis=1))
    y = pts[idx].T.copy()
    s = 1.0
    while idx.size and s >= np.finfo(float).eps:
        y *= 3.0
        dig = np.floor(y)
        np.clip(dig, 0.0, 2.0, out=dig)
        y -= dig
        hole = (dig[0] == 1.0) & (dig[1] == 1.0) & (dig[2] == 1.0)
        if hole.any():
            f = y[:, hole]
            out[idx[hole]] = (s / 3.0) * np.minimum(f, 1.0 - f).min(axis=0)
            keep = ~hole
            idx, y = idx[keep], y[:, keep]
        s /= 3.0
    return out


def string_points(set_, min_length=0.0, max_count=2_000_000):
    """Descending array of a string's boundary points, plus the residual segment top.

    Returns ``(points, tail_top)``: all points ``a_k`` whose following gap
    exceeds ``min_length`` are listed, up to ``max_count`` of them, level by
    level; the remaining points fill ``[0, tail_top]``.
    """
    if not set_.is_self_similar:
        ls = np.asarray(set_.lengths)
        return set_.total_length - np.concatenate([[0.0], np.cumsum(ls[:-1])]), 0.0
    b, m = set_.base, int(set_.multiplicity)
    pts = [np.array([set_.total_length])]
    count, n, top = 0, 1, set_.total_length
    while True:
        ln = set_.scale * b**-n
        k = m ** (n - 1)
        if ln <= min_length or count + k > max_count:
            break
        pts.append(top - ln * np.arange(1, k + 1))
        top = set_.level_tail(n)
        count += k
        n += 1
    return np.concatenate(pts), top


def string_distances_list(set_, x, min_length=0.0, max_count=2_000_000):
    """Distances to a string's listed points by binary search, and to ``[0, tail_top]`` as a segment."""
    pts, tail_top = string_points(set_, min_length, max_count)
    asc = np.sort(pts)
    j = np.searchsorted(asc, x)
    d = np.full(x.shape, np.inf)
    has_left = j > 0
    d[has_left] = np.abs(x[has_left] - asc[j[has_left] - 1])
    has_right = j < asc.size
    d[has_right] = np.minimum(d[has_right], np.abs(asc[j[has_right]] - x[has_right]))
    return np.minimum(d, np.maximum(np.maximum(-x, x - tail_top), 0.0)), tail_top


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


def mc_tube_per_radius(set_, t, n_samples, seed, chunk=1 << 17):
    """Monte Carlo ``(volume, half_width)`` of ``|A_t|`` drawn for radius ``t`` alone.

    Chunk ``i`` of the uniforms comes from the Philox stream ``(seed, i)`` and
    is scaled to the box fattened by ``t`` as ``lo + (hi - lo) u`` over the
    whole ``(n, N)`` array; a hit is a full distance under ``t``.
    """
    lo, hi = set_.bounds()
    lo, hi = lo - t, hi + t
    hits = 0
    for i, start in enumerate(range(0, n_samples, chunk)):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), i))))
        x = lo + (hi - lo) * g.random((min(chunk, n_samples - start), len(lo)))
        hits += int((set_.distances(x) < t).sum())
    box_vol = float(np.prod(hi - lo))
    p = hits / n_samples
    return box_vol * p, box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)


def _outline_left(y, taus):
    """Left end of each row ``y`` in the ``tau``-neighbourhood of the gasket's outline, one line per radius."""
    ya = y - _SQRT3 / 2.0
    sq = taus * taus
    disc = np.where(np.abs(y) <= taus, -np.sqrt(np.maximum(sq - y * y, 0.0)), np.inf)
    apex = np.where(np.abs(ya) <= taus, 0.5 - np.sqrt(np.maximum(sq - ya * ya, 0.0)), np.inf)
    band = np.where((taus > 0.0) & (2.0 * y >= taus) & (2.0 * ya <= taus), (y - 2.0 * taus) / _SQRT3, np.inf)
    return np.minimum(np.minimum(disc, apex), band)


def gasket_grid_counts_six_flips(t, cell):
    """The gasket grid oracle's ``(inside, boundary, exact rows)`` by the six-radius row count.

    Every row's interval, and every row-core pair, is evaluated at ``tau -+ tol``
    about each flip ``tau`` of ``t - margin, t, t + margin``; a row whose counts
    or first centres differ between the two takes exact distances.  The
    library replaced it by the three radii ``tau - tol`` and a bound on how far
    the ends can move.  Needs ``t - margin >= cell``.
    """
    gasket = geo.SierpinskiGasket()
    lo, hi = gasket.bounds()
    origin = lo - t - cell * geo._GRID_OFFSET
    nx, ny = (np.ceil((hi + t - origin) / cell).astype(np.int64) + 1).tolist()
    (ox, oy), margin = origin.tolist(), cell * math.sqrt(2.0) / 2.0
    assert t - margin >= cell
    tol = geo._GRID_NEAR_FLIP * (1.0 + t)
    taus = (np.array([[t - margin], [t], [t + margin]]) + [-tol, tol]).reshape(6, 1)
    core_taus = np.where(np.repeat(taus[::2] > 0.0, 2, axis=0), taus, np.nan)
    deepest = float(taus[::2][taus[::2] > 0.0].min(initial=np.inf))

    def moved(first, last, crossed=True):
        count = np.where(crossed, np.maximum(last - first + 1.0, 0.0), 0.0)
        return count, ((count[::2] != count[1::2]) | ((count[::2] > 0.0) & (first[::2] != first[1::2]))).any(0)

    rows = np.arange(ny)
    y = oy + (rows + 0.5) * cell
    left = (_outline_left(y, taus) - ox) / cell - 0.5
    right = (1.0 - 2.0 * ox) / cell - 1.0 - left
    count, exact = moved(np.clip(np.ceil(left), 0, nx), np.clip(np.floor(right), -1, nx - 1))
    level = np.flatnonzero((y >= 0.0) & (y <= _SQRT3 / 2.0))
    stack = [(level, np.zeros(level.size), np.zeros(level.size), 1.0)] if deepest < 1.0 / (4.0 * _SQRT3) else []
    while stack:
        r, a, b, side = stack.pop()
        h = side * (_SQRT3 / 2.0)
        u = y.take(r) - b
        near = np.flatnonzero((u >= 2.0 * deepest) & (u <= h / 2.0 - deepest))
        if near.size:
            un, rn = u.take(near), r.take(near)
            centre = (a.take(near) + side / 2.0 - ox) / cell - 0.5
            half = (un - 2.0 * core_taus) / (_SQRT3 * cell)
            crossed = (half >= 0.0) & (un <= h / 2.0 - core_taus)
            cut, hit = moved(np.ceil(centre - half), np.floor(centre + half), crossed)
            spread = (rn + rows.size * np.arange(3)[:, None]).ravel()
            count[::2] -= np.bincount(spread, cut[::2].ravel(), 3 * rows.size).reshape(3, -1)
            exact[rn[hit]] = True
        if side / (8.0 * _SQRT3) > deepest:
            low = u < h / 2.0
            two = np.flatnonzero(low)
            r = np.concatenate((r, r[two]))
            a = np.concatenate((a + np.where(low, 0.0, side / 4.0), a[two] + side / 2.0))
            b = np.concatenate((b + np.where(low, 0.0, h / 2.0), b[two]))
            # pieces of 2^14 row-hole pairs bound the memory
            for k in range(0, r.size, 1 << 14):
                stack.append((r[k : k + (1 << 14)], a[k : k + (1 << 14)], b[k : k + (1 << 14)], side / 2.0))
    inside = int(count[2].sum(where=~exact))
    boundary = int((count[4] - count[0]).sum(where=~exact))
    redo = rows[exact]
    for iy in redo:
        d = gasket.distances(np.column_stack((ox + (np.arange(nx) + 0.5) * cell, np.full(nx, oy + (iy + 0.5) * cell))))
        inside += int(np.count_nonzero(d < t))
        boundary += int(np.count_nonzero(np.abs(d - t) <= margin))
    return inside, boundary, redo


def tube_formula_per_radius(series, t) -> float:
    """The truncated tube formula at one radius, a ``tube_term`` call per pole added in series order.

    Conjugate pairs combine as twice the real part of the Im > 0 member; the
    library evaluates all radii in one array instead.
    """
    total = 0.0 + 0.0j
    for p in series.poles:
        if p.location.imag < -1e-12:
            continue
        term = tube_term(p, t, series.ambient_dim)
        total += 2.0 * term.real + 0.0j if p.location.imag > 1e-12 else term
    return float(total.real)


def cantor_distances_per_level(set_, x):
    """Distances to a middle-gap Cantor set by descent, one numpy pass per level.

    The library's descent, before it stepped over the levels at which every
    remaining point lies in the leftmost interval below its first gap.
    """
    ratio, scale = set_.ratio, set_.scale
    out = np.maximum(np.maximum(-x, x - scale), 0.0)
    inside = (x > 0.0) & (x < scale)
    xi = x[inside]
    res = np.empty(xi.shape)
    idx = np.arange(xi.size)
    a = np.zeros(xi.size)
    L = scale
    ulp_top = float(np.spacing(scale))
    while idx.size:
        xa = xi[idx]
        if L < ulp_top:
            fine = L < np.spacing(xa)
            res[idx[fine]] = np.minimum(xa[fine] - a[fine], np.abs(a[fine] + L - xa[fine]))
            keep = ~fine
            xa, a, idx = xa[keep], a[keep], idx[keep]
        g1 = a + ratio * L
        g2 = a + (1.0 - ratio) * L
        in_gap = (xa >= g1) & (xa <= g2)
        res[idx[in_gap]] = np.minimum(xa[in_gap] - g1[in_gap], g2[in_gap] - xa[in_gap])
        stay = ~in_gap
        a = np.where(xa > g2, g2, a)[stay]
        idx = idx[stay]
        L *= ratio
    out[inside] = res
    return out


def conjugate_closed_per_pole(poles) -> bool:
    """Conjugate closure by a scan of the whole list for each nonreal pole, its first match within 1e-9 taken."""
    for p in poles:
        if abs(p.location.imag) <= 1e-9:
            continue
        target = p.location.conjugate()
        match = [q for q in poles if abs(q.location - target) <= 1e-9]
        if not match:
            return False
        q = match[0]
        if p.residue is not None and q.residue is not None:
            if abs(q.residue - p.residue.conjugate()) > 1e-8 * max(1.0, abs(p.residue)):
                return False
    return True


def residues_closed_form(zeta, omega: complex) -> Pole:
    """Residue of a closed form at a genuine pole, as a :class:`Pole`.

    Raises :class:`NotAPole` when ``omega`` is not within 1e-9 of a pole
    candidate or when the candidate is a removable point by the rule that
    :meth:`ClosedFormZeta.poles` applies.
    """
    residue = zeta._genuine_residue(omega)
    if residue is None:
        raise NotAPole(f"{omega} is a removable point (term residues cancel)")
    return Pole(complex(omega), order=1, residue=residue)


def zeta_to_json(zeta: ClosedFormZeta) -> dict:
    return {
        "ambient_dim": zeta.ambient_dim,
        "delta": zeta.delta,
        "lattice_terms": [
            {
                "amplitude": t.amplitude,
                "base_scale": t.base_scale,
                "roots": list(t.roots),
                "lattice": list(t.lattice) if t.lattice is not None else None,
            }
            for t in zeta.lattice_terms
        ],
        "elementary_terms": [
            {"coefficient": t.coefficient, "shift": t.shift, "pole": t.pole}
            for t in zeta.elementary_terms
        ],
    }


def zeta_from_json(data: dict) -> ClosedFormZeta:
    lat = tuple(
        LatticeTerm(
            float(t["amplitude"]),
            float(t["base_scale"]),
            tuple(float(r) for r in t["roots"]),
            tuple(t["lattice"]) if t.get("lattice") is not None else None,
        )
        for t in data.get("lattice_terms", [])
    )
    ele = tuple(
        ElementaryTerm(float(t["coefficient"]), int(t["shift"]), float(t["pole"]))
        for t in data.get("elementary_terms", [])
    )
    return ClosedFormZeta(int(data["ambient_dim"]), float(data["delta"]), lat, ele)


def real_poles(series) -> tuple[Pole, ...]:
    """The poles of a ``TubeFormulaSeries`` on the real axis."""
    return tuple(p for p in series.poles if abs(p.location.imag) < 1e-12)


def max_real_part(series) -> float:
    """The largest real part among a ``TubeFormulaSeries``' poles."""
    return max(p.location.real for p in series.poles)


def scale_zeta(zeta: ClosedFormZeta, lam: float) -> ClosedFormZeta:
    """Representation of ``s -> lam^s * zeta(s)`` with delta replaced by lam*delta.

    This is the zeta function of the set scaled by ``lam``: pole locations
    are unchanged and each simple-pole residue is multiplied by
    ``lam**omega``.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("scaling factor must be positive and finite")
    lat = tuple(
        LatticeTerm(t.amplitude, t.base_scale / lam, t.roots, t.lattice) for t in zeta.lattice_terms
    )
    ele = tuple(
        ElementaryTerm(t.coefficient * lam**t.shift, t.shift, t.pole) for t in zeta.elementary_terms
    )
    return ClosedFormZeta(zeta.ambient_dim, zeta.delta * lam, lat, ele)


def distance_to_set(x, set_) -> float:
    """Euclidean distance from the point ``x`` to the set."""
    return float(distances_to_set([x], set_)[0])
