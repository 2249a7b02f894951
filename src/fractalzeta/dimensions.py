"""Complex dimensions: pole families, numeric pole finding, residues, growth probes.

Complex dimensions of a compact set are the poles of its meromorphically
continued distance zeta function.  For lattice closed forms they form
arithmetic progressions ``omega_k = log_m r + (2 pi k / ln m) i``; for
arbitrary evaluators they are located numerically by the argument
principle.  A grid of cells shorter than 1 covers the window, each grid
edge sampled once for the two cells that share it, and a cell that
cannot be settled is halved.  A quiet cell, with no winding and small
Simpson first and second moments from its first round's nested samples,
ends after that round.  Every other cell's moments of ``d log f`` give
its distinct zeros and poles through a Hankel pencil, each polished by
Newton iteration with a central-difference derivative, the same for a
closed form as for any function (the finder sees an evaluator only
through its values), all the points of a level in one evaluator call per
round.  Residues come either from the closed-form term algebra or from one
adaptive trapezoidal rule on circles (which converges geometrically for
analytic integrands), ``_ring_residues``, which gives the whole principal
part of a pole of any order, all the circles of a window in one evaluator
call per node count.  An evaluator maps a complex ndarray to a numeric one
of the same shape, checked at every call; wrap a scalar ``f`` as
``np.vectorize(f, otypes=[complex])``.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BoundaryPole,
    ContourContaminated,
    NonIsolable,
    PoleOnLine,
)
from .geometry import _is_integer, _is_real
from .zeta import ClosedFormZeta, LatticeTerm, _finite_real, _lattice_ks

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Pole:
    """A complex dimension: location, order, and principal-part data.

    ``residue`` is the coefficient of ``1/(s - omega)``; ``principal_part``
    lists ``(c_-order, ..., c_-1)`` for orders above one.  Raises
    :class:`ValueError` for a location that is not a finite number, an
    order that is not an integer ``>= 1``, a residue that is neither None
    nor a finite number, a principal part that is not a tuple of finite
    numbers of length 0 or ``order``, and one whose last entry is not the
    residue given.
    """

    location: complex
    order: int = 1
    residue: Optional[complex] = None
    principal_part: tuple[complex, ...] = ()

    def __post_init__(self):
        finite = lambda c: _is_complex(c) and cmath.isfinite(c)
        if not finite(self.location):
            raise ValueError(f"pole location must be a finite number, got {self.location!r}")
        if not (_is_integer(self.order) and self.order >= 1):
            raise ValueError(f"pole order must be an integer >= 1, got {self.order!r}")
        if not (self.residue is None or finite(self.residue)):
            raise ValueError(f"pole residue must be None or a finite number, got {self.residue!r}")
        part = self.principal_part
        if not (isinstance(part, tuple) and len(part) in (0, self.order) and all(map(finite, part))):
            raise ValueError(f"principal part must be a tuple of {self.order} finite numbers or empty, got {part!r}")
        if part and self.residue is not None and part[-1] != self.residue:
            raise ValueError(f"principal part {part!r} does not end in the residue {self.residue!r}")


@dataclass(frozen=True)
class Window:
    """Region of the plane where poles are sought.

    ``imag_range`` is the vertical search band; ``screen_sup`` bounds the
    region on the left: only poles with real part at or right of the screen
    are visible.  Raises :class:`ValueError` for an ``imag_range`` that is
    not a nonempty interval of real numbers and a ``screen_sup`` that is
    neither None nor a real number other than NaN.
    """

    imag_range: tuple[float, float]
    screen_sup: Optional[float] = None

    def __post_init__(self):
        try:
            lo, hi = self.imag_range
        except (TypeError, ValueError):
            lo = hi = None
        if not (_is_real(lo) and _is_real(hi) and lo < hi):
            raise ValueError(f"imag_range must be a nonempty interval of real numbers, got {self.imag_range!r}")
        if not (self.screen_sup is None or (_is_real(self.screen_sup) and not math.isnan(self.screen_sup))):
            raise ValueError(f"screen_sup must be None or a real number other than NaN, got {self.screen_sup!r}")

    def contains(self, w: complex) -> bool:
        lo, hi = self.imag_range
        return lo <= w.imag <= hi and w.real >= (-math.inf if self.screen_sup is None else self.screen_sup)


@dataclass(frozen=True)
class LanguidityEstimate:
    """Fitted polynomial growth exponent along a vertical line."""

    kappa: float
    sample_heights: tuple[float, ...]
    constant: float


def _vectorized(evaluator: Evaluator) -> Callable[[np.ndarray], np.ndarray]:
    if not callable(evaluator):
        raise ValueError(f"evaluator must be callable, got {evaluator!r}")

    def call(s: np.ndarray) -> np.ndarray:
        out = evaluator(s)
        if not (isinstance(out, np.ndarray) and out.shape == s.shape and out.dtype.kind in "iufc"):
            raise ValueError(f"evaluator must map an array of shape {s.shape} to a numeric one, got {out!r:.60}")
        return out.astype(complex, copy=False)

    return call


def lattice_poles(m: float, r: float, window: Window) -> list[complex]:
    """Arithmetic pole family ``log_m r + (2 pi / ln m) k i`` inside the window.

    Raises :class:`ValueError` unless ``m > 1`` and ``r > 0`` are finite,
    and for a ``window`` that is not a :class:`Window` or is unbounded or
    over ``2 * 10^6`` periods tall.
    """
    if not isinstance(window, Window):
        raise ValueError(f"window must be a Window, got {window!r}")
    family = LatticeTerm(1.0, 1.0, (), (m, r))
    lo, hi = window.imag_range
    out = map(family.lattice_pole, _lattice_ks(lo / family.period, hi / family.period))
    return [w for w in out if window.contains(w)]


# ---------------------------------------------------------------------------
# Contour machinery
# ---------------------------------------------------------------------------


def residue_contour(
    evaluator: Evaluator,
    omega: complex,
    radius: Optional[float] = None,
    *,
    known_poles: Sequence[complex] = (),
) -> complex:
    """Residue at ``omega`` by trapezoidal circle quadrature (``_ring_residues``).

    The radius defaults to half the distance to the nearest other known
    pole, capped at 0.1.  The node count doubles from 64 until the value
    is stable to 1e-10; drift up to 4096 nodes raises :class:`ContourContaminated`
    (another singularity inside or on the contour).  An ``omega`` or entry
    of ``known_poles`` that is not a finite number, ``known_poles`` that is
    not a sequence, a radius that is not a positive finite real number
    (a ``bool`` is not), or an evaluator that does not map a complex
    ndarray to a numeric ndarray of its shape raises :class:`ValueError`.
    """
    if not (_is_complex(omega) and cmath.isfinite(omega)):
        raise ValueError(f"omega must be a finite number, got {omega!r}")
    try:
        known = list(known_poles)
    except TypeError:
        known = None
    if known is None or not all(_is_complex(p) and cmath.isfinite(p) for p in known):
        raise ValueError(f"known_poles must be a sequence of finite numbers, got {known_poles!r}")
    if radius is None:
        others = [abs(omega - p) for p in known if abs(omega - p) > 1e-12]
        radius = min(0.1, 0.5 * min(others)) if others else 0.1
    if not (_finite_real(radius) and radius > 0):
        raise ValueError(f"contour radius must be a positive finite real number, got {radius!r}")
    return _ring_residues(_vectorized(evaluator), [omega], [radius], [1])[0][-1]


def _is_complex(value) -> bool:
    """A real or complex number that is not a ``bool`` and has a complex value (a real one as ``_is_real`` says)."""
    # an exact complex is known by its type, before the slower ABC check
    return (
        type(value) is complex
        or _is_real(value)
        or (isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real))
    )


def _ring_residues(f, centers, radii, orders) -> list[tuple[complex, ...]]:
    """Principal parts ``(c_-n, ..., c_-1)`` of ``f`` at ``centers``, ``n`` from ``orders``.

    ``c_-j = r^j mean(f e^(i j theta))``, the trapezoidal rule on the circle
    of radius ``r``, converges geometrically when the annulus out to the next
    singularity is free (Trefethen and Weideman).  The node count doubles
    from 64 until each of a centre's ``n`` coefficients is stable to
    ``1e-10 max(1, |c|)``; each count evaluates the circles not yet stable
    in one call of ``f``, reusing the values of the count before at the even
    nodes.  Drift up to 4096 nodes raises :class:`ContourContaminated`.
    """
    centers, radii = np.asarray(centers, dtype=complex), np.asarray(radii, dtype=float)
    orders = np.asarray(orders, dtype=int)
    # row j - 1 holds c_-j
    coef = np.empty((orders.max(initial=1), centers.size), dtype=complex)
    live, vals, prev, n = np.arange(centers.size), None, np.nan, 32
    while live.size:
        if n == 4096:
            raise ContourContaminated(
                f"contour at {complex(centers[live[0]])} (radius {float(radii[live[0]])}) did not stabilize; "
                "another singularity is inside or on the circle"
            )
        n *= 2
        ring, vals = _circle_values(f, centers[live], radii[live], n, vals)
        # for j = 1 this is radii * (vals * ring).mean(axis=1) bit for bit
        cur = np.array([radii[live] ** j * (vals * ring**j).mean(axis=1) for j in range(1, len(coef) + 1)])
        beyond = np.arange(len(coef))[:, None] >= orders[live]
        stable = (beyond | (np.abs(cur - prev) <= 1e-10 * np.maximum(1.0, np.abs(cur)))).all(axis=0)
        coef[:, live[stable]] = cur[:, stable]
        live, vals, prev = live[~stable], vals[~stable], cur[:, ~stable]
    return [tuple(coef[m - 1 :: -1, i].tolist()) for i, m in enumerate(orders.tolist())]


def _circle_values(
    f: Callable[[np.ndarray], np.ndarray],
    centers: np.ndarray,
    radii: np.ndarray,
    nodes: int,
    even: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ring ``e^(i theta)`` of the trapezoidal rule on ``nodes`` points, and ``f`` on each circle.

    Row ``i`` of the values is the circle of ``radii[i]`` about
    ``centers[i]``, all rows from one call of ``f``.  ``even``, the values
    of the rule on ``nodes / 2`` points, are its values at the even nodes,
    so only the odd ones are evaluated: the angles ``2 pi (2k) / nodes``
    and ``2 pi k / (nodes / 2)`` round to the same float.
    """
    ring = np.exp(1j * (2.0 * math.pi * np.arange(nodes) / nodes))
    z = centers[:, None] + radii[:, None] * ring
    if even is None:
        return ring, f(z.ravel()).reshape(z.shape)
    vals = np.empty(z.shape, dtype=complex)
    vals[:, 0::2] = even
    vals[:, 1::2] = f(z[:, 1::2].ravel()).reshape(even.shape)
    return ring, vals


# the most distinct zeros and poles a cell is solved for, and the moments
# s_1..s_(2n - 1) that its Hankel pencil of that size reads
_MAX_RANK = 3
_MOMENTS = 2 * _MAX_RANK - 1
# the most cells the finder walks below its grid, over all levels: an
# evaluator that is non-finite or zero over a region obstructs every cell
# there, and their halves, without end
_MAX_CELLS_BELOW_GRID = 10**4


def _successors(cell: np.ndarray) -> np.ndarray:
    """Index of each sample's successor on its cell's closed polyline (cells stored contiguously)."""
    nxt = np.arange(1, len(cell) + 1)
    last = np.flatnonzero(cell[1:] != cell[:-1])
    nxt[np.append(last, -1)] = np.append(0, last + 1)
    return nxt


def _refine(f, z, vals, cell, split):
    """Insert the midpoint of segment ``i`` after sample ``i`` wherever ``split[i]``; one call of ``f``."""
    idx = np.flatnonzero(split)
    zm = 0.5 * (z[idx] + z[_successors(cell)[idx]])
    pos = np.arange(len(z)) + np.cumsum(split) - split
    order = np.empty(len(z) + len(idx), dtype=int)
    order[pos], order[pos[idx] + 1] = np.arange(len(z)), len(z) + np.arange(len(idx))
    return [np.concatenate(p)[order] for p in ((z, zm), (vals, f(zm)), (cell, cell[idx]))]


def _boundary_log_walks(f, polygons, moment_tol: float) -> list:
    """Winding number and scaled moments along each closed polygon, all walked together.

    Returns ``(W, s, L)`` per polygon, ``s`` None for a quiet walk, or a
    :class:`BoundaryPole` where a singularity obstructs the walk.
    ``W = (1/2 pi i) contour d log f`` counts zeros minus poles, and ``s``
    holds ``s_k = (1/2 pi i) contour ((x - c) / L)^k d log f(x)`` for
    ``k = 1..5``: the sum of ``((z - c) / L)^k`` over zeros minus that of
    ``((p - c) / L)^k`` over poles, ``c`` the centroid and ``L`` the power
    of 2 at or above the polygon's largest distance from it (so the scaled
    points lie in the unit disc and the scaling is exact).

    The samples of all polygons share flat arrays, so a refinement round is
    one call of ``f``.  Segments with a large phase or log-modulus step are
    halved; once none is, all are.  Each moment is a midpoint sum with
    O(h^2) error, so ``R = s_h + (s_h - s_2h)/3`` over a full split is
    O(h^4).  A walk returns its ``R`` once every one moved by at most
    ``moment_tol / (4 L)`` over a full split, else its plain moments once
    they did since the last smooth round; after 28 rounds it gets a
    :class:`BoundaryPole`.

    Round 0 samples each edge uniformly, 24 times with its first corner,
    so its every-other and every-fourth samples are walks of 12 and 6 per
    edge whose segment midpoints are the samples they skip.  Their plain
    first moments ``M1_96``, ``M1_48`` and ``M1_24`` (unscaled, about the
    centroid) give the Simpson values ``S96 = M1_96 + (M1_96 - M1_48)/3``
    and ``S48`` likewise, and a smooth walk with ``W = 0`` and
    ``|S96| + 2 |S96 - S48| <= moment_tol`` is quiet if its second moments
    pass the same test against ``4 moment_tol``: it ends after round 0, with
    no further call of ``f``.  The second moment sees two pairs whose
    offsets cancel in the first (``|s_2| = 2 d |a - b|`` for pairs at ``a``
    and ``b``), while a lone pair below the floor in a cell under 1 has
    ``|s_2| <= 1.42 d`` and stays quiet; three or more pairs that cancel in
    both can still end quiet.  Only the other walks sum the higher moments.
    Round 0 evaluates each distinct corner and edge once, ``23 edges +
    corners`` points for a grid, each edge from its lesser end and reversed
    where walked the other way.
    """
    corners = np.asarray(polygons, dtype=complex)
    n_poly, n_corner = corners.shape
    center = corners.sum(axis=1) / n_corner
    scale = 2.0 ** np.ceil(np.log2(np.abs(corners - center[:, None]).max(axis=1)))
    # a multiple of 4, so round 0's stride-2 and stride-4 samples, corners
    # among them, are the 12- and 6-per-edge walks of the quiet exit either way
    per_edge = 24
    # corner ids in np.unique's order (by real, then imaginary part); an edge is a
    # pair of them, and its point k from the lesser end is sample per_edge - k the other way
    verts, vid = np.unique(corners.ravel(), return_inverse=True)
    vid, nid = vid.reshape(corners.shape), np.roll(vid.reshape(corners.shape), -1, axis=1)
    keys, eid = np.unique(np.minimum(vid, nid) * len(verts) + np.maximum(vid, nid), return_inverse=True)
    lo, hi = verts[keys // len(verts)], verts[keys % len(verts)]
    points = np.concatenate((verts, (lo[:, None] + (hi - lo)[:, None] * np.arange(1, per_edge) / per_edge).ravel()))
    k = np.arange(per_edge)
    k = np.where((vid < nid)[..., None], k, per_edge - k)
    index = len(verts) - 1 + (per_edge - 1) * eid.reshape(vid.shape)[..., None] + k
    index[..., 0] = vid
    z, vals = points[index.ravel()], f(points)[index.ravel()]
    cell = np.repeat(np.arange(n_poly), n_corner * per_edge)
    out: list = [None] * n_poly
    done = np.zeros(n_poly, dtype=bool)
    # the moments of the last round with a resolved winding, and the moments
    # and their R of the previous round, NaN unless it resolved its winding
    # (and so split every segment)
    prev_m, last_m, last_r = (np.full((_MOMENTS, n_poly), np.nan, dtype=complex) for _ in range(3))
    sums = lambda cell, t: np.bincount(cell, t.real, n_poly) + 1j * np.bincount(cell, t.imag, n_poly)
    # NaN (no earlier round to compare) is never stable
    stable = lambda a, b: (np.abs(a - b) <= 0.25 * moment_tol / scale).all(axis=0)
    for rnd in range(28):
        singular = ~np.isfinite(vals) | (np.abs(vals) < 1e-280)
        if singular.any():
            for c in np.unique(cell[singular]):
                out[c], done[c] = BoundaryPole("evaluator blows up or vanishes on a cell boundary"), True
            if done.all():
                break
            keep = ~done[cell]
            z, vals, cell = z[keep], vals[keep], cell[keep]
        nxt = _successors(cell)
        ratio = vals[nxt] / vals
        dphi = np.angle(ratio)
        dlnr = np.log(np.abs(ratio))
        bad = (np.abs(dphi) > 0.5 * math.pi) | (np.abs(dlnr) > 0.7)
        smooth = ~done & (np.bincount(cell, bad, n_poly) == 0)
        total = np.bincount(cell, dphi, n_poly) / (2.0 * math.pi)
        w = np.round(total)
        ok = smooth & (np.abs(total - w) <= 0.25)
        if rnd == 0 and ok.any():
            # the quiet exit: the walks of every other and every fourth sample take
            # the skipped samples as their midpoints and sums of the fine increments as their own
            step = (dphi - 1j * dlnr).reshape(-1, n_corner * per_edge) / (2.0 * math.pi)
            ids = cell[:: step.shape[1]]
            zc = z.reshape(step.shape) - center[ids, None]
            zm = 0.5 * (z + z[nxt]) - center[cell]
            t_full = zm * (dphi - 1j * dlnr) / (2.0 * math.pi)
            step2 = step[:, ::2] + step[:, 1::2]
            t_half = zc[:, 1::2] * step2
            t_quarter = zc[:, 2::4] * (step2[:, ::2] + step2[:, 1::2])
            # row 0 the first moments, row 1 the second: each is one more product by the same points
            full = np.stack((sums(cell, t_full)[ids], (zm * t_full).reshape(step.shape).sum(axis=1)))
            half = np.stack((t_half.sum(axis=1), (zc[:, 1::2] * t_half).sum(axis=1)))
            quarter = np.stack((t_quarter.sum(axis=1), (zc[:, 2::4] * t_quarter).sum(axis=1)))
            s_full = full + (full - half) / 3.0
            s_half = half + (half - quarter) / 3.0
            err = np.abs(s_full) + 2.0 * np.abs(s_full - s_half)
            quiet = ids[ok[ids] & (w[ids] == 0) & (err[0] <= moment_tol) & (err[1] <= 4.0 * moment_tol)]
            for c in quiet:
                out[c] = (0, None, scale[c])
            done[quiet] = True
        live = ok & ~done
        m = r = np.full((_MOMENTS, n_poly), np.nan, dtype=complex)
        if live.any():
            on = live[cell]
            ids = cell[on]
            u = (0.5 * (z[on] + z[nxt[on]]) - center[ids]) / scale[ids]
            t = u * (dphi[on] - 1j * dlnr[on]) / (2.0 * math.pi)
            for j in range(_MOMENTS):
                m[j] = sums(ids, t)
                t = u * t
            m[:, ~live] = np.nan
            r = m + (m - last_m) / 3.0
            by_r = live & stable(r, last_r)
            ended = by_r | (live & stable(m, prev_m))
            for c in np.flatnonzero(ended):
                out[c] = (int(w[c]), (r if by_r[c] else m)[:, c], scale[c])
            done |= ended
            prev_m = np.where(live, m, prev_m)
        last_m, last_r = m, r
        if rnd == 27 or done.all():
            break
        keep = ~done[cell]
        split = (bad | smooth[cell])[keep]
        z, vals, cell = _refine(f, z[keep], vals[keep], cell[keep], split)
    for c in np.flatnonzero(~done):
        out[c] = BoundaryPole("phase refinement exhausted; a pole or zero sits on the boundary")
    return out


def _grid_lines(lo: float, hi: float, n: int) -> list[float]:
    """Edges of ``n`` cells from ``lo`` to ``hi``, each under 1 for ``n > 1``.

    Interior lines sit an irrational fraction of the slack ``min(g, 1 - g)``
    below the equal spacing ``g``, off a pole at a rational fraction of the window.
    """
    g = (hi - lo) / n
    shift = 0.5 * (3.0 - math.sqrt(5.0)) * min(g, 1.0 - g)
    return [lo, *(lo + k * g - shift for k in range(1, n)), hi]


def _rect_corners(re_lo, re_hi, im_lo, im_hi) -> tuple[complex, ...]:
    return complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi), complex(re_lo, im_hi)


def _newton_on_reciprocal(f, starts: np.ndarray, tol: float, zero: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Newton iteration on ``g = 1/f``, whose zeros are the poles of ``f``, from every start at once.

    The derivative of ``g`` is a central difference over the four points
    ``s +- h`` and ``s +- ih``, ``h = min(1e-6 (1 + |s|), gap / 8)``, the
    same for a closed form as for any function: ``g`` is smooth near a pole
    of ``f``, unlike ``f``, and ``gap`` is the distance to the nearest other
    zero or pole expected.  Where ``zero`` is set the iteration runs on
    ``g = f`` instead and finds a zero of ``f``.  Each point iterates on its
    own until its step is under ``tol / 4``; a round evaluates ``f`` at the
    five points of every point still iterating in one call.  Returns the
    polished points, NaN where ``g`` or the step is not finite, the
    derivative is 0 or 80 rounds did not settle.
    """
    s = np.array(starts, dtype=complex)
    out = np.full(s.shape, np.nan, dtype=complex)
    live = np.arange(s.size)
    for _ in range(80):
        if not live.size:
            break
        x = s[live]
        h = np.minimum(1e-6 * (1.0 + np.abs(x)), 0.125 * gap[live])
        vals = f(np.stack((x, x + h, x - h, x + 1j * h, x - 1j * h), axis=1).ravel()).reshape(-1, 5)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gv = np.where(zero[live, None], vals, 1.0 / vals)
            gp = 0.5 * ((gv[:, 1] - gv[:, 2]) / (2 * h) + (gv[:, 3] - gv[:, 4]) / (2j * h))
            step = -gv[:, 0] / gp
            x = x + step
        ok = np.isfinite(gv).all(axis=1) & (gp != 0) & np.isfinite(x)
        settled = ok & (np.abs(step) < 0.25 * tol)
        out[live[settled]] = x[settled]
        s[live] = x
        live = live[ok & ~settled]
    return out


def _moment_points(w: int, s: np.ndarray, tol: float):
    """The distinct zeros and poles, with integer weights, that a cell's scaled moments show.

    ``s`` holds ``s_1..s_5`` of ``_boundary_log_walks`` and ``s_0 = w``.  The
    rank ``n`` is the least whose ``n`` points reproduce every moment within
    ``tol``; the points are the generalized eigenvalues of the Hankel pencil
    ``(s_(i+j+1)) - lambda (s_(i+j))`` of size ``n`` and their weights, each
    point's multiplicity with a sign (+ for a zero), solve the Vandermonde
    system of ``s_0..s_(n-1)`` (Delves and Lyness; Kravanja and Van Barel).
    For ``n = 2`` and ``w = 0`` the pencil's spread would rest on ``s_3``,
    where a close pair's separation ``d`` enters only as ``d^3``, so the
    zero and the pole are placed from ``s_1`` (their offset) and ``s_2``
    (their centre, ``s_2 / (2 s_1)``).  Returns ``(points, weights)``, or
    None for a rank above ``_MAX_RANK`` or weights that are not nonzero
    integers summing to ``w``.
    """
    s = np.concatenate(([w], s))
    powers = np.arange(len(s))[:, None]
    with np.errstate(all="ignore"):
        # no point carries W = 0, and one point carries all of W != 0
        for n in (0 if w == 0 else 1, *range(2, _MAX_RANK + 1)):
            if n < 2:
                points = s[1:n + 1] / s[0]
            elif n == 2 and w == 0:
                points = 0.5 * (complex(s[2]) / complex(s[1]) + np.array([-s[1], s[1]]))
            else:
                hankel = lambda k: np.array([s[k + i : k + i + n] for i in range(n)])
                try:
                    points = np.linalg.eigvals(np.linalg.solve(hankel(0), hankel(1)))
                except np.linalg.LinAlgError:
                    continue
            vander = points**powers
            try:
                weights = np.linalg.solve(vander[:n], s[:n]) if n > 1 else s[:n]
            except np.linalg.LinAlgError:
                continue
            if np.abs(vander @ weights - s).max() <= tol:
                break
        else:
            return None
    m = np.round(weights.real)
    if not (np.abs(weights - m) <= 0.25).all() or (m == 0).any() or m.sum() != w:
        return None
    return points, m.astype(int)


def _level_poles(f, cells, walks, tol: float, moment_tol: float) -> list:
    """The poles of each cell with their orders, from the walk of its outline, or None to split it.

    Every zero and pole that a cell's moments show is polished by Newton (on
    ``f`` for a zero, on ``1/f`` for a pole) from its pencil eigenvalue, the
    points of all the cells together, and a cell's poles are kept only if
    every point lands in the cell and the polished points reproduce each
    moment within ``moment_tol / 2``: a zero-pole pair that the rank missed
    moves them by its offset.  A cell whose points are all zeros holds no
    pole; a quiet walk shows none; an obstructed one is split.
    """
    verdicts: list = [None] * len(cells)
    solved, seeds, zero, gap = [], [], [], []
    for i, (cell, walk) in enumerate(zip(cells, walks)):
        if isinstance(walk, BoundaryPole):
            continue
        w, s, scale = walk
        if s is None:  # a quiet walk
            verdicts[i] = []
            continue
        a, b, c, d = cell
        center = complex(0.5 * (a + b), 0.5 * (c + d))
        found = _moment_points(w, s, 0.5 * moment_tol / scale)
        if found is None:
            continue
        points, weights = found
        start = center + scale * points
        solved.append((i, center, len(seeds), weights))
        for j, p in enumerate(start):
            gap.append(min((abs(p - q) for k, q in enumerate(start) if k != j), default=math.inf))
        seeds.extend(start)
        zero.extend(weights > 0)
    polished = _newton_on_reciprocal(f, np.array(seeds), tol, np.array(zero, dtype=bool), np.array(gap))
    for i, center, first, weights in solved:
        (a, b, c, d), (_, s, scale) = cells[i], walks[i]
        p = polished[first : first + len(weights)]
        if not ((a - tol <= p.real) & (p.real <= b + tol) & (c - tol <= p.imag) & (p.imag <= d + tol)).all():
            continue
        u = (p - center) / scale
        if np.abs(u ** np.arange(1, _MOMENTS + 1)[:, None] @ weights - s).max() > 0.5 * moment_tol / scale:
            continue
        verdicts[i] = [(complex(z), -int(m)) for z, m in zip(p, weights) if m < 0]
    return verdicts


def find_poles_argument_principle(
    evaluator: Evaluator,
    rect: tuple[float, float, float, float],
    tol: float = 1e-9,
    *,
    moment_floor: Optional[float] = None,
) -> list[Pole]:
    """Locate the poles of a meromorphic function inside an axis rectangle.

    ``evaluator`` maps a complex ndarray to a numeric ndarray of its shape
    (wrap a scalar ``f`` as ``np.vectorize(f, otypes=[complex])``), and its
    exceptions propagate.  ``rect`` is ``(re_lo, re_hi, im_lo, im_hi)``.

    Each cell is solved from the boundary winding count ``W = Z - P`` and
    the centred moments of ``d log f``, which see zero-pole pairs that
    cancel in the count (zeta functions grow such zeros near every lattice
    pole).  The first level is a grid over ``rect``, ``floor(side) + 1``
    cells along a side longer than 1, its lines off the equal spacing
    (``_grid_lines``), and each grid edge sampled once for both its cells;
    later levels split a cell in two at irrational fractions, so
    singularities stay off shared edges.  An obstructed walk splits its
    cell.  A level's cells are walked together, each stopping once its
    moments or their Richardson extrapolations are stable; a quiet cell,
    with ``W = 0`` and Simpson first and second moments from the first
    round's 24 samples per edge that are small and agree with the coarser
    ones (see ``_boundary_log_walks``), stops there and is discarded.

    Every other cell goes to one solver (``_moment_points``): the least
    number ``n <= 3`` of distinct zeros and poles that reproduces its
    moments, placed by the Hankel pencil of size ``n`` and signed by their
    Vandermonde weights, each an integer multiplicity (Delves and Lyness).
    Newton polishes each point with a central-difference derivative, the
    same for a closed form as for any function, all the points of a level
    in one call of the evaluator per round (``_newton_on_reciprocal``),
    and the cell's poles are kept, with their weights as orders, only if
    every point lands in the cell and the polished points reproduce the
    moments within ``moment_floor / 2``; a
    cell with more than three points, weights that are not integers or
    points that fail the check is split.  A pole of even order on a line
    two cells share has no phase jump there and is counted half in each;
    the two halves are listed once, their orders added.  Every pole takes
    its principal part (its residue alone for a simple pole) from
    ``_ring_residues`` on a circle of radius ``min(0.05, gap / 4)``, all of
    them in one call per node count.

    ``moment_floor`` is the pair-detection resolution: a zero-pole pair
    closer than this is treated as cancelled.  Raises
    :class:`BoundaryPole` when a singularity obstructs the walk of a cell
    at the size floor, as one on the outline of ``rect`` does, and
    :class:`NonIsolable` when subdivision stalls, an order exceeds 3 or
    the cells walked below the grid, over all levels, pass
    ``_MAX_CELLS_BELOW_GRID`` (10^4), as every cell of a region where the
    evaluator is non-finite or zero is obstructed and split again;
    :class:`ValueError` for a ``rect`` that is not four real
    numbers or is non-finite or empty, a ``tol`` or ``moment_floor`` that is
    not a positive finite real number (a ``bool`` is not), a ``rect``
    whose grid has over 10^5 cells, or an evaluator off that contract.
    """
    try:
        entries = tuple(rect)
    except TypeError:
        entries = ()
    if len(entries) != 4 or not all(map(_is_real, entries)):
        raise ValueError(f"rect {rect!r} must be four real numbers (re_lo, re_hi, im_lo, im_hi)")
    re_lo, re_hi, im_lo, im_hi = map(float, entries)
    if not (all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi))) and re_lo < re_hi and im_lo < im_hi):
        raise ValueError(f"rect {rect} must be finite with re_lo < re_hi and im_lo < im_hi")
    if moment_floor is None and _is_real(tol):
        moment_floor = max(1e-4, 64.0 * tol)
    for name, value in (("tol", tol), ("moment_floor", moment_floor)):
        if not (_is_real(value) and math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite real number, got {value!r}")
    # the fewest cells shorter than 1 along a side longer than 1
    nx, ny = (math.floor(hi - lo) + 1 if hi - lo > 1.0 else 1 for lo, hi in ((re_lo, re_hi), (im_lo, im_hi)))
    if nx * ny > 1e5:  # a level's cells are listed at once
        raise ValueError(f"rect {rect} would split into over 10^5 cells")
    f = _vectorized(evaluator)

    diag = math.hypot(re_hi - re_lo, im_hi - im_lo)
    min_cell = max(16.0 * tol, 1e-9 * diag)

    def split(cell, depth):
        a, b, c, d = cell
        # alternate irrational fractions so repeated splits never build a
        # rational sub-lattice that could pin a pole to an edge
        frac = (0.5 + 0.5 * (math.sqrt(5) - 2.0)) if depth % 2 == 0 else 0.5471398
        if b - a >= d - c:
            mid = a + (b - a) * frac
            return [(a, mid, c, d), (mid, b, c, d)]
        mid = c + (d - c) * frac
        return [(a, b, c, mid), (a, b, mid, d)]

    extent = lambda cell: max(cell[1] - cell[0], cell[3] - cell[2])
    xs, ys = _grid_lines(re_lo, re_hi, nx), _grid_lines(im_lo, im_hi, ny)
    cells = [(a, b, c, d) for c, d in zip(ys, ys[1:]) for a, b in zip(xs, xs[1:])]
    found: list[tuple[complex, int]] = []
    depth = walked = 0
    while cells:
        # one level at a time; children of its cells form the next level
        if depth:
            walked += len(cells)
            if walked > _MAX_CELLS_BELOW_GRID:
                raise NonIsolable(
                    f"over {_MAX_CELLS_BELOW_GRID} cells walked below the grid of {rect}; "
                    "is the evaluator non-finite or zero over a region?"
                )
        below, walks = [], []
        for k in range(0, len(cells), 256):  # batches of 256 cells bound the samples held at once
            walks += _boundary_log_walks(f, [_rect_corners(*cell) for cell in cells[k : k + 256]], moment_floor)
        for cell, res, poles in zip(cells, walks, _level_poles(f, cells, walks, tol, moment_floor)):
            if poles is not None:
                found.extend(poles)
            elif extent(cell) > min_cell:
                below.extend(split(cell, depth))
            else:
                raise res if isinstance(res, BoundaryPole) else NonIsolable(f"could not isolate the poles of cell {cell}")
        cells = below
        depth += 1

    # quantized deterministic ordering: location errors are O(tol), far below
    # the quantum, so equal poles sort equally across runs
    quantum = max(1000.0 * tol, 1e-6)
    sort_key = lambda z: (round(z.real / quantum), round(z.imag / quantum))
    found.sort(key=lambda item: sort_key(item[0]))
    uniq: list[tuple[complex, int]] = []
    for z, order in found:
        if uniq and abs(z - uniq[-1][0]) <= max(100 * tol, 1e-10):
            # a pole of even order on the line two cells share is counted half in each
            uniq[-1] = (uniq[-1][0], uniq[-1][1] + order)
        else:
            uniq.append((z, order))

    locs = [z for z, _ in uniq]
    radii = []
    for z, order in uniq:
        if order > 3:
            raise NonIsolable(f"pole at {z} has order {order} > 3")
        gaps = [abs(z - other) for other in locs if abs(z - other) > 1e-12]
        radii.append(min(0.05, 0.25 * min(gaps)) if gaps else 0.05)
    # every pole's circle shares one call of f per node count
    parts = _ring_residues(f, locs, radii, [order for _, order in uniq])
    return [
        Pole(z, order=order, residue=part[-1], principal_part=part if order > 1 else ())
        for (z, order), part in zip(uniq, parts)
    ]


def languidity_probe(
    evaluator: ClosedFormZeta,
    screen_abscissa: float,
    heights: Sequence[float],
) -> LanguidityEstimate:
    """Least-squares growth exponent of ``|zeta|`` along a vertical line.

    Fits ``log |zeta(sigma + i T)|`` against ``log T`` over the given
    heights (at least 8, spanning at least two decades); the slope
    estimates the languidity exponent kappa.  Heights within 1 of the
    ordinate of a pole near the line are skipped and a sample within 1e-3
    of a pole raises :class:`PoleOnLine`, so the evaluator must be a
    :class:`ClosedFormZeta`, which lists its poles.  Raises :class:`ValueError`
    for any other evaluator, an abscissa that is not a finite real number,
    and ``heights`` that are not a sequence of real numbers or hold a non-finite one.
    """
    if not isinstance(evaluator, ClosedFormZeta):
        raise ValueError(f"evaluator must be a ClosedFormZeta, got {evaluator!r}")
    if not _finite_real(screen_abscissa):
        raise ValueError(f"screen abscissa must be finite, got {screen_abscissa}")
    try:
        hs = list(heights)
    except TypeError:
        hs = None
    if hs is None or not all(map(_is_real, hs)):
        raise ValueError(f"heights must be a sequence of real numbers, got {heights!r}")
    hs = [float(h) for h in hs]
    if len(hs) < 8:
        raise ValueError("need at least 8 heights")
    if not (all(0 < h < math.inf for h in hs) and all(a < b for a, b in zip(hs, hs[1:]))):
        raise ValueError("heights must be positive, finite and increasing")
    if hs[-1] / hs[0] < 100.0:
        raise ValueError("heights must span at least two decades")

    # only poles within 1 of a height in ordinate can skip it or sit on the line there
    pole_locations = [w for w, _ in evaluator.poles_near(hs, 1.0)]
    near_line = [w for w in pole_locations if abs(w.real - screen_abscissa) < 0.5]
    for h in hs:
        s = complex(screen_abscissa, h)
        if any(abs(s - w) < 1e-3 for w in pole_locations):
            raise PoleOnLine(f"sample at {s} sits within 1e-3 of a pole")
    used = [h for h in hs if not any(abs(h - w.imag) < 1.0 for w in near_line)]
    if len(used) < 8:
        raise ValueError("too few usable heights after pole-ordinate exclusions")
    vals = evaluator(np.array([complex(screen_abscissa, h) for h in used]))
    logs = np.log(np.abs(vals))
    logt = np.log(np.array(used))
    kappa, intercept = np.polyfit(logt, logs, 1)
    return LanguidityEstimate(
        kappa=float(kappa), sample_heights=tuple(used), constant=float(math.exp(intercept))
    )


def conjugate_closed(poles: Sequence[Pole]) -> bool:
    """Whether every nonreal pole has its conjugate (within 1e-9) with conjugated residue.

    The match of a pole is the first in list order within 1e-9 of its
    conjugate; the distances to every location are taken at once, as the
    ``abs`` of the complex differences, by blocks of nonreal poles.  Raises
    :class:`ValueError` for ``poles`` that are not a sequence of :class:`Pole`.
    """
    if not (isinstance(poles, Sequence) and all(isinstance(p, Pole) for p in poles)):
        raise ValueError("poles must be a sequence of Pole")
    locs = np.array([complex(p.location) for p in poles], dtype=complex)
    nonreal = np.flatnonzero(np.abs(locs.imag) > 1e-9)
    # about a million distances per block
    step = max(1, (1 << 20) // max(1, locs.size))
    for k in range(0, nonreal.size, step):
        rows = nonreal[k : k + step]
        near = np.hypot(locs.real - locs.real[rows, None], locs.imag + locs.imag[rows, None]) <= 1e-9
        if not near.any(axis=1).all():
            return False
        for i, j in zip(rows.tolist(), near.argmax(axis=1).tolist()):
            p, q = poles[i], poles[j]
            if p.residue is not None and q.residue is not None:
                scale = max(1.0, abs(p.residue))
                if abs(q.residue - p.residue.conjugate()) > 1e-8 * scale:
                    return False
    return True
