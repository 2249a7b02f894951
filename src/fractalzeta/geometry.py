"""Compact-set descriptors with distance and tube-volume oracles.

Descriptors are immutable, hashable value objects for compact subsets ``A``
of R^N (the tube-zeta quadrature keeps its breakpoints per descriptor).
Every descriptor supports Euclidean distance evaluation ``d(x, A)`` and
tube-volume measurement ``|A_t|`` (Lebesgue volume of the open
t-neighborhood).

Each descriptor class owns its geometry, and the module functions check
their input and call it.  A descriptor class defines its JSON tag
``variant``, ``ambient_dim``, ``bounds()``, ``diameter``,
``distances(pts, below=0.0)`` on checked points, ``exact_volumes(ts)`` over
an array of radii up to ``exact_max`` (the largest radius with an exact
tube volume), ``volume_breaks(floor)``, the radii above ``floor`` at which
``exact_volumes`` passes from one polynomial in ``t`` to the next (half of
each gap on the line; the default lists a hole family's fill radii from its
``_holes``, the parameters of :func:`_hole_volumes`, and none for others),
``box_dimension``, ``default_delta``, ``t_valid_max`` (the
largest radius at which its closed form's residue sum gives ``|A_t|``),
``_grid_counts``, the grid oracle's cell counts (the default refines
blocks; the gasket counts lattice rows) and, for catalog sets, the
``delta_bound`` text and ``zeta_terms(delta)``, its closed form's terms;
:class:`CompactSet` holds the defaults.
``distances`` may return any value under ``below >= 0`` for a distance
under it, and must return every other distance as with ``below = 0``: the
Monte Carlo oracle asks only which points lie within ``t``, so a descent
may stop once that is settled.  A new set is registered in ``_VARIANTS``
below, and nowhere else.

Distances to the Sierpinski gasket and the three-dimensional carpet are
exact, with no tolerance parameter: every removed hole is convex and its
boundary belongs to the set, so a point lies in the set or in exactly one
hole, and one pass over its base-2 barycentric (gasket) or base-3 (carpet)
digits finds that hole.  For the gasket that pass is a closed form in bit
operations on the digits, with the same number of array passes at any depth;
for the carpet it steps in floats only until a point's coordinates are
multiples of ``2^-51``, and then six ternary levels per int64 pass; it
stops at the first level whose holes are narrower than ``2 below``.
Distances to a fractal string come from rows of its points, down to where
they are denser than the floats; a self-similar string finds each query's
level from a logarithm, which may miss one for ``base / multiplicity <=
1 + 1e-12``.  A Cantor-set descent stops at a gap or below a point's ulp.

Where the geometry allows it the tube volume is computed exactly:

* finite point sets and explicit strings on the line via the sum over
  their gaps, :func:`intervals.gap_volumes`;
* point sets in R^N while their balls are disjoint, as ``n omega_N t^N``;
* Cantor sets, self-similar strings, the Sierpinski gasket and the
  three-dimensional carpet by one hole-sum kernel, :func:`_hole_volumes`:
  each fills its hull with holes (gaps in 1D) whose boundary belongs to
  the set, so the tube covers a polynomial share of every hole (the
  uncovered core is an explicit inner parallel body), and the covered
  measure is a sum of bounded terms that never cancels against the hull.

For everything else there is a deterministic grid-count oracle (cells whose
center lies within distance t, with a conservative boundary-cell error
bound; the gasket counts it by lattice rows at ``tau - tol`` for each of the
three flips ``tau`` of its comparisons, with exact distances only on a row
whose interval ends could cross a centre within ``tol`` of a flip, bounded
by how far they move, and the other sets by block refinement, so the counts
are those of exact distances) and a seeded Monte Carlo oracle with a
reported confidence half-width.

:func:`tube_volume`, :func:`sample_tube_curve` and the mixed radii of
:func:`tube_volumes` share one dispatcher, :func:`_measure`: it checks all
input before it measures anything, then takes the exact radii in one
``exact_volumes`` call, the Monte Carlo radii in one shared run, and the
grid radii one by one.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

from .errors import DeltaTooSmall, FractalZetaError, NoClosedForm, ResolutionTooCoarse
from .intervals import gap_volumes

SQRT3 = math.sqrt(3.0)

# Offset of the grid lattice relative to the set's bounding box, in cell
# units.  Irrational so that cell centers do not align with the dyadic or
# triadic face planes of the catalog fractals.
_GRID_OFFSET = math.sqrt(2.0) - 1.0

# Below this cell side every remaining point is within one ulp of the set.
_RESOLUTION = float(np.finfo(float).eps)

# Binary digits of a gasket barycentric coordinate that can place it in a
# hole: levels 0 to 52, down to holes of side _RESOLUTION.
_DIGITS = 53

# 2^k for k = 0 .. _DIGITS: the gasket's level scales, exact.
_POW2 = np.ldexp(1.0, np.arange(_DIGITS + 1))


def _is_real(value) -> bool:
    """A real number that is not a ``bool``."""
    # an exact float or int is known by its type, before the slower ABC check
    return type(value) in (float, int) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def _is_integer(value) -> bool:
    """An integer that is not a ``bool``."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_count(value) -> bool:
    """An integer ``>= 0`` that is not a ``bool``."""
    return _is_integer(value) and value >= 0


class TubeMethod(str, Enum):
    EXACT_1D = "exact_1d"
    EXACT_CLOSED = "exact_closed"
    GRID_COUNT = "grid_count"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class TubeSample:
    """One tube-volume measurement: ``|A_t|`` at radius ``t``.

    Raises :class:`ValueError` unless ``t`` is a positive finite real
    number, ``volume`` and ``error_bound`` are finite real numbers ``>= 0``
    (a ``bool`` is none of these) and ``method`` is a :class:`TubeMethod`.
    """

    t: float
    volume: float
    method: TubeMethod
    error_bound: float = 0.0

    def __post_init__(self):
        if not (_is_real(self.t) and math.isfinite(self.t) and self.t > 0):
            raise ValueError(f"t must be a positive finite real number, got {self.t!r}")
        for name, value in (("volume", self.volume), ("error_bound", self.error_bound)):
            if not (_is_real(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite real number >= 0, got {value!r}")
        if not isinstance(self.method, TubeMethod):
            raise ValueError(f"method must be a TubeMethod, got {self.method!r}")


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


class CompactSet:
    """A compact subset of R^N: the defaults of the descriptor protocol."""

    box_dimension = 0.0
    default_delta = 1.0
    t_valid_max = math.inf
    exact_max = math.inf

    # a hole family's (hull, r1, rho, q, cover), as :func:`_hole_volumes` takes them
    _holes = None

    def volume_breaks(self, floor: float) -> np.ndarray:
        """The radii above ``floor``, descending, at which ``exact_volumes`` passes from one polynomial in ``t`` to the next.

        A hole family's array is its level table's own, kept for the next call: it is read-only.
        """
        return np.empty(0) if self._holes is None else _hole_breaks(floor, *self._holes[1:])

    def _grid_counts(self, t: float, cell: float, origin: np.ndarray, ncell: np.ndarray, margin: float):
        """The grid's ``(inside, boundary)`` counts: centres with ``d < t`` and with ``|d - t| <= margin``.

        By level-synchronous refinement: the cell lattice is refined as a
        quadtree (2D) or octree (3D) one level at a time, so all blocks of a
        level share one side ``2^k`` and one Lipschitz radius.  It opens at the
        finest side whose whole block grid fits one ``_GRID_CHUNK``, with every
        block of that grid.  Blocks provably entirely inside or outside
        ``A_t`` (with a margin covering the boundary-adjacency band) are
        resolved without visiting their cells; the others split into their
        ``2^N`` children, less those past the lattice, which only a block that
        straddles its far edge can have.  Single cells take the flat rule, so
        the result is the flat count exactly, at a cost proportional to the
        boundary.  A level is classified and split in chunks of
        ``_GRID_CHUNK`` blocks, whose centres, distances and children fit in
        cache, and its children are joined once; ``_GRID_BUDGET`` counts the
        blocks of whole levels.
        """
        n_dim = self.ambient_dim
        corners = np.indices((2,) * n_dim).reshape(n_dim, -1, 1)
        side = 1
        while math.prod(-(-n // side) for n in ncell.ravel().tolist()) > _GRID_CHUNK:
            side *= 2
        blo = np.indices((-(-ncell.ravel() // side)).tolist()).reshape(n_dim, -1) * side
        inside_cells = boundary_cells = rows_seen = 0
        while blo.shape[1]:
            rows_seen += blo.shape[1]
            if rows_seen > _GRID_BUDGET:
                raise ResolutionTooCoarse(f"grid refinement exceeded the {_GRID_BUDGET} block budget at cell={cell}")
            rc = 0.5 * (side - 1) * cell * math.sqrt(n_dim)
            offsets = (side // 2) * corners
            # single cells have no children, and the level after them is empty
            children = [blo[:, :0]]
            for start in range(0, blo.shape[1], _GRID_CHUNK):
                b = blo[:, start : start + _GRID_CHUNK]
                d = self.distances((origin[:, None] + (b + 0.5 * side) * cell).T)
                all_in = d + rc < t - margin
                # an all-in block lies within the lattice: past it, centers are over t from the set
                inside_cells += int(np.count_nonzero(all_in)) * side**n_dim
                undecided = ~all_in & (d - rc < t + margin)
                if side == 1:
                    df = d[undecided]
                    inside_cells += int(np.count_nonzero(df < t))
                    boundary_cells += int(np.count_nonzero(np.abs(df - t) <= margin))
                    continue
                straddle = (b + side > ncell).any(axis=0)
                split = b.compress(undecided & ~straddle, axis=1)
                children.append((split[:, None, :] + offsets).reshape(n_dim, -1))
                if straddle.any():
                    split = b.compress(undecided & straddle, axis=1)
                    kids = (split[:, None, :] + offsets).reshape(n_dim, -1)
                    children.append(kids.compress((kids < ncell).all(axis=0), axis=1))
            side //= 2
            blo = np.concatenate(children, axis=1)
        return inside_cells, boundary_cells

    def zeta_terms(self, delta: float) -> tuple[tuple, tuple]:
        """The closed form's ``zeta.LatticeTerm`` and ``zeta.ElementaryTerm`` field values, as tuples.

        Raises :class:`DeltaTooSmall` for a ``delta`` outside ``delta_bound``
        and, for a set without a closed form, :class:`NoClosedForm`.
        """
        raise NoClosedForm(f"no closed form for {type(self).__name__}")

    def to_json(self) -> dict:
        return {"variant": self.variant, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_json(cls, data: dict):
        missing = [f.name for f in fields(cls) if f.name not in data and f.default is MISSING]
        if missing:
            raise ValueError(f"a {cls.variant} descriptor needs {', '.join(missing)}")
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def _as_point_tuple(points) -> tuple[tuple[float, ...], ...]:
    out = []
    for p in points:
        q = tuple(float(c) for c in (p if isinstance(p, (tuple, list, np.ndarray)) else (p,)))
        if not all(math.isfinite(c) for c in q):
            raise ValueError("all coordinates must be finite")
        out.append(q)
    return tuple(out)


@dataclass(frozen=True)
class PointSet(CompactSet):
    """A finite set of points in R^N."""

    points: tuple[tuple[float, ...], ...]

    variant = "point_set"
    delta_bound = "half the minimal point separation (none for a single point)"

    def __init__(self, points):
        object.__setattr__(self, "points", _as_point_tuple(points))
        if not self.points:
            raise ValueError(f"{type(self).__name__} needs at least one point")
        dims = {len(p) for p in self.points}
        if len(dims) != 1 or dims == {0}:
            raise ValueError("all points must share one ambient dimension of at least 1")

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    @property
    def t_valid_max(self) -> float:
        return self.min_gap / 2.0

    @property
    def exact_max(self) -> float:
        """Every radius on the line; in R^N, the radii at which the balls are disjoint."""
        return math.inf if self.ambient_dim == 1 else self.min_gap / 2.0

    @cached_property
    def _tree(self) -> cKDTree:
        """k-d tree over the points, built once for ``distances`` and a large set's ``min_gap``."""
        # scipy is imported here, by the first set that needs a tree, and by no other code
        from scipy.spatial import cKDTree

        return cKDTree(np.asarray(self.points, dtype=float))

    @cached_property
    def min_gap(self) -> float:
        """Smallest pairwise distance (inf for a single point), computed once.

        Up to 4000 points (the bound of ``diameter``) in at most 7 dimensions,
        by numpy, which spares a small set the import of scipy: the squared
        offsets summed coordinate by coordinate, in order, then the root of the
        least sum, the k-d tree's bits.  Larger sets ask the tree, and so do
        sets in 8 or more dimensions, whose squares the tree sums in four
        interleaved lanes.
        """
        if len(self.points) < 2:
            return math.inf
        arr = np.asarray(self.points, dtype=float)
        if len(arr) > 4000 or arr.shape[1] >= 8:
            d, _ = self._tree.query(arr, k=2)
            return float(d[:, 1].min())
        least = math.inf
        # 256 rows at a time bound the memory of the n x n table
        for i in range(0, len(arr), 256):
            diff = arr[i : i + 256, None, :] - arr[None, :, :]
            with np.errstate(over="ignore"):
                sq = sum(diff[..., k] * diff[..., k] for k in range(arr.shape[1]))
            # each point's offset to itself
            sq[np.arange(len(sq)), np.arange(i, i + len(sq))] = np.inf
            least = min(least, float(sq.min()))
        return math.sqrt(least)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(self.points, dtype=float)
        return arr.min(axis=0), arr.max(axis=0)

    @cached_property
    def diameter(self) -> float:
        """Largest pairwise distance up to 4000 points, else the bounding-box diagonal; computed once."""
        arr = np.asarray(self.points, dtype=float)
        if len(arr) > 4000:
            lo, hi = self.bounds()
            return float(np.linalg.norm(hi - lo))
        # 256 rows at a time bound the memory of the n x n distance table
        rows = (arr[i : i + 256, None, :] - arr[None, :, :] for i in range(0, len(arr), 256))
        return max(float(np.sqrt((diff**2).sum(-1)).max()) for diff in rows)

    @cached_property
    def _far_tree(self) -> cKDTree:
        """k-d tree over the points scaled by ``2^-600``, for queries whose squared offsets overflow."""
        from scipy.spatial import cKDTree

        return cKDTree(np.asarray(self.points, dtype=float) * 2.0**-600)

    def distances(self, pts: np.ndarray, below: float = 0.0) -> np.ndarray:
        d, nearest = self._tree.query(pts)
        # the tree squares the offsets: such rows are measured at 2^-600 scale, where the
        # powers of two keep every bit and a coordinate lost to underflow is below their rounding
        far = np.flatnonzero(d >= 2.0**510)
        if far.size:
            with np.errstate(over="ignore"):
                d[far] = self._far_tree.query(pts[far] * 2.0**-600)[0] * 2.0**600
        # squares of tiny offsets underflow: those rows are measured again from their nearest point
        near = np.flatnonzero(d < 2.0**-510)
        if near.size:
            d[near] = _row_norms(np.abs(pts[near] - self._tree.data[nearest[near]]).T)
        return d

    @cached_property
    def _gaps(self) -> np.ndarray:
        """The gaps between consecutive points on the line."""
        return np.diff(np.sort(np.asarray(self.points)[:, 0]))

    def exact_volumes(self, ts: np.ndarray) -> np.ndarray:
        if self.ambient_dim == 1:
            return gap_volumes(2.0 * ts, self._gaps)
        t = float(ts.max(initial=0.0))
        if t > self.exact_max:
            raise FractalZetaError(f"no exact tube volume available for {type(self).__name__} at t={t}")
        return len(self.points) * _unit_ball_volume(self.ambient_dim) * _libm_pow(ts, self.ambient_dim)

    def volume_breaks(self, floor: float) -> np.ndarray:
        # the balls of R^N, N > 1, stay disjoint up to exact_max: n omega_N t^N is one piece
        return _gap_breaks(floor, self._gaps) if self.ambient_dim == 1 else np.empty(0)

    def zeta_terms(self, delta: float) -> tuple[tuple, tuple]:
        if len(self.points) > 1 and delta > self.min_gap / 2.0:
            raise DeltaTooSmall(
                "delta exceeds half the minimal point separation; balls overlap and the "
                "closed form no longer holds"
            )
        return (), ((len(self.points) * _sphere_area(self.ambient_dim), 0, 0.0),)

    def to_json(self) -> dict:
        return {**super().to_json(), "points": [list(p) for p in self.points]}


@dataclass(frozen=True)
class PointCloud(PointSet):
    """A sampled point cloud with a declared ambient dimension.

    Supported for measurement operations only; there is no canonical
    continuum limit and hence no closed-form zeta function, and its tube
    volume takes no disjoint-ball shortcut.
    """

    ambient_dim: int = 0

    variant = "point_cloud"
    t_valid_max = math.inf
    zeta_terms = CompactSet.zeta_terms

    def __init__(self, points, ambient_dim=None):
        super().__init__(points)
        dim = len(self.points[0])
        if ambient_dim is not None and ambient_dim != dim:
            raise ValueError("declared ambient_dim does not match point dimension")
        object.__setattr__(self, "ambient_dim", dim)

    @property
    def exact_max(self) -> float:
        return math.inf if self.ambient_dim == 1 else 0.0


@dataclass(frozen=True)
class CantorLike(CompactSet):
    """Middle-gap Cantor set on ``[0, scale]``.

    Each interval of length L splits into two end intervals of length
    ``ratio * L``; the open middle gap of length ``(1 - 2 ratio) * L`` is
    removed.  The default ``ratio = 1/3`` gives the classical middle-third
    set.
    """

    ratio: float = 1.0 / 3.0
    scale: float = 1.0

    def __post_init__(self):
        if not (_is_real(self.ratio) and 0.0 < self.ratio < 0.5):
            raise ValueError("ratio must be a real number in (0, 1/2)")
        if not (_is_real(self.scale) and math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")

    variant = "cantor_like"
    delta_bound = "half the largest gap: (1 - 2 ratio) * scale / 2"
    ambient_dim = 1

    @property
    def box_dimension(self) -> float:
        return math.log(2.0) / math.log(1.0 / self.ratio)

    @property
    def largest_gap(self) -> float:
        return (1.0 - 2.0 * self.ratio) * self.scale

    @property
    def default_delta(self) -> float:
        return self.scale / 2.0

    @property
    def t_valid_max(self) -> float:
        return self.largest_gap / 2.0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([0.0]), np.array([self.scale])

    @property
    def diameter(self) -> float:
        return self.scale

    def distances(self, pts: np.ndarray, below: float = 0.0) -> np.ndarray:
        """Distance to the nearer end of the middle gap holding each point, by descent.

        A point in no gap down to an interval shorter than its ulp takes the
        distance to the nearer end of that interval.  While every remaining
        point lies in the leftmost interval, below its first gap, a level
        changes nothing but ``L``, so those levels take ``L *= ratio`` alone:
        a tiny point costs a few dozen passes, not one per level down to it.
        """
        ratio, scale = self.ratio, self.scale
        x = pts[:, 0]
        out = np.maximum(np.maximum(-x, x - scale), 0.0)
        inside = (x > 0.0) & (x < scale)
        xi = x[inside]
        res = np.empty(xi.shape)
        idx = np.arange(xi.size)
        a = np.zeros(xi.size)
        L = scale
        # no point inside has a wider ulp than scale
        ulp_top = float(np.spacing(scale))
        while idx.size:
            xa = xi[idx]
            if not a.any():
                # every point in the leftmost interval: while all lie below its first gap, a level only
                # shrinks L, and L > x keeps each point above its ulp
                top = float(xa.max())
                while top < ratio * L:
                    L *= ratio
            if L < ulp_top:
                fine = L < np.spacing(xa)
                # rounding may leave a point just past the end a + L
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

    @property
    def _holes(self) -> tuple:
        # level-k gaps: 2^(k-1) of width largest_gap r^(k-1), filled at half their width
        r, g = self.ratio, self.largest_gap
        return self.scale, g / 2.0, r, 2.0 * r, (g,)

    def exact_volumes(self, ts: np.ndarray) -> np.ndarray:
        return _hole_volumes(ts, *self._holes) + 2.0 * ts

    def zeta_terms(self, delta: float) -> tuple[tuple, tuple]:
        bound = self.largest_gap / 2.0
        if delta < bound:
            raise DeltaTooSmall(f"CantorLike closed form needs delta >= {bound}")
        beta = 2.0 * self.ratio / ((1.0 - 2.0 * self.ratio) * self.scale)
        return ((2.0, beta, (0.0,), (1.0 / self.ratio, 2.0)),), ((2.0, 0, 0.0),)


@dataclass(frozen=True)
class FractalStringBoundary(CompactSet):
    """The boundary set ``{a_k = sum_{j >= k} l_j} ∪ {0}`` of a fractal string.

    Two construction modes:

    * explicit -- ``lengths`` is a finite nonincreasing tuple of positive
      reals;
    * self-similar -- lengths ``scale * base**-n`` with multiplicity
      ``multiplicity**(n-1)`` for ``n = 1, 2, ...`` (e.g. the Cantor string
      has ``base=3, multiplicity=2``), an infinite sequence whose points are
      tabulated by level.
    """

    lengths: Optional[tuple[float, ...]] = None
    base: Optional[float] = None
    multiplicity: Optional[int] = None
    scale: float = 1.0

    variant = "string_boundary"
    delta_bound = "half the first length: l_1 / 2"
    ambient_dim = 1

    def __post_init__(self):
        if (self.lengths is None) == (self.base is None):
            raise ValueError("give either explicit lengths or a self-similar generator")
        if self.lengths is not None:
            ls = self.lengths
            if not (isinstance(ls, (tuple, list, np.ndarray)) and len(ls) and all(map(_is_real, ls))):
                raise ValueError(f"lengths must be a nonempty sequence of real numbers, got {ls!r}")
            ls = tuple(float(v) for v in ls)
            if not all(math.isfinite(v) and v > 0 for v in ls):
                raise ValueError("lengths must be positive and finite")
            if any(a < b for a, b in zip(ls, ls[1:])):
                raise ValueError("lengths must be nonincreasing")
            object.__setattr__(self, "lengths", ls)
        else:
            if not (_is_real(self.base) and math.isfinite(self.base) and _is_integer(self.multiplicity)):
                raise ValueError("self-similar mode needs a finite real base and an integer multiplicity")
            if self.base <= 1.0 or self.multiplicity < 1:
                raise ValueError("need base > 1 and multiplicity >= 1")
            if self.multiplicity >= self.base:
                raise ValueError("multiplicity must be < base for a summable string")
        if not (_is_real(self.scale) and math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")

    @classmethod
    def cantor_string(cls) -> "FractalStringBoundary":
        return cls(base=3.0, multiplicity=2, scale=1.0)

    @property
    def is_self_similar(self) -> bool:
        return self.base is not None

    @property
    def total_length(self) -> float:
        if self.is_self_similar:
            return self.scale / (self.base - self.multiplicity)
        return float(sum(self.lengths))

    @property
    def first_length(self) -> float:
        if self.is_self_similar:
            return self.scale / self.base
        return self.lengths[0]

    @property
    def box_dimension(self) -> float:
        if self.is_self_similar:
            return math.log(self.multiplicity) / math.log(self.base)
        return 0.0

    @property
    def default_delta(self) -> float:
        return self.first_length

    @property
    def t_valid_max(self) -> float:
        if self.is_self_similar:
            return self.first_length / 2.0
        # a finite string's zeta only has the pole at 0; the residue sum
        # reproduces |A_t| on the first linear piece, below half the
        # smallest length
        return min(self.lengths) / 2.0

    def level_tail(self, n: int) -> float:
        """Sum of all lengths strictly below level ``n`` (self-similar mode)."""
        b, m = self.base, self.multiplicity
        return self.scale * (m / b) ** n / (b - m)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([0.0]), np.array([self.total_length])

    @property
    def diameter(self) -> float:
        return self.total_length

    @cached_property
    def _end(self) -> int:
        """The level where the level rows end, the first whose floats lose digits.

        That is, the first spaced below an ulp of its anchor, or whose length
        or ``base**-n`` falls below ``2^-1022``.  All of these fall with ``n``
        (for multiplicity ``m >= 2`` the spacing over the ulp shrinks by at
        least ``2 / m`` a level), so a bisection finds it.
        """
        b = self.base
        # past hi, min(1, scale) b^-n < 2^-1022
        lo, hi = 1, max(2, 2 + int((709.0 + min(0.0, math.log(self.scale))) / math.log(b)))
        while hi - lo > 1:
            n = (lo + hi) // 2
            bn = b**-n
            if min(bn, self.scale * bn) < 2.0**-1022 or self.scale * bn < math.ulp(self.level_tail(n - 1)):
                hi = n
            else:
                lo = n
        return hi

    def _rows(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``(anchor, length, i_lo, i_hi)`` of the integer levels ``ns``.

        Level ``n`` holds the points ``anchor - length * i``, ``anchor =
        level_tail(n - 1)``, ``length = scale * base**-n``, ``i = 1 .. m^(n-1)``,
        and level 1 also its anchor, the top point; libm ``pow`` keeps the
        bits of ``level_tail``.
        """
        b, m = self.base, self.multiplicity
        k = (ns - 1).astype(float)
        anchors = self.scale * _libm_pow(m / b, k) / (b - m)
        return anchors, self.scale * _libm_pow(b, -ns.astype(float)), np.minimum(k, 1.0), _libm_pow(float(m), k)

    @cached_property
    def _floor_top(self) -> float:
        """Top of the floor segment below the level rows, whose points are denser than the floats."""
        return self.level_tail(self._end - 1)

    @cached_property
    def _levels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
        """Rows ``(anchor, length, 0, 0)`` of an explicit string's points, ascending, and the floor top 0."""
        ls = np.asarray(self.lengths)
        a = self.total_length - np.concatenate([[0.0], np.cumsum(ls[:-1])])
        return a[::-1], ls[::-1], np.zeros(a.size), np.zeros(a.size), 0.0

    def _levels_near(self, x: np.ndarray) -> np.ndarray:
        """The levels within two of those holding ``x``, descending, for a self-similar string.

        Level ``n`` is anchored at ``scale (m / b)^(n-1) / (b - m)``, about ``n``
        ulps off, so ``n`` follows from a logarithm.  Its rounding, up to
        ``1e-13 / log(b / m)`` levels, stays below one for ``b / m > 1 + 1e-12``.
        """
        b, m, end = self.base, self.multiplicity, self._end
        # a total length that underflows to 0 is clipped to 2^-1074, where the log is finite
        top = max(self.total_length, 2.0**-1074)
        u = np.log(np.clip(x, 2.0**-1074, top)) + (math.log(b - m) - math.log(self.scale))
        n = np.clip(np.floor(u / math.log(m / b)), 0.0, end).astype(np.int64) + 1
        # sorted and deduplicated by hand: np.unique hashes, many times slower on int64
        ns = _distinct(np.sort((_distinct(np.sort(n))[:, None] + np.arange(-2, 3)).ravel()))
        return ns[(ns >= 1) & (ns < end)][::-1]

    def distances(self, pts: np.ndarray, below: float = 0.0) -> np.ndarray:
        """Distance to the nearest candidate of the first row with ``anchor >= x``.

        The candidates are its two points around ``floor((anchor - x) / length)``,
        the nearest points of the rows on either side and the floor segment.
        An explicit string has one row per point; a self-similar string
        builds only the level rows near each chunk of ``_STRING_CHUNK``
        (65,536) queries.
        """
        x = pts[:, 0]
        if not self.is_self_similar:
            return _row_distances(x, *self._levels)
        chunks, floor = np.split(x, range(_STRING_CHUNK, x.size, _STRING_CHUNK)), self._floor_top
        return np.concatenate([_row_distances(c, *self._rows(self._levels_near(c)), floor) for c in chunks])

    @property
    def _holes(self) -> Optional[tuple]:
        if not self.is_self_similar:
            return None
        b, l1 = self.base, self.first_length
        return self.total_length, l1 / 2.0, 1.0 / b, self.multiplicity / b, (l1,)

    def exact_volumes(self, ts: np.ndarray) -> np.ndarray:
        if not self.is_self_similar:
            # the lengths are the gaps between consecutive boundary points
            return gap_volumes(2.0 * ts, np.asarray(self.lengths))
        return _hole_volumes(ts, *self._holes) + 2.0 * ts

    def volume_breaks(self, floor: float) -> np.ndarray:
        if not self.is_self_similar:
            return _gap_breaks(floor, np.asarray(self.lengths))
        return super().volume_breaks(floor)

    def zeta_terms(self, delta: float) -> tuple[tuple, tuple]:
        bound = self.first_length / 2.0
        if delta <= bound:
            raise DeltaTooSmall(f"string-boundary closed form needs delta > {bound}")
        if not self.is_self_similar:
            lattice = tuple((2.0 * count, 2.0 / l, (0.0,), None) for l, count in sorted(Counter(self.lengths).items()))
        elif self.multiplicity == 1:
            raise NoClosedForm(
                "multiplicity-1 strings put a double pole at s = 0, outside the "
                "supported simple-pole term shapes"
            )
        else:
            lattice = ((2.0, 2.0 / self.scale, (0.0,), (self.base, float(self.multiplicity))),)
        return lattice, ((2.0, 0, 0.0),)

    def to_json(self) -> dict:
        if self.is_self_similar:
            return {k: v for k, v in super().to_json().items() if k != "lengths"}
        return {"variant": self.variant, "lengths": list(self.lengths)}

    @classmethod
    def from_json(cls, data: dict) -> "FractalStringBoundary":
        if "lengths" in data:
            return cls(lengths=data["lengths"])
        base, multiplicity, scale = data.get("base"), data.get("multiplicity"), data.get("scale", 1.0)
        if not all(map(_is_real, (base, multiplicity, scale))):
            raise ValueError(f"base, multiplicity and scale must be real: {base!r}, {multiplicity!r}, {scale!r}")
        if not float(multiplicity).is_integer():
            raise ValueError("multiplicity must be an integer")
        return cls(base=float(base), multiplicity=int(multiplicity), scale=float(scale))


@dataclass(frozen=True)
class SierpinskiGasket(CompactSet):
    """The Sierpinski gasket in the unit triangle (0,0), (1,0), (1/2, sqrt3/2)."""

    variant = "sierpinski_gasket"
    delta_bound = "1 / (4 sqrt 3)"
    ambient_dim = 2
    box_dimension = math.log(3.0) / math.log(2.0)
    default_delta = 0.5
    t_valid_max = 1.0 / (2.0 * SQRT3)
    diameter = 1.0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([0.0, 0.0]), np.array([1.0, SQRT3 / 2.0])

    def distances(self, pts: np.ndarray, below: float = 0.0) -> np.ndarray:
        """Exact distances from the base-2 barycentric digits, in a fixed number of passes.

        A point in the big triangle is in the set or in exactly one hole, an
        open triangle whose outline lies in the set, so its distance is the
        distance to that hole's edges.  Descending into the subtriangle of the
        largest coordinate, ``lam <- 2 lam - e_i``, is exact, so at level
        ``k`` the coordinates are ``frac(2^k lam_i)`` while no two of them
        have a 1 at the same binary digit.  The point lies in a level-``k``
        hole, at ``(2^-k sqrt3 / 4)(1 - 2 max_i frac(2^k lam_i))`` from its
        edges, where ``k + 1`` is the first of 53 digits at which all three
        coordinates have a 0.  It is on the set (distance 0) when no such
        digit exists, when two coordinates share a 1 at an earlier digit, or
        when a coordinate rounds to 1 or more.  Each of these is a bit
        operation on the 53-digit integers ``floor(2^53 lam_i)``, and the
        scale ``2^(53 - e)`` a table entry.

        A point outside the big triangle takes the least of its distances to
        the three edges of the outline.
        """
        if np.abs(pts).max(initial=0.0) >= 2.0**1020:
            # sums of such coordinates overflow; the set is within 1 of the origin, below these norms' rounding
            out = _row_norms(np.abs(pts).T)
            near = (np.abs(pts) < 2.0**1020).all(axis=1)
            out[near] = self.distances(pts[near])
            return out
        px, py = pts[:, 0], pts[:, 1]
        q = py / SQRT3
        l0, l1, l2 = 1.0 - px - q, px - q, (2.0 / SQRT3) * py
        inside = (l0 > 0.0) & (l1 > 0.0) & (l2 > 0.0)
        out = np.empty(px.size)
        # the outline of the big triangle belongs to the set
        far = np.flatnonzero(~inside)
        out[far] = _gasket_edge_min(px.take(far), py.take(far))
        near = np.flatnonzero(inside)
        lam = [l.take(near) for l in (l0, l1, l2)]
        # inside points only: the digits of a far point overflow int64
        a0, a1, a2 = ((l * 2.0**_DIGITS).astype(np.int64) for l in lam)
        either = a0 | a1 | a2
        # the first digit at which all three are 0 is bit e - 1, digit 54 - e after the point
        _, e = np.frexp(~either & ((1 << _DIGITS) - 1))
        clash = (a0 & a1) | (a0 & a2) | (a1 & a2)
        scale = _POW2.take(_DIGITS - e)
        lmax = np.zeros(scale.size)
        for l in lam:
            f = l * scale
            f -= np.floor(f)
            np.maximum(lmax, f, out=lmax)
        d = (SQRT3 / 4.0) / scale * (1.0 - 2.0 * lmax)
        d[(e == 0) | (clash >> e != 0) | (either >> _DIGITS != 0)] = 0.0
        out[near] = d
        return out

    def _grid_counts(self, t: float, cell: float, origin: np.ndarray, ncell: np.ndarray, margin: float):
        """The grid's counts by lattice rows, with exact distances only at a flip.

        In the big triangle ``d >= tau`` holds only in the cores of the holes of
        inradius ``r > tau``, inverted triangles of inradius ``r - tau``; outside it
        ``d < tau`` is the outline's ``tau``-neighbourhood.  So a row's centres
        with ``d < tau`` are one interval's less those of the cores it crosses,
        counted at ``tau - tol`` for each flip ``tau`` of the comparisons
        (``t``, ``t -+ margin``), ``tol = _GRID_NEAR_FLIP (1 + t)``.  A row with
        a centre in ``[tau - tol, tau + tol)``, where rounding could decide a
        comparison, takes ``distances`` and the comparisons themselves.

        From ``tau - tol`` to ``tau + tol`` every end moves one way: the
        outline's ends outward, a core's ends inward and its top edge
        ``u = h/2 - tau`` down.  A band end ``(y - 2 tau) / sqrt3`` and a core
        end ``centre -+ (u - 2 tau) / sqrt3`` move by ``4 tol / (sqrt3 cell)``
        lattice steps; that is some 10^4 ulps of an end, which is at most
        ``(1 + 2 t) / cell``, so ``reach``, twice it, covers the rounding of
        both ends.  A row's count or first centre can change in the window
        only if an end crosses an integer, so a row is flagged when, at some
        flip, an integer lies within ``reach`` of an end on the side it moves
        toward, or a core that holds centres has its top edge within
        ``4 tol`` above ``u``.  A core whose half-width passes 0 in the window
        holds a centre only if an integer lies within that half-width of its
        centre, within ``reach`` of both ends.  The discs about the corners
        have no such bound: an end moves without bound near a disc's edge,
        and a disc can appear inside the window.  But the disc about
        ``(0, 0)`` touches the band's line at ``y = tau/2`` and bends away from
        it above, its end right of the band's by at least
        ``(y - tau/2)^2 / (2 tau)``, and the apex's disc likewise below
        ``y = sqrt3/2 + tau/2``.  A row more than a cell past those heights,
        on the band's side, at every radius of every window, has that gap far
        above the ends' rounding, so the band's end is the outline's there,
        bit for bit.  The other rows, below ``(t + margin) / 2 + cell`` or
        above ``sqrt3/2 + (t - margin) / 2 - cell``, count their interval
        again at ``tau + tol`` and are flagged where its count or first centre
        differs.  The holes a row crosses are found level by
        level, depth first in pieces of ``_GRID_CHUNK`` row-hole pairs;
        ``_GRID_BUDGET`` counts rows and pairs.  A tube with ``t - margin``
        under one cell takes the block refinement.
        """
        if t - margin < cell:
            # the rows would descend to the cores of holes narrower than a cell: the blocks take a tube this thin
            return super()._grid_counts(t, cell, origin, ncell, margin)
        (ox, oy), (nx, ny) = origin.tolist(), ncell.ravel().tolist()
        if ny > _GRID_BUDGET:
            raise ResolutionTooCoarse(f"gasket row count exceeded the {_GRID_BUDGET} budget at cell={cell}")
        tol = _GRID_NEAR_FLIP * (1.0 + t)
        flips = np.array([[t - margin], [t], [t + margin]])
        taus = flips - tol
        reach = 8.0 * tol / (SQRT3 * cell)
        # the heights past which the band's end is the outline's at every radius of every window
        band_lo, band_hi = (t + margin) / 2.0 + cell, SQRT3 / 2.0 + (t - margin) / 2.0 - cell

        def exact_counts(redo):
            # the counts of exact distances on whole rows, a piece of rows at a time
            inside = boundary = 0
            step = max(1, _GRID_CHUNK // nx)
            for k in range(0, redo.size, step):
                ix, iy = np.meshgrid(np.arange(nx), redo[k : k + step])
                d = self.distances(np.column_stack((ox + (ix.ravel() + 0.5) * cell, oy + (iy.ravel() + 0.5) * cell)))
                inside += int(np.count_nonzero(d < t))
                boundary += int(np.count_nonzero(np.abs(d - t) <= margin))
            return inside, boundary

        def interval(outline):
            # lattice indices i of the ends of the rows' intervals, the centres being at ox + (i + 0.5) cell
            left = (outline - ox) / cell - 0.5
            right = (1.0 - 2.0 * ox) / cell - 1.0 - left
            first, last = np.ceil(left), np.floor(right)
            lo, hi = np.minimum(np.maximum(first, 0), nx), np.minimum(np.maximum(last, -1), nx - 1)
            return left, right, first, last, lo, np.maximum(hi - lo + 1.0, 0.0)

        if not (taus > 0.0).all():
            # a flip at or under 0, which only an infinite tol reaches, leaves every row to exact distances
            return exact_counts(np.arange(ny))
        deepest = float(taus.min())
        seen, inside_cells, boundary_cells = ny, 0, 0
        for start in range(0, ny, _GRID_CHUNK):
            rows = np.arange(start, min(start + _GRID_CHUNK, ny))
            y = oy + (rows + 0.5) * cell
            # between those heights the outline is the band along the left edge alone; the rows
            # past them take the whole outline, at tau + tol too
            disc = np.flatnonzero((y <= band_lo) | (y >= band_hi))
            outline = (y - 2.0 * taus) / SQRT3
            both = _gasket_outline_left(y.take(disc), np.concatenate((taus, flips + tol)))
            outline[:, disc] = both[:3]
            left, right, first, last, lo, count = interval(outline)
            # the band's ends move outward: an integer within reach below the left end or above the right
            exact = ((np.ceil(left - reach) != first) | (np.floor(right + reach) != last)).any(0)
            *_, lo_up, count_up = interval(both[3:])
            lo, count_lo = lo[:, disc], count[:, disc]
            exact[disc] = ((count_lo != count_up) | ((count_lo > 0.0) & (lo != lo_up))).any(0)
            level = np.flatnonzero((y >= 0.0) & (y <= SQRT3 / 2.0))
            stack = [(level, np.zeros(level.size), np.zeros(level.size), 1.0)] if deepest < 1.0 / (4.0 * SQRT3) else []
            while stack:
                r, a, b, side = stack.pop()
                seen += r.size
                if seen > _GRID_BUDGET:
                    raise ResolutionTooCoarse(f"gasket row count exceeded the {_GRID_BUDGET} budget at cell={cell}")
                h = side * (SQRT3 / 2.0)
                u = y.take(r) - b
                # the core of a subtriangle's hole at tau: |x - a - side/2| <= (u - 2 tau) / sqrt3, u <= h/2 - tau
                near = np.flatnonzero((u >= 2.0 * deepest) & (u <= h / 2.0 - deepest))
                if near.size:
                    un, rn = u.take(near), r.take(near)
                    centre = (a.take(near) + side / 2.0 - ox) / cell - 0.5
                    cut, hit = _gasket_core_cuts(un, centre, taus, h / 2.0 - taus, reach, tol, cell)
                    for k in range(3):
                        count[k] -= np.bincount(rn, cut[k], rows.size)
                    exact[rn[hit]] = True
                if side / (8.0 * SQRT3) > deepest:
                    # a row in the lower half crosses the two lower subtriangles, one in the upper half the top one
                    low = u < h / 2.0
                    two = np.flatnonzero(low)
                    r = np.concatenate((r, r[two]))
                    a = np.concatenate((a + np.where(low, 0.0, side / 4.0), a[two] + side / 2.0))
                    b = np.concatenate((b + np.where(low, 0.0, h / 2.0), b[two]))
                    for k in range(0, r.size, _GRID_CHUNK):
                        stack.append((r[k : k + _GRID_CHUNK], a[k : k + _GRID_CHUNK], b[k : k + _GRID_CHUNK], side / 2.0))
            inside, boundary = exact_counts(rows[exact])
            inside_cells += inside + int(count[1].sum(where=~exact))
            boundary_cells += boundary + int((count[2] - count[0]).sum(where=~exact))
        return inside_cells, boundary_cells

    # level-k holes: 3^(k-1) triangles of side 2^-k, filled at their inradius; the
    # uncovered core of a side-w hole is a triangle of side w - 2 sqrt3 t
    _holes = (SQRT3 / 4.0, 1.0 / (4.0 * SQRT3), 0.5, 0.75, (SQRT3 / 8.0, -SQRT3 / 16.0))

    def exact_volumes(self, ts: np.ndarray) -> np.ndarray:
        return _hole_volumes(ts, *self._holes) + 3.0 * ts + math.pi * ts * ts

    def zeta_terms(self, delta: float) -> tuple[tuple, tuple]:
        bound = 1.0 / (4.0 * SQRT3)
        if delta <= bound:
            raise DeltaTooSmall(f"gasket closed form needs delta > {bound}")
        return ((6.0 * SQRT3, 2.0 * SQRT3, (0.0, 1.0), (2.0, 3.0)),), ((2.0 * math.pi, 0, 0.0), (3.0, 1, 1.0))


def _carpet_hole_sides() -> list[float]:
    """Hole side ``s / 3`` of each level of the carpet descent, by its ``s /= 3``, while ``s >= _RESOLUTION``."""
    s, sides = 1.0, []
    while s >= _RESOLUTION:
        sides.append(s / 3.0)
        s /= 3.0
    return sides


# Hole sides of the carpet's 33 levels, then six zeros: a six-level pass that
# starts at the last level reads the holes past it as 0, on the set.
_CARPET_SIDES = np.array(_carpet_hole_sides() + [0.0] * 6)
_CARPET_LEVELS = _CARPET_SIDES.size - 6

# Half the hole side of each descent level, the farthest that a point of the
# level's cubes lies from the set, then -1 from the last level on: a level
# runs while its entry is at least ``below >= 0``.
_CARPET_REACH = np.concatenate((_CARPET_SIDES[:_CARPET_LEVELS] / 2.0, np.full(7, -1.0)))

# A carpet coordinate on the lattice of multiples of 2^-51 steps exactly as the integer y 2^51.
_CARPET_BITS = 51

# Base-729 digit -> bit i set where its i-th leading ternary digit is 1.
_CARPET_ONES = np.array(
    [sum(1 << i for i in range(6) if d // 3 ** (5 - i) % 3 == 1) for d in range(729)], dtype=np.int8
)

# Six-bit mask -> its lowest set bit (-1 for no bit, never read).
_LOWEST_BIT = np.array([(m & -m).bit_length() - 1 for m in range(64)], dtype=np.int64)

# 3^(j + 1): coordinate scale from the start of a six-level pass to the end of its level j.
_POW3 = 3 ** np.arange(1, 7, dtype=np.int64)


def _face_gap(fs) -> np.ndarray:
    """Least distance ``min(f, 1 - f)`` of the coordinates ``fs`` to the faces of the unit cube."""
    return np.minimum.reduce([np.minimum(f, 1.0 - f) for f in fs])


def _carpet_lattice_distances(out: np.ndarray, groups, below: float) -> None:
    """Carpet hole distances of points on the ``2^-51`` lattice, six levels per int64 pass.

    ``groups`` holds ``(rows, (Y0, Y1, Y2), k)``: rows of ``out`` and their
    coordinates times ``2^51`` at the start of descent level ``k``.  A point
    whose next pass starts at a level whose reach is under ``below`` is left
    as it is.
    """
    idx = np.concatenate([g[0] for g in groups])
    ys = [np.concatenate([g[1][c] for g in groups]) for c in range(3)]
    k = np.concatenate([np.full(g[0].size, g[2]) for g in groups])
    while idx.size:
        ones = np.full(idx.size, 63, dtype=np.int8)
        steps = []
        for y in ys:
            z = y * 729
            dig = z >> _CARPET_BITS
            ones &= _CARPET_ONES.take(dig)
            z -= dig << _CARPET_BITS
            steps.append(z)
        hole = np.flatnonzero(ones)
        if hole.size:
            j = _LOWEST_BIT.take(ones.take(hole))
            scale = _POW3.take(j)
            fs = [((y.take(hole) * scale) & ((1 << _CARPET_BITS) - 1)) * 2.0**-_CARPET_BITS for y in ys]
            out[idx.take(hole)] = _CARPET_SIDES.take(k.take(hole) + j) * _face_gap(fs)
        k += 6
        rest = np.flatnonzero((ones == 0) & (_CARPET_REACH.take(k) >= below))
        idx, k, ys = idx.take(rest), k.take(rest), [z.take(rest) for z in steps]


@dataclass(frozen=True)
class SierpinskiCarpet3D(CompactSet):
    """Three-dimensional carpet: unit cube, remove the open middle 27th, iterate on the 26 others."""

    variant = "sierpinski_carpet_3d"
    delta_bound = "1/6"
    ambient_dim = 3
    box_dimension = math.log(26.0) / math.log(3.0)
    default_delta = 0.25
    t_valid_max = 0.5
    diameter = SQRT3

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(3), np.ones(3)

    def distances(self, pts: np.ndarray, below: float = 0.0) -> np.ndarray:
        """Exact distances from the base-3 digits, six levels per integer pass.

        A point in the open unit cube is in the set or in exactly one hole, an
        open cube whose faces lie in the set.  The descent steps each
        coordinate ``y <- 3 y - floor(3 y)``; at level ``k`` (cube side
        ``s = 3^-k``) the point is in the hole when all three digits
        ``floor(3 y)`` are 1, at ``(s / 3) min(f, 1 - f)`` from its faces,
        ``f`` the stepped coordinates.  Holes at level 33 or deeper, where
        ``s < 2^-52``, read 0.  Below 1, ``3 y`` rounds below 3, so a digit
        is never past 2 and a coordinate stays below 1.

        The steps run in floats only while a coordinate of the point is off
        the lattice of multiples of ``2^-51``, on average under three levels
        for uniform points.  On the lattice ``3 y`` is exact, so the step is
        the integer step on ``Y = y 2^51``, and one int64 pass takes six
        levels: ``729 Y >> 51`` is the base-729 digit, a table gives which of
        its six ternary digits are 1, and the lowest level at which all
        three coordinates have a 1 is the hole.  Its ``f`` are
        ``3^(j + 1) Y mod 2^51`` times ``2^-51``, bit for bit the floats.

        Both stop at the first level whose hole side ``h`` is under
        ``2 below``, and the points left there read 0: each lies in a hole of
        that level or deeper, or on the set, so within ``h / 2`` of the set,
        and the descent would give it at most ``h / 2``.
        """
        # the surface of the unit cube belongs to the set
        cols = pts[:, 0], pts[:, 1], pts[:, 2]
        inside = (cols[0] > 0.0) & (cols[0] < 1.0)
        for c in cols[1:]:
            inside &= (c > 0.0) & (c < 1.0)
        out = np.zeros(len(pts))
        far = np.flatnonzero(~inside)
        if far.size:
            offsets = [c.take(far) for c in cols]
            out[far] = _row_norms([np.maximum(np.maximum(-c, c - 1.0), 0.0) for c in offsets])
        idx = np.flatnonzero(inside)
        ys = [c.take(idx) for c in cols]
        lattice = []
        k = 0
        while idx.size and _CARPET_REACH[k] >= below:
            hole = np.ones(idx.size, dtype=bool)
            on = np.ones(idx.size, dtype=bool)
            scaled = []
            for y in ys:
                y *= 3.0
                dig = np.floor(y)
                y -= dig
                hole &= dig == 1.0
                b = y * 2.0**_CARPET_BITS
                on &= b == np.floor(b)
                scaled.append(b)
            found = np.flatnonzero(hole)
            if found.size:
                out[idx.take(found)] = _CARPET_SIDES[k] * _face_gap([y.take(found) for y in ys])
                on &= ~hole
            k += 1
            moved = np.flatnonzero(on)
            if moved.size and _CARPET_REACH[k] >= below:
                lattice.append((idx.take(moved), [b.take(moved).astype(np.int64) for b in scaled], k))
            if found.size or moved.size:
                rest = np.flatnonzero(~(hole | on))
                idx, ys = idx.take(rest), [y.take(rest) for y in ys]
        if lattice:
            _carpet_lattice_distances(out, lattice, below)
        return out

    # level-k holes: 26^(k-1) cubes of side 3^-k, filled at half their side; the
    # uncovered core of a side-w hole is a cube of side w - 2t
    _holes = (1.0, 1.0 / 6.0, 1.0 / 3.0, 26.0 / 27.0, (1.0 / 9.0, -1.0 / 9.0, 1.0 / 27.0))

    def exact_volumes(self, ts: np.ndarray) -> np.ndarray:
        holes = _hole_volumes(ts, *self._holes)
        return holes + 6.0 * ts + 3.0 * math.pi * ts * ts + (4.0 / 3.0) * math.pi * _libm_pow(ts, 3)

    def zeta_terms(self, delta: float) -> tuple[tuple, tuple]:
        bound = 1.0 / 6.0
        if delta <= bound:
            raise DeltaTooSmall(f"3D carpet closed form needs delta > {bound}")
        lattice = ((48.0, 2.0, (0.0, 1.0, 2.0), (3.0, 26.0)),)
        return lattice, ((4.0 * math.pi, 0, 0.0), (6.0 * math.pi, 1, 1.0), (6.0, 2, 2.0))


# JSON variant tag -> descriptor class
_VARIANTS = {
    cls.variant: cls
    for cls in (PointSet, CantorLike, FractalStringBoundary, SierpinskiGasket, SierpinskiCarpet3D, PointCloud)
}


# ---------------------------------------------------------------------------
# Distance evaluation
# ---------------------------------------------------------------------------


def _row_norms(cols) -> np.ndarray:
    """Euclidean norms of the rows whose entries ``>= 0`` are given column by column.

    Rows whose squares would overflow or underflow, those with a largest
    entry of at least ``2^510`` or below ``2^-510``, are scaled by ``2^-600``
    or ``2^600`` first; scaling by a power of two is exact.
    """
    with np.errstate(over="ignore"):
        sq = sum(c * c for c in cols)
    out = np.sqrt(sq)
    # a superset of the rows to scale, by their sums of squares
    odd = np.flatnonzero((sq >= 2.0**1020) | (sq < len(cols) * 2.0**-1020))
    if odd.size:
        sub = [c.take(odd) for c in cols]
        top = np.maximum.reduce(sub)
        scale = np.where(top >= 2.0**510, 2.0**-600, np.where(top < 2.0**-510, 2.0**600, 1.0))
        # a norm past the float range rounds to inf
        with np.errstate(over="ignore"):
            out[odd] = np.sqrt(sum((c * scale) * (c * scale) for c in sub)) / scale
    return out


def _gasket_edge_min(qx, qy):
    """Distance to the outline of the unit triangle (0,0), (1,0), (1/2, sqrt3/2).

    That is the least length of the vectors from the nearest point of each edge.
    """
    # bottom edge, direction (1, 0)
    tt = np.minimum(np.maximum(qx, 0.0), 1.0)
    e = np.hypot(qx - tt, qy)
    # right edge from (1, 0), direction (-1/2, sqrt3/2)
    wx = qx - 1.0
    tt = np.minimum(np.maximum(-0.5 * wx + (SQRT3 / 2.0) * qy, 0.0), 1.0)
    np.minimum(e, np.hypot(wx + 0.5 * tt, qy - (SQRT3 / 2.0) * tt), out=e)
    # left edge from the apex, direction (-1/2, -sqrt3/2)
    wx = qx - 0.5
    wy = qy - SQRT3 / 2.0
    tt = np.minimum(np.maximum(-0.5 * wx - (SQRT3 / 2.0) * wy, 0.0), 1.0)
    np.minimum(e, np.hypot(wx + 0.5 * tt, wy + (SQRT3 / 2.0) * tt), out=e)
    return e


def _gasket_core_cuts(un, centre, taus, top, reach, tol, cell):
    """Centres in each row's core at each radius ``tau``, and the rows flagged by the move of its ends.

    The core spans ``centre -+ (u - 2 tau) / (sqrt3 cell)`` lattice steps about the hole's axis
    ``centre``, for a row at height ``u <= top`` above the subtriangle's base; the flag rule is
    :meth:`SierpinskiGasket._grid_counts`'s.  The arrays are reused in place: a heap that shrinks
    and regrows between pieces pays a page fault per page.
    """
    half = un - 2.0 * taus
    half /= SQRT3 * cell
    x0 = centre - half
    x1 = np.add(centre, half, out=half)
    first, last = np.ceil(x0), np.floor(x1)
    # a negative half-width leaves last < first
    cut = last - first
    cut += 1.0
    np.maximum(cut, 0.0, out=cut)
    cut *= un <= top
    slack = np.minimum(np.subtract(first, x0, out=first), np.subtract(x1, last, out=last), out=first)
    return cut, ((cut > 0.0) & ((slack < reach) | (un > top - 4.0 * tol))).any(0)


def _gasket_outline_left(y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Left end of each row ``y`` in the ``tau``-neighbourhood of the outline, one line per radius; inf off it.

    That is the least left end of the parts that meet the row, the discs about (0, 0) and the apex and
    the band along the left edge; the right end is 1 minus it.
    """
    ya = y - SQRT3 / 2.0
    sq = taus * taus
    disc = np.where(np.abs(y) <= taus, -np.sqrt(np.maximum(sq - y * y, 0.0)), np.inf)
    apex = np.where(np.abs(ya) <= taus, 0.5 - np.sqrt(np.maximum(sq - ya * ya, 0.0)), np.inf)
    band = np.where((taus > 0.0) & (2.0 * y >= taus) & (2.0 * ya <= taus), (y - 2.0 * taus) / SQRT3, np.inf)
    return np.minimum(np.minimum(disc, apex), band)


def distances_to_set(points, set_: CompactSet) -> np.ndarray:
    """Vectorized distances from an ``(n, N)`` array of finite points to the set.

    Exact to rounding except where the floats run out: a string's floor
    segment stands in for points spaced below an ulp or
    ``2^-1022 max(1, scale)``, a Cantor interval below a point's ulp for
    its points; a self-similar string with ``base / multiplicity <= 1 +
    1e-12`` may miss a level.  A distance past the float range is ``inf``.
    Raises :class:`ValueError` for an array that is not of integers or
    floats, or an element of other input that is not a real number (a
    ``bool`` in either).
    """
    if not (isinstance(points, np.ndarray) or all(map(_is_real, np.asarray(points, dtype=object).ravel()))):
        raise ValueError("points must be real numbers")
    pts = np.atleast_2d(points)
    if pts.dtype.kind not in "iuf":
        raise ValueError(f"points must be an array of real numbers, not of {pts.dtype}")
    pts = pts.astype(float, copy=False)
    if pts.shape[1] != set_.ambient_dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, set has {set_.ambient_dim}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return set_.distances(pts)


# ---------------------------------------------------------------------------
# Tube volumes
# ---------------------------------------------------------------------------


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _sphere_area(n: int) -> float:
    # surface measure of the unit sphere S^(n-1)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _hole_volumes(ts: np.ndarray, hull: float, r1: float, rho: float, q: float, cover) -> np.ndarray:
    """Measure of the hull that the tube of radius ``t`` covers, for every ``t``.

    The set fills its hull, of measure ``hull``, with holes: the level-``k``
    holes fill at radius ``r_k = r1 rho^(k-1)`` and measure ``q^(k-1)`` times
    those of level 1.  A tube of radius ``t < r_k`` covers
    ``sum_j cover[j-1] x^j q^(k-1)`` of level ``k``, ``x = t / r_k``, and all of
    every level with ``r_k <= t``.  With ``n`` levels that fill above ``t``
    and ``y = t / r_n`` that sums to

        hull q^n + sum_j cover[j-1] y^j T_j(n),   T_j(n) = sum_{i<n} q^(n-1-i) rho^(j i),

    where ``T_j(n+1) = rho^j T_j(n) + q^n``: every table entry is bounded,
    so nothing overflows and no term cancels against the hull.  The running
    minimum keeps ``n`` a count of leading levels even where rounding
    breaks the monotonicity of ``r_k``.

    A subnormal ``|A_t|`` (strings of dimension 0 at subnormal ``t``) is
    within 0.6 units of ``2^-1074`` of 300-digit sums for multiplicity 1 and
    bases 4 to 1000, 16 for base 1.5, 52 for 1.01: up to 2e-3 of the value.

    The tables of ``r_k``, ``q^k`` and ``T_j`` are kept per ``(r1, rho, q,
    cover)`` (:func:`_level_table`) and only grow, when a call's smallest
    radius lies below the levels they hold; ``q^k`` and ``T_j`` only as deep
    as radii have been evaluated, even where ``r_k`` goes deeper for
    :func:`_hole_breaks`.
    """
    floor = float(ts.min(initial=math.inf))
    if floor < 2.0**-1022 and r1 < 2.0**959:
        # subnormal radii keep their digits against radii scaled by 2^64, an
        # exact scaling; a radius past r1 fills every level, whatever its size
        return _hole_volumes(np.minimum(ts, r1) * 2.0**64, hull, r1 * 2.0**64, rho, q, cover)
    table = _level_table(r1, rho, q, cover)
    table.reach(floor)
    # levels past those above floor have running minimum at most floor <= t, so
    # a longer table gives the same count n of leading levels that fill above t
    n = np.searchsorted(table.lead, -ts, side="left")
    y = ts / table.fill[n]
    total = np.zeros(ts.shape)
    for c, tj in zip(cover[::-1], table.sums[::-1]):
        total = y * (c * tj[n] + total)
    return hull * table.powers[n] + total


def _hole_breaks(floor: float, r1: float, rho: float, q: float, cover) -> np.ndarray:
    """The running minimum of the fill radii above ``floor``, descending: where :func:`_hole_volumes` changes ``n``.

    The array is the table's own, kept for the next call with this floor; it is read-only.
    """
    return _level_table(r1, rho, q, cover).breaks(floor)


def _gap_breaks(floor: float, gaps: np.ndarray) -> np.ndarray:
    """Half of each distinct gap above ``floor``, descending: where :func:`intervals.gap_volumes` bridges a gap."""
    breaks = _distinct(np.sort(gaps)[::-1] / 2.0)
    return breaks[breaks > floor]


class _LevelTable:
    """The level tables of :func:`_hole_volumes` for one ``(r1, rho, q, cover)``.

    ``fill`` is ``[inf, r_1, r_2, ...]`` and ``lead`` the negated running
    minimum of the ``r_k``, one entry per level down to at least the first
    under every floor asked for; ``powers`` is the ``q^k`` and
    ``sums[j - 1]`` the ``T_j``, one entry per level that a radius has
    needed and one more.  Growing a table runs the recurrences on from their
    last entries, so a longer table starts with the shorter one.
    """

    def __init__(self, r1: float, rho: float, q: float, cover) -> None:
        self.r1, self.rho, self.q = r1, rho, q
        self.fill, self.lead, self.powers = np.array([math.inf]), np.empty(0), np.ones(1)
        self.sums = [np.zeros(1) for _ in cover]
        # (floor, the distinct running minima above it) of the last breaks call
        self._breaks = (math.nan, np.empty(0))

    def radii(self, floor: float) -> None:
        """Add fill radii, 4096 levels at a time, until one of them is at most ``floor``."""
        if self.lead.size and -self.lead[-1] <= floor:
            return
        k, grown = self.fill.size - 1, []
        while not grown or (grown[-1] > floor).all():
            grown.append(self.fill_at(np.arange(k, k + 4096)))
            k += 4096
        self.fill = np.concatenate([self.fill] + grown)
        self.lead = -np.minimum.accumulate(self.fill[1:])
        self._breaks = (math.nan, None)

    def fill_at(self, ks: np.ndarray) -> np.ndarray:
        """The fill radii ``fill[k + 1] = r1 rho^k`` of the level indices ``ks``, as the table holds them."""
        # r1 rho^(k // 2) rho^(k - k // 2): two powers of rho, each normal where
        # rho^k may not be, from libm pow over the exponents they take
        half = ks // 2
        exponents, at = np.unique(np.concatenate((half, ks - half)), return_inverse=True)
        pows = _libm_pow(self.rho, exponents.astype(float))[at]
        return self.r1 * pows[: ks.size] * pows[ks.size :]

    def reach(self, floor: float) -> None:
        """Grow the tables until :func:`_hole_volumes` can take every radius of at least ``floor``."""
        self.radii(floor)
        # the count n of leading levels that fill above a radius t >= floor is at most need - 1
        need = int(np.searchsorted(self.lead, -floor, side="left")) + 1
        top = self.powers.size
        if need <= top:
            return
        # q^(top - 1) to q^(need - 1): the new T_j entries add all but the last, the new powers are all but the first
        qk = [float(self.powers[-1])] + _libm_pow(self.q, np.arange(top, need).astype(float)).tolist()
        self.powers = np.append(self.powers, qk[1:])
        for j, tj in enumerate(self.sums):
            rj, t, grown = self.rho ** (j + 1), float(tj[-1]), []
            for p in qk[:-1]:
                t = rj * t + p
                grown.append(t)
            self.sums[j] = np.append(tj, grown)

    def breaks(self, floor: float) -> np.ndarray:
        """The distinct running minima of the fill radii above ``floor``, descending; read-only, kept per floor."""
        self.radii(floor)
        if self._breaks[0] != floor:
            breaks = _distinct(-self.lead)
            breaks = breaks[breaks > floor]
            breaks.flags.writeable = False
            self._breaks = (floor, breaks)
        return self._breaks[1]


@lru_cache(maxsize=16)
def _level_table(r1: float, rho: float, q: float, cover) -> _LevelTable:
    """The one growing level table of a hole family; the 16 last used are kept."""
    return _LevelTable(r1, rho, q, cover)


def _libm_pow(a, p) -> np.ndarray:
    # libm pow over a 1-D array of bases or of exponents, which numpy's
    # vectorized power does not match to the last bit
    size = a.size if isinstance(a, np.ndarray) else p.size
    args = (v.tolist() if isinstance(v, np.ndarray) else repeat(float(v)) for v in (a, p))
    return np.fromiter(map(math.pow, *args), float, size)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array."""
    return a[np.concatenate((a[:1] == a[:1], a[1:] != a[:-1]))]


# Queries per chunk of a self-similar string's distances, whose level rows are built per chunk.
_STRING_CHUNK = 1 << 16


def _row_distances(x, top, step, i_lo, i_hi, floor) -> np.ndarray:
    """Distances from ``x`` to the row points ``top - step * i``, ``i_lo <= i <= i_hi``, and ``[0, floor]``.

    The rows ascend in ``top``.  ``x`` takes the first row with
    ``top >= x``, which must be there with its neighbours.  A row whose step
    underflows to 0 holds only its anchor.
    """
    r = np.minimum(np.searchsorted(top, x), top.size - 1)
    highest, lowest = top - step * i_lo, top - step * i_hi
    below = np.concatenate(([floor], highest[:-1]))[r]
    above = np.concatenate((lowest[1:], [np.inf]))[r]
    a, s, lo, hi = top[r], step[r], i_lo[r], i_hi[r]
    # x clipped to the row's span keeps the quotient at most about i_hi; a step of 0
    # divides as 2^-1074, which any index on that row reads as its anchor
    i = np.minimum(np.maximum(np.floor((a - np.clip(x, below, a)) / np.maximum(s, 2.0**-1074)), lo), hi)
    d = np.abs(x - (a - s * i))
    np.minimum(d, np.abs(x - (a - s * np.minimum(i + 1.0, hi))), out=d)
    np.minimum(d, np.abs(x - above), out=d)
    np.minimum(d, np.abs(x - below), out=d)
    return np.minimum(d, np.maximum(np.maximum(-x, x - floor), 0.0))


# Blocks per refinement chunk, and gasket rows or row-hole pairs per counting piece: each fits in cache.
_GRID_CHUNK = 1 << 14
# Blocks the grid refinement may visit over all its levels, or rows and row-hole pairs
# the gasket's row count may take, before it gives up.
_GRID_BUDGET = 8_000_000
# Share of 1 + t within which a centre's distance lies near a flip of the grid's comparisons
# and takes ``distances``: 2^12 times the reach of their roundings.  The gasket's rows count
# at tau - tol for each flip tau and flag a row whose ends could cross a centre by tau + tol.
_GRID_NEAR_FLIP = 2.0**-40


def _grid_tube(set_: CompactSet, t: float, cell: float):
    """Flat grid count: the volume of the cells whose centre lies within distance t, and the boundary cells'.

    The centres ``origin + (i + 0.5) cell`` cover the bounding box fattened by
    ``t``; a boundary cell has ``|d - t|`` at most half a cell diagonal.  The
    descriptor's ``_grid_counts`` gives the counts of exact distances.
    """
    n_dim = set_.ambient_dim
    lo, hi = set_.bounds()
    origin = lo - t - cell * _GRID_OFFSET
    span = (hi + t - origin) / cell
    if not (span < 2.0**61).all():
        raise ResolutionTooCoarse(f"grid lattice at cell={cell} exceeds 2^61 cells per axis")
    # the lattice size holds one row per axis
    ncell = (np.ceil(span).astype(np.int64) + 1)[:, None]
    margin = cell * math.sqrt(n_dim) / 2.0
    inside_cells, boundary_cells = set_._grid_counts(t, cell, origin, ncell, margin)
    return inside_cells * cell**n_dim, boundary_cells * cell**n_dim


_MC_CHUNK = 1 << 17


def _mc_uniforms(n_dim: int, n_samples: int, seed: int):
    """Uniforms in ``[0, 1)^N`` by chunks of ``_MC_CHUNK``, chunk ``i`` from the Philox stream ``(seed, i)``.

    Each chunk is an ``(N, n)`` array: row ``c`` holds coordinate ``c`` of the
    chunk's ``n`` draws, contiguous.
    """
    for i, start in enumerate(range(0, n_samples, _MC_CHUNK)):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), i))))
        yield np.ascontiguousarray(g.random((min(_MC_CHUNK, n_samples - start), n_dim)).T)


def _mc_scaled(lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The ``(n, N)`` points ``lo + (hi - lo) u`` of an ``(N, n)`` chunk of uniforms, with contiguous columns.

    Each coordinate is scaled along its own row, by the same products and
    sums as over an ``(n, N)`` array, so the points keep those bits.
    """
    x = (hi - lo)[:, None] * u
    x += lo[:, None]
    return x.T


def _mc_points(lo: np.ndarray, hi: np.ndarray, n_samples: int, seed: int):
    """Uniform points in ``[lo, hi]`` by chunks, chunk ``i`` from the Philox stream ``(seed, i)``."""
    for u in _mc_uniforms(len(lo), n_samples, seed):
        yield _mc_scaled(lo, hi, u)


def _mc_tubes(set_: CompactSet, ts: Sequence[float], n_samples: int, seed: int) -> list[tuple[float, float]]:
    """Monte Carlo ``(volume, half_width)`` of ``|A_t|`` for every radius ``t`` in ``ts``.

    Radius ``t`` counts the points of ``_mc_points`` in the bounding box
    fattened by ``t`` that lie within ``t`` of the set.  Each chunk of
    uniforms is drawn once and scaled to every radius's box, so the points,
    and the counts, are those of a call for that radius alone.  The
    distances are asked with ``below=t``: only whether they lie under ``t``
    counts.
    """
    lo, hi = set_.bounds()
    boxes = [(lo - t, hi + t) for t in ts]
    hits = [0] * len(boxes)
    for u in _mc_uniforms(len(lo), n_samples, seed):
        for j, (t, (a, b)) in enumerate(zip(ts, boxes)):
            hits[j] += int(np.count_nonzero(set_.distances(_mc_scaled(a, b, u), below=t) < t))
    out = []
    for (a, b), h in zip(boxes, hits):
        box_vol = float(np.prod(b - a))
        p = h / n_samples
        out.append((box_vol * p, box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)))
    return out


_METHOD_ALIASES = {
    "auto": None,
    "exact": "exact",
    "exact_1d": "exact",
    "exact_closed": "exact",
    "grid": TubeMethod.GRID_COUNT,
    "grid_count": TubeMethod.GRID_COUNT,
    "monte_carlo": TubeMethod.MONTE_CARLO,
    "mc": TubeMethod.MONTE_CARLO,
}


def tube_volume(
    set_: CompactSet,
    t: float,
    method: Optional[str] = None,
    *,
    cell: Optional[float] = None,
    mc_samples: int = 200_000,
    seed: int = 0,
) -> TubeSample:
    """Measure the tube volume ``|A_t|``.

    ``method`` is one of ``"auto"`` (default), ``"exact"``, ``"grid"`` or
    ``"monte_carlo"``; ``"auto"`` is exact up to the set's ``exact_max``, past
    it the grid up to R^3 and Monte Carlo above.  Exact methods report
    ``error_bound = 0``; the grid reports the conservative boundary-cell
    bound; Monte Carlo reports a one-standard-error confidence half-width.

    This is the one-radius case of the dispatcher that :func:`sample_tube_curve`
    and :func:`tube_volumes` share, so a radius measures the same in all three.

    Raises :class:`ResolutionTooCoarse` when the grid refinement visits
    over ``_GRID_BUDGET`` (8,000,000) blocks or the grid is asked for
    above R^3, :class:`FractalZetaError` for an exact volume past the set's
    ``exact_max`` (point-set balls that overlap in R^N, N > 1, and every
    radius of a point cloud there), and :class:`ValueError` for an unknown
    method, a ``t`` or ``cell`` that is not a positive and finite real (a
    ``bool`` included), for a ``t`` at
    which the set's bounding box fattened by ``t`` has a volume past the
    float range, and, for Monte Carlo, for an ``mc_samples`` that is not an
    integer ``>= 1`` (a ``bool`` included).
    """
    return _measure(set_, [t], method, cell, mc_samples, seed)[0]


def _check_fattened_box(set_: CompactSet, t: float) -> None:
    lo, hi = set_.bounds()
    # Python floats overflow to inf where numpy would warn
    if not math.isfinite(math.prod(h - l + 2.0 * t for l, h in zip(lo.tolist(), hi.tolist()))):
        raise ValueError(f"radius {t!r} is too large: the bounding box fattened by it has no float volume")


def _measure(set_: CompactSet, ts, method, cell, mc_samples, seed) -> list[TubeSample]:
    """:func:`tube_volume` at every radius of ``ts``, every input checked before any is measured.

    The method is resolved through ``_METHOD_ALIASES``, then every radius
    and the fattened box are checked, then ``cell`` (if a radius is grid
    counted) and ``mc_samples`` (if one is sampled).  The exact radii take
    one ``exact_volumes`` call and the Monte Carlo radii one
    :func:`_mc_tubes` run; the grid counts one radius at a time.
    """
    req = _METHOD_ALIASES.get(method or "auto", "unknown")
    if req == "unknown":
        raise ValueError(f"unknown tube-volume method {method!r}")
    if not all(_is_real(t) and math.isfinite(t) and t > 0 for t in ts):
        raise ValueError("t must be a positive and finite real number")
    if ts:
        _check_fattened_box(set_, max(ts))
    far = TubeMethod.GRID_COUNT if set_.ambient_dim <= 3 else TubeMethod.MONTE_CARLO
    chosen = [req or ("exact" if t <= set_.exact_max else far) for t in ts]
    if TubeMethod.GRID_COUNT in chosen:
        if cell is not None and not (_is_real(cell) and math.isfinite(cell) and cell > 0):
            raise ValueError("cell must be a positive and finite real number")
        if set_.ambient_dim > 3:
            raise ResolutionTooCoarse("grid counting is limited to ambient dimension <= 3")
    mc = [t for t, c in zip(ts, chosen) if c == TubeMethod.MONTE_CARLO]
    if mc and not (_is_integer(mc_samples) and mc_samples >= 1):
        raise ValueError("mc_samples must be an integer >= 1")
    exact = [t for t, c in zip(ts, chosen) if c == "exact"]
    volumes = iter(set_.exact_volumes(np.array(exact)).tolist() if exact else ())
    sampled = iter(_mc_tubes(set_, mc, mc_samples, seed) if mc else ())
    kind = TubeMethod.EXACT_1D if set_.ambient_dim == 1 else TubeMethod.EXACT_CLOSED
    out = []
    for t, c in zip(ts, chosen):
        if c == "exact":
            out.append(TubeSample(t, next(volumes), kind))
            continue
        grid = c == TubeMethod.GRID_COUNT
        volume, error = _grid_tube(set_, t, t / 64.0 if cell is None else cell) if grid else next(sampled)
        out.append(TubeSample(t, volume, c, error))
    return out


def tube_volumes(set_: CompactSet, ts) -> np.ndarray:
    """``tube_volume(set_, t).volume`` for every ``t`` in an array, bit for bit.

    Radii all up to the set's ``exact_max`` take one ``exact_volumes`` call
    (the self-similar sets by one gather from their level tables); any
    other array goes through the dispatcher of :func:`tube_volume`.
    Raises :class:`ValueError` for an array that is not of integers or
    floats, an element of other input that is not a real number (``bool``
    included in both), a non-finite or non-positive radius and, as
    ``tube_volume`` does, for one too large for a float volume.
    """
    if not (isinstance(ts, np.ndarray) or all(map(_is_real, np.asarray(ts, dtype=object).ravel()))):
        raise ValueError("t values must be real numbers")
    ts = np.asarray(ts)
    if ts.dtype.kind not in "iuf":
        raise ValueError(f"t values must be an array of real numbers, not of {ts.dtype}")
    ts = ts.astype(float, copy=False)
    if not (np.isfinite(ts).all() and (ts > 0).all()):
        raise ValueError("t values must be positive and finite")
    flat = ts.ravel()
    top = float(flat.max(initial=0.0))
    if flat.size:
        _check_fattened_box(set_, top)
    if top <= set_.exact_max:
        return set_.exact_volumes(flat).reshape(ts.shape)
    return np.array([s.volume for s in _measure(set_, flat.tolist(), None, None, 200_000, 0)]).reshape(ts.shape)


def sample_tube_curve(
    set_: CompactSet, t_values: Sequence[float], method=None, *, cell=None, mc_samples=200_000, seed=0
) -> list[TubeSample]:
    """:func:`tube_volume` at an ascending grid of radii, with a monotonicity check.

    The radii share the dispatcher of :func:`tube_volume`, so every input
    is checked before anything is measured and each sample is bit for bit
    that of its own ``tube_volume`` call.
    """
    ts = list(t_values)
    if not all(_is_real(t) for t in ts):
        raise ValueError("t values must be real numbers")
    ts = [float(t) for t in ts]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("t values must be sorted ascending")
    samples = _measure(set_, ts, method, cell, mc_samples, seed)
    for a, b in zip(samples, samples[1:]):
        slack = 3.0 * (a.error_bound + b.error_bound) + 1e-12 * max(1.0, a.volume)
        if a.volume > b.volume + slack:
            raise FractalZetaError(
                f"tube volume not monotone: |A_{a.t}| = {a.volume} > |A_{b.t}| = {b.volume}"
            )
    return samples


# ---------------------------------------------------------------------------
# JSON descriptor schema
# ---------------------------------------------------------------------------


def set_to_json(set_: CompactSet) -> dict:
    """Serialize a descriptor to the tagged-variant JSON schema."""
    return set_.to_json()


def set_from_json(data: dict) -> CompactSet:
    """Parse the tagged-variant JSON schema back into a descriptor."""
    if not isinstance(data, dict):
        raise ValueError(f"a set descriptor is a JSON object, got {type(data).__name__}")
    variant = data.get("variant")
    if not (isinstance(variant, str) and variant in _VARIANTS):
        raise ValueError(f"unknown set variant {variant!r}")
    return _VARIANTS[variant].from_json(data)
