"""Distance and tube zeta functions: numeric evaluators and closed forms.

The distance zeta function of a compact set ``A`` in R^N is
``zeta_A(s; delta) = integral over A_delta of d(x, A)^(s-N) dx`` and the
tube zeta function is ``ztilde_A(s; delta) = integral_0^delta t^(s-N-1)
|A_t| dt``; both are holomorphic for ``Re s`` above the upper box dimension
and satisfy the functional equation

    zeta_A(s; delta) = delta^(s-N) |A_delta| + (N - s) ztilde_A(s; delta).

Catalog sets carry structured meromorphic closed forms built from two term
shapes:

* lattice terms ``a * beta^(-s) / (prod_rho (s - rho) * (m^s - r))`` whose
  lattice factor generates the arithmetic progression of complex
  dimensions ``log_m r + (2 pi k / ln m) i``;
* elementary terms ``c * delta^(s-j) / (s - p)``.

Each descriptor lists its own terms (``zeta_terms``); :func:`catalog_zeta`
builds any set's closed form from them.  All complex powers use the
principal branch on positive real bases.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import geometry
from .errors import (
    DeltaTooSmall,
    FractalZetaError,
    NearPole,
    NoClosedForm,
    NotAPole,
    QuadratureNonconvergent,
    VarianceOverflow,
)
from .geometry import CompactSet, _is_count, _is_integer, _is_real, distances_to_set, tube_volumes

TWO_PI = 2.0 * math.pi

# Most lattice poles per family and sign that a pole listing may enumerate.
_MAX_LATTICE_K = 10**6


def _finite_real(value) -> bool:
    """A finite real number that is not a ``bool``."""
    return _is_real(value) and math.isfinite(value)


# ---------------------------------------------------------------------------
# Closed-form representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeTerm:
    """``amplitude * base_scale^(-s) / (prod (s - rho) * (m^s - r))``.

    ``lattice=None`` drops the ``(m^s - r)`` factor, which is how finite
    fractal strings (entire geometric zeta functions) are represented.
    Raises :class:`ValueError` for a field that is not a finite real number
    (a ``bool`` is not), ``roots`` that are not a tuple of distinct ones, a
    ``lattice`` that is not a pair with ``m > 1`` and ``r > 0``, and a
    ``base_scale`` that is not positive.
    """

    amplitude: float
    base_scale: float
    roots: tuple[float, ...]
    lattice: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if not _finite_real(self.amplitude):
            raise ValueError(f"amplitude must be a finite real number, got {self.amplitude!r}")
        if not (_finite_real(self.base_scale) and self.base_scale > 0):
            raise ValueError("base_scale must be positive and finite")
        if not (isinstance(self.roots, tuple) and all(map(_finite_real, self.roots))):
            raise ValueError(f"roots must be a tuple of finite real numbers, got {self.roots!r}")
        if len(set(self.roots)) != len(self.roots):
            raise ValueError("denominator roots must be distinct")
        if self.lattice is not None:
            if not (isinstance(self.lattice, tuple) and len(self.lattice) == 2):
                raise ValueError(f"lattice must be None or a pair (m, r), got {self.lattice!r}")
            m, r = self.lattice
            if not (_finite_real(m) and _finite_real(r) and m > 1.0 and r > 0.0):
                raise ValueError("lattice needs finite m > 1 and r > 0")
            for rho in self.roots:
                if abs(m**rho - r) < 1e-12:
                    raise ValueError(
                        f"denominator root {rho} coincides with a lattice pole; "
                        "only simple poles are supported"
                    )

    @property
    def period(self) -> float:
        return TWO_PI / math.log(self.lattice[0])

    def lattice_pole(self, k: int) -> complex:
        m, r = self.lattice
        return math.log(r) / math.log(m) + 1j * self.period * k


def _lattice_ks(k_lo: float, k_hi: float) -> range:
    """Integers in ``[k_lo, k_hi]`` widened by 1e-12; ValueError if not finite or over 2*10^6 wide."""
    if not k_hi - k_lo <= 2 * _MAX_LATTICE_K:
        raise ValueError(f"more than {_MAX_LATTICE_K} lattice poles per family and sign requested")
    return range(math.ceil(k_lo - 1e-12), math.floor(k_hi + 1e-12) + 1)


@dataclass(frozen=True)
class ElementaryTerm:
    """``coefficient * delta^(s - shift) / (s - pole)``.

    Raises :class:`ValueError` unless ``coefficient`` and ``pole`` are finite
    real numbers and ``shift`` is an integer (a ``bool`` is neither).
    """

    coefficient: float
    shift: int
    pole: float

    def __post_init__(self):
        if not (_finite_real(self.coefficient) and _is_integer(self.shift) and _finite_real(self.pole)):
            raise ValueError(
                "an elementary term needs a finite real coefficient and pole and an integer shift, "
                f"got {self.coefficient!r}, {self.shift!r}, {self.pole!r}"
            )


@dataclass(frozen=True)
class ClosedFormZeta:
    """Structured meromorphic representation of a distance zeta function.

    Raises :class:`ValueError` for an ``ambient_dim`` that is not an integer
    ``>= 1``, a ``delta`` that is not a positive finite real number, and
    terms that are not tuples of :class:`LatticeTerm` and
    :class:`ElementaryTerm`.
    """

    ambient_dim: int
    delta: float
    lattice_terms: tuple[LatticeTerm, ...] = ()
    elementary_terms: tuple[ElementaryTerm, ...] = ()

    def __post_init__(self):
        if not (_is_integer(self.ambient_dim) and self.ambient_dim >= 1):
            raise ValueError(f"ambient_dim must be an integer >= 1, got {self.ambient_dim!r}")
        if not (_finite_real(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        for terms, kind in ((self.lattice_terms, LatticeTerm), (self.elementary_terms, ElementaryTerm)):
            if not (isinstance(terms, tuple) and all(isinstance(t, kind) for t in terms)):
                raise ValueError(f"terms must be a tuple of {kind.__name__}, got {terms!r}")

    # -- evaluation ---------------------------------------------------------

    def _evaluate_raw(self, s: np.ndarray) -> np.ndarray:
        total = np.zeros(s.shape, dtype=complex)
        for term in self.lattice_terms:
            val = term.amplitude * np.exp(-s * math.log(term.base_scale))
            den = np.ones(s.shape, dtype=complex)
            for rho in term.roots:
                den = den * (s - rho)
            if term.lattice is not None:
                m, r = term.lattice
                den = den * (np.exp(s * math.log(m)) - r)
            total = total + val / den
        ln_delta = math.log(self.delta)
        for term in self.elementary_terms:
            total = total + term.coefficient * np.exp((s - term.shift) * ln_delta) / (s - term.pole)
        return total

    def evaluate(self, s):
        """Evaluate at a complex scalar or ndarray of points.

        Removable candidates (pole locations whose term residues cancel,
        e.g. the gasket form at ``s = 1``) are filled in by their limit;
        genuine poles evaluate to complex infinity.  Raises
        :class:`ValueError` for a non-finite point.
        """
        s = _finite_points(s)
        scalar = not s.shape
        s = np.atleast_1d(s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            total = self._evaluate_raw(s)
        for i in np.flatnonzero(~np.isfinite(total)):
            si = complex(s[i])
            try:
                removable = self._genuine_residue(si) is None
            except NotAPole:
                removable = False
            if not removable:
                total[i] = complex(np.inf, np.inf)
                continue
            # removable point: second-order symmetric limit
            h = 1e-7 * (1.0 + abs(si))
            probes = si + np.array([h, -h, 1j * h, -1j * h])
            with np.errstate(divide="ignore", invalid="ignore"):
                total[i] = complex(np.mean(self._evaluate_raw(probes)))
        if scalar:
            return complex(total[0])
        return total

    __call__ = evaluate

    # -- pole structure -----------------------------------------------------

    def _genuine_poles(self, lattice_ks, keep=None) -> list:
        """(location, residue) of the genuine poles among the candidates that ``keep`` accepts.

        The candidates are every real one and, per lattice term, the lattice
        poles of the indices ``lattice_ks(term)``; those within 1e-12 of the
        one before them, in order of real then imaginary part, are dropped.
        """
        uniq: list[complex] = []
        for w in sorted(self._candidates(lattice_ks), key=lambda z: (z.real, z.imag)):
            if not uniq or abs(w - uniq[-1]) > 1e-12:
                uniq.append(w)
        pairs = [(w, self._genuine_residue(w)) for w in uniq if keep is None or keep(w)]
        return [(w, res) for w, res in pairs if res is not None]

    def _candidates(self, lattice_ks) -> list[complex]:
        """Every denominator root and elementary pole, and each lattice term's poles of indices ``lattice_ks(term)``."""
        locs: list[complex] = []
        for term in self.lattice_terms:
            locs.extend(complex(rho) for rho in term.roots)
            if term.lattice is not None:
                locs.extend(term.lattice_pole(k) for k in lattice_ks(term))
        locs.extend(complex(term.pole) for term in self.elementary_terms)
        return locs

    def _term_residues(self, omega: complex) -> list:
        """Residues of the terms with a pole candidate within 1e-9 of ``omega``; :class:`NotAPole` if none."""
        omega = complex(omega)
        parts = []
        for term in self.lattice_terms:
            m_r = term.lattice
            for rho in term.roots:
                if abs(omega - rho) <= 1e-9:
                    qprime = 1.0
                    for other in term.roots:
                        if other != rho:
                            qprime *= rho - other
                    den = qprime
                    if m_r is not None:
                        m, r = m_r
                        den *= m**rho - r
                    parts.append(term.amplitude * term.base_scale ** (-rho) / den)
            if m_r is not None:
                m, r = m_r
                k = round(omega.imag / term.period)
                wk = term.lattice_pole(k)
                if abs(omega - wk) <= 1e-9:
                    q = 1.0 + 0.0j
                    for rho in term.roots:
                        q *= wk - rho
                    parts.append(
                        term.amplitude
                        * np.exp(-wk * math.log(term.base_scale))
                        / (q * math.log(m) * r)
                    )
        for term in self.elementary_terms:
            if abs(omega - term.pole) <= 1e-9:
                parts.append(term.coefficient * self.delta ** (term.pole - term.shift))
        if not parts:
            raise NotAPole(f"{omega} is not a pole candidate of this closed form")
        return parts

    def residue_at(self, omega: complex) -> complex:
        """Residue at a candidate pole, the sum of the term residues there.

        Raises :class:`NotAPole` if ``omega`` is not within 1e-9 of any
        structural pole candidate and :class:`ValueError` if it is not
        finite.  A zero return value means the candidate cancels between
        terms and is a removable point.
        """
        return complex(sum(self._term_residues(_finite_s(omega)), 0.0 + 0.0j))

    def _genuine_residue(self, omega: complex) -> Optional[complex]:
        """Residue at a pole candidate, or None at a removable point.

        A point is removable when its term residues cancel to at most 1e-11
        of their magnitudes' sum, a rule that scaling the set leaves alone.
        Raises :class:`NotAPole` as :meth:`residue_at`.
        """
        parts = self._term_residues(omega)
        res = complex(sum(parts, 0.0 + 0.0j))
        return res if abs(res) > 1e-11 * sum(map(abs, parts)) else None

    def poles(self, imag_band: float) -> list[tuple[complex, complex]]:
        """(location, residue) of the genuine poles with ``|Im| <= imag_band``.

        Removable points (candidates whose term residues cancel) are left
        out.  Raises :class:`ValueError` for a band that is not a finite
        real number ``>= 0`` and for one holding more than ``10^6`` lattice
        poles per family and sign.
        """
        if not (_finite_real(imag_band) and imag_band >= 0):
            raise ValueError(f"imag_band must be a finite real number >= 0, got {imag_band!r}")
        return self._genuine_poles(
            lambda term: _lattice_ks(-imag_band / term.period, imag_band / term.period),
            lambda w: abs(w.imag) <= imag_band + 1e-12,
        )

    def poles_near(self, ordinates: Sequence[float], reach: float) -> list[tuple[complex, complex]]:
        """The pairs of :meth:`poles` whose imaginary part is within ``reach`` of one of ``ordinates``.

        Only the lattice indices near each ordinate are listed, so the cost
        does not grow with the ordinates' size; no ordinates list no poles.
        Raises :class:`ValueError` for ordinates that are not a sequence, an
        ordinate or a ``reach`` that is not a finite real number, a negative
        ``reach``, and where
        ``poles(max |ordinate| + reach)`` does.
        """
        try:
            ordinates = list(ordinates)
        except TypeError:
            raise ValueError(f"ordinates must be a sequence of finite reals, got {ordinates!r}") from None
        if not (all(map(_finite_real, ordinates)) and _finite_real(reach) and reach >= 0):
            raise ValueError(f"ordinates and reach must be finite reals, reach >= 0: {ordinates!r}, {reach!r}")
        if not ordinates:
            return []
        top = max(abs(h) for h in ordinates) + reach

        def window(term: LatticeTerm) -> set[int]:
            p = term.period
            _lattice_ks(-top / p, top / p)  # the limit of poles(top)
            # 1e-9 past the reach keeps the candidates that a kept pole is compared with
            return {k for h in ordinates for k in _lattice_ks((h - reach - 1e-9) / p, (h + reach + 1e-9) / p)}

        return self._genuine_poles(window, lambda w: any(abs(w.imag - h) <= reach + 1e-12 for h in ordinates))

    def poles_for_truncation(self, k_band: int) -> list[tuple[complex, complex]]:
        """(location, residue) of every genuine real pole and of the lattice poles with ``|k| <= k_band``.

        Removable points are left out, as in :meth:`poles`; raises
        :class:`ValueError` for a ``k_band`` that is not an integer ``>= 0``
        (a ``bool`` is not) or is over ``10^6``.
        """
        if not _is_count(k_band):
            raise ValueError(f"truncation must be an integer >= 0, got {k_band!r}")
        return self._genuine_poles(lambda term: _lattice_ks(-k_band, k_band))

    def nearest_pole_distance(self, s: complex) -> float:
        """Distance to the nearest genuine pole (removable candidates excluded); ValueError for non-finite ``s``."""
        s = _finite_s(s)
        return min((abs(s - w) for w, _ in self._genuine_poles(_indices_near(s))), default=math.inf)

    def lattice_periods(self) -> list[float]:
        return [t.period for t in self.lattice_terms if t.lattice is not None]


def _indices_near(s: complex):
    """Per lattice term, the indices ``k - 1`` to ``k + 1`` about the lattice pole nearest ``s``."""

    def window(term: LatticeTerm) -> range:
        k = round(s.imag / term.period)
        return range(k - 1, k + 2)

    return window


def closed_form_eval(zeta: ClosedFormZeta, s: complex) -> complex:
    """Evaluate a closed form away from its poles.

    Raises :class:`NearPole` when ``s`` is within 1e-12 of a pole, where
    residue machinery must be used instead, :class:`FractalZetaError` when
    the value overflows a float, and :class:`ValueError` for non-finite
    ``s``.
    """
    s = _finite_s(s)
    # the genuine poles are among the candidates, whose residues are only needed near one
    near = any(abs(s - w) < 1e-12 for w in zeta._candidates(_indices_near(s)))
    if near and zeta.nearest_pole_distance(s) < 1e-12:
        raise NearPole(f"s={s} is within 1e-12 of a pole")
    value = complex(zeta.evaluate(s))
    if not cmath.isfinite(value):
        raise FractalZetaError(f"the closed form overflows a float at s={s}")
    return value


# ---------------------------------------------------------------------------
# Catalog closed forms
# ---------------------------------------------------------------------------


def default_delta(set_: CompactSet) -> float:
    """Default integration cutoff per catalog set (all above the closed-form bounds)."""
    return set_.default_delta


def catalog_zeta(set_: CompactSet, delta: Optional[float] = None) -> ClosedFormZeta:
    """Closed-form distance zeta function of a set, from its descriptor's ``zeta_terms``.

    ``delta`` defaults to the set's ``default_delta``.  Raises
    :class:`ValueError` for a ``delta`` that is not a positive finite real
    number (a ``bool`` is not),
    :class:`NoClosedForm` for a set without a closed form (point clouds)
    and :class:`DeltaTooSmall` when ``delta`` violates the validity bound of
    the closed form (the descriptor's ``delta_bound``).
    """
    if delta is None:
        delta = set_.default_delta
    if not (_finite_real(delta) and delta > 0):
        raise ValueError("delta must be positive and finite")
    lattice, elementary = set_.zeta_terms(delta)
    lat = tuple(LatticeTerm(*term) for term in lattice)
    return ClosedFormZeta(set_.ambient_dim, delta, lat, tuple(ElementaryTerm(*term) for term in elementary))


# ---------------------------------------------------------------------------
# Numeric evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericZetaConfig:
    """Budgets and seed for the numeric zeta evaluators."""

    delta: float
    seed: int
    mc_samples: int = 1_000_000

    def __post_init__(self):
        if not (_finite_real(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not _is_count(self.seed):
            raise ValueError("seed must be a nonnegative integer")
        if not _is_integer(self.mc_samples):
            raise ValueError("mc_samples must be an integer")
        if self.mc_samples < 1000:
            raise ValueError("mc_samples must be at least 1000 for any reported value")


def _finite_s(s) -> complex:
    try:
        s = complex(s)
    except (TypeError, OverflowError):
        raise ValueError(f"s must be a number with a complex value, got {s!r}") from None
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"s must be finite, got {s}")
    return s


def _finite_points(s) -> np.ndarray:
    """``s`` as a complex array; ValueError if an entry is not finite or has no complex value."""
    try:
        s = np.asarray(s, dtype=complex)
    except OverflowError:
        raise ValueError(f"s must have a complex value, got {s!r}") from None
    if not np.isfinite(s).all():
        raise ValueError(f"s must be finite, got {complex(s[~np.isfinite(s)][0])}")
    return s


class ZetaEstimate(NamedTuple):
    value: complex
    half_width: float


def distance_zeta_numeric(set_: CompactSet, s: complex, cfg: NumericZetaConfig) -> ZetaEstimate:
    """Monte Carlo estimate of the distance zeta function.

    Samples uniformly in a bounding box of ``A_delta`` and averages
    ``1[d < delta] * d^(s - N)``; samples with ``d = 0`` (within one ulp of
    the set) are discarded, which drops a weight below ``ulp^(Re s - N)``
    when ``Re s > N``.
    Raises :class:`VarianceOverflow` before sampling when ``Re s`` is at or
    below the set's box dimension, where the integral diverges, and when a
    single sample dominates the weight sum; :class:`FractalZetaError`
    when the estimate overflows a float; :class:`ValueError` for non-finite
    ``s`` and for a ``delta`` at which the fattened bounding box has a volume
    past the float range.
    """
    s = _finite_s(s)
    if s.real <= set_.box_dimension:
        raise VarianceOverflow(
            f"Re s = {s.real} is at or below the box dimension {set_.box_dimension}; "
            "the distance zeta integral diverges"
        )
    n_dim = set_.ambient_dim
    delta = cfg.delta
    geometry._check_fattened_box(set_, delta)
    lo, hi = set_.bounds()
    lo = lo - delta
    hi = hi + delta
    box_vol = float(np.prod(hi - lo))
    total = 0.0 + 0.0j
    total_sq_re = 0.0
    total_sq_im = 0.0
    abs_sum = 0.0
    abs_max = 0.0
    n_done = 0
    for x in geometry._mc_points(lo, hi, cfg.mc_samples, cfg.seed):
        m = len(x)
        d = distances_to_set(x, set_)
        w = np.zeros(m, dtype=complex)
        ok = (d > 1e-280) & (d < delta)
        # weights past the float range turn to inf or nan, caught after the loop
        with np.errstate(over="ignore", invalid="ignore"):
            w[ok] = np.exp((s - n_dim) * np.log(d[ok]))
            total += w.sum()
            total_sq_re += float((w.real**2).sum())
            total_sq_im += float((w.imag**2).sum())
            aw = np.abs(w)
        abs_sum += float(aw.sum())
        abs_max = max(abs_max, float(aw.max(initial=0.0)))
        n_done += m
        if n_done >= 10_000 and abs_sum > 0 and abs_max / abs_sum > 0.2:
            raise VarianceOverflow(
                "a single sample dominates the Monte Carlo weight sum; "
                "Re s is at or below the abscissa of convergence"
            )
    n = float(cfg.mc_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = total / n
        var_re = max(total_sq_re / n - mean.real**2, 0.0)
        var_im = max(total_sq_im / n - mean.imag**2, 0.0)
        half_width = box_vol * math.sqrt((var_re + var_im) / n)
        value = box_vol * mean
    if not (cmath.isfinite(value) and math.isfinite(half_width)):
        raise FractalZetaError(f"the Monte Carlo estimate overflows a float at s={s}")
    return ZetaEstimate(value, half_width)


# Panels per node array past a pass's opening: the first block, then doubling up to the cap.
_FIRST_BLOCK = 8
_MAX_BLOCK = 512
# The least decay rate Re s - D that the first pass's opening assumes.
_MIN_DECAY = 1e-3
# Gauss-Legendre nodes per panel.
_PANEL_NODES = 16
# Relative agreement of two passes that ends the refinement, and the most halvings of the panel width.
_RTOL = 1e-6
_MAX_REFINEMENTS = 9
# One breakpoint per stretch of u = ln t this long gets a panel edge: that keeps every
# hole family with a closed form (spaced ln 2 or more) and bounds the panels where they crowd.
_BREAK_GAP = 0.5
# Radii below which the quadrature takes no panel edge, and the u = ln t of that floor.
_T_FLOOR = 1e-280
_U_FLOOR = math.log(_T_FLOOR)
# Hole families whose fill radii shrink by less than this in u per level may tie or invert
# consecutive radii under rounding; their breakpoints are listed in full.
_MIN_LEVEL_STEP = 1e-12


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``; shared, not to be written to."""
    return np.polynomial.legendre.leggauss(_PANEL_NODES)


# Largest real part at which the C library's cexp returns exp(u) * cos(0): above
# it glibc scales by exp(709), which changes the last bit.
_CEXP_EXACT_MAX = 709.0


def _libm_exp(u: np.ndarray) -> np.ndarray:
    """libm ``exp`` of every entry, which numpy's real exp does not match to the last bit.

    numpy's complex exp calls the C library's ``cexp``, which on a zero
    imaginary part is libm's ``exp`` up to ``_CEXP_EXACT_MAX``; the entries
    above it take ``math.exp`` one by one.
    """
    t = np.exp(u + 0j).real
    high = u > _CEXP_EXACT_MAX
    if high.any():
        t[high] = [math.exp(v) for v in u[high].tolist()]
    return t


def _break_logs(set_: CompactSet, delta: float) -> np.ndarray:
    """``ln`` of the breakpoints in ``(1e-280, delta)``, descending, or of a subset holding each stretch's first.

    A hole family whose fill radii ``r1 rho^i`` fall by ``_MIN_LEVEL_STEP`` or
    more in ``u`` per level takes the subset: its radii strictly descend, so
    the first below ``delta`` and the first at least ``j`` stretches of
    ``_BREAK_GAP`` below that one lie at the level indices that logarithms
    give, to well within a level.  Four levels about each, from the table's
    own libm radii, must bracket it: the subset then holds each stretch's
    first breakpoint with the one before it, and the selection in
    :func:`_break_tops` keeps the same ones as from the full listing.  Every
    other set, and a bracket that fails, lists every breakpoint.
    """
    holes = set_._holes
    if holes is not None and -math.log(holes[2]) >= _MIN_LEVEL_STEP:
        _, r1, rho, q, cover = holes
        table, step = geometry._level_table(r1, rho, q, cover), -math.log(rho)
        # the levels i - 2 to i + 1 about each estimate i
        around = np.arange(-2, 2)
        levels = np.maximum(math.ceil((math.log(r1) - math.log(delta)) / step) + around, 0)
        below = table.fill_at(levels) < delta
        if below[-1] and (levels[0] == 0 or not below[0]):
            first = levels[np.argmax(below)]
            r0 = table.fill_at(np.array([first]))
            u0 = float(np.log(r0)[0])
            # the first level at least j stretches below the first, for each j down past the floor
            j = np.arange(1, int(2.0 * max(u0 - _U_FLOOR, 0.0)) + 2)[:, None]
            levels = np.maximum(np.ceil((math.log(r1) - u0 + _BREAK_GAP * j) / step).astype(np.int64) + around, first)
            radii = table.fill_at(levels.ravel())
            with np.errstate(divide="ignore"):
                u = np.log(radii).reshape(levels.shape)
            stretch = np.floor((u0 - u) / _BREAK_GAP)
            if (stretch[:, 0] < j[:, 0]).all() and (stretch[:, -1] >= j[:, 0]).all():
                _, at = np.unique(np.append(first, levels), return_index=True)
                u, radii = np.append(u0, u)[at], np.append(r0, radii)[at]
                return u[radii > _T_FLOOR]
    breaks = set_.volume_breaks(_T_FLOOR)
    return np.log(breaks[breaks < delta])


@lru_cache(maxsize=16)
def _break_tops(set_: CompactSet, delta: float) -> np.ndarray:
    """The tops of the quadrature's breakpoint intervals, in ``u = ln t``; kept for the 16 last ``(set_, delta)``.

    ``ln delta``, then, for a set with exact volumes up to ``delta``, ``ln``
    of the first breakpoint in each stretch of ``_BREAK_GAP`` down from the
    first one below ``delta`` (from :func:`_break_logs`).
    """
    u_hi = math.log(delta)
    u_breaks = np.empty(0)
    if set_.exact_max >= delta:
        u_breaks = _break_logs(set_, delta)
        stretch = np.floor((u_breaks[:1] - u_breaks) / _BREAK_GAP)
        u_breaks = u_breaks[(np.diff(stretch, prepend=-1.0) > 0) & (u_breaks < u_hi)]
    tops = np.concatenate(([u_hi], u_breaks))
    tops.flags.writeable = False
    return tops


def _node_volumes(set_: CompactSet, delta: float):
    """``tube_volumes(set_, ts)`` for arrays of radii up to ``delta``, bit for bit.

    Where ``exact_max >= delta`` the fattened box is checked once, at
    ``delta``, and each array takes one ``exact_volumes`` call; otherwise
    each goes through :func:`tube_volumes`.
    """
    if set_.exact_max < delta:
        return lambda ts: tube_volumes(set_, ts)
    geometry._check_fattened_box(set_, delta)
    return lambda ts: set_.exact_volumes(ts.ravel()).reshape(ts.shape)


def _panel_contributions(runs: list, s: complex, n_dim: int, volumes) -> list[np.ndarray]:
    """Per run of panel edges, each panel's Gauss-Legendre integral of ``t^(s-N) |A_t|`` in ``u``; one node array.

    Where ``exp((s - N) u)`` overflows the product is ``exp((s - N) u + ln
    |A_t|)``; where that passes the float range or ``|A_t|`` underflowed to 0
    it is unknown (NaN).
    """
    x, w = _panel_rule()
    upper, lower = np.concatenate([e[:-1] for e in runs]), np.concatenate([e[1:] for e in runs])
    uh = 0.5 * (upper - lower)
    u = (0.5 * (upper + lower))[:, None] + uh[:, None] * x
    vol = volumes(_libm_exp(u))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.exp((s - n_dim) * u)
        vals *= vol
        bad = ~np.isfinite(vals)
        if bad.any():
            # NaN keeps this panel and every later one loud, so the pass ends at the floor
            joined = np.exp((s - n_dim) * u[bad] + np.log(vol[bad]))
            vals[bad] = np.where((vol[bad] > 0.0) & np.isfinite(joined), joined, np.nan)
        # sums past the float range (Re s at or below the abscissa) are loud, not warnings
        vals *= w
        contrib = uh * vals.sum(axis=1)
    ends = np.cumsum([0] + [e.size - 1 for e in runs]).tolist()
    return [contrib[a:b] for a, b in zip(ends, ends[1:])]


class _QuadraturePass:
    """One pass of the tube-zeta quadrature: its panels down from ``delta`` and its stop scan.

    Interval ``i`` below ``tops[i]`` holds the panels ``firsts[i]`` to
    ``firsts[i + 1] - 1``, each ``steps[i]`` wide; past the last top they
    are ``width = steps[-1]`` wide, ``ceil(1200 / width)`` of them at most.
    ``lay`` gives the next panels' edges; ``scan`` carries the running sum
    and the run of quiet panels through the panels laid, in order.
    """

    def __init__(self, tops: np.ndarray, firsts: np.ndarray, steps: np.ndarray) -> None:
        self.tops, self.firsts, self.steps, self.width = tops, firsts, steps, float(steps[-1])
        self.left = int(firsts[-1]) + int(math.ceil(1200.0 / self.width))
        self.laid, self.u_top = 0, float(tops[0])
        self.used, self.acc, self.quiet = 0, 0.0 + 0.0j, 0

    @classmethod
    def first(cls, tops: np.ndarray) -> "_QuadraturePass":
        """The first pass: ``ceil(L / 2)`` panels in an interval of length ``L``, 2 wide past the last top."""
        gaps = tops[:-1] - tops[1:]
        counts = np.ceil(0.5 * gaps)
        return cls(tops, np.cumsum(np.append(0.0, counts)), np.append(gaps / counts, 2.0))

    def halved(self) -> "_QuadraturePass":
        """The next pass, each panel of this one split in two; halving a width is exact."""
        return _QuadraturePass(self.tops, 2.0 * self.firsts, 0.5 * self.steps)

    def panels_to(self, depth: float) -> int:
        """The panels from the top through the one that holds ``u = ln delta - depth``, or the floor if higher."""
        u = max(self.tops[0] - depth, _U_FLOOR)
        i = int((-self.tops).searchsorted(-u, side="right")) - 1
        return int(self.firsts[i] + (self.tops[i] - u) // self.steps[i]) + 1

    def lay(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Edges and widths of the next ``size`` panels, at most those left, down to the first crossing the floor."""
        size = min(size, self.left)
        n_head = int(self.firsts[-1])
        edges = np.full(size + 1, self.width)
        widths = np.full(size, self.width)
        head = min(size, max(n_head - self.laid, 0))
        edges[0] = self.u_top
        if head:
            # edges inside the breakpoint intervals step from their tops, each breakpoint exact
            p = np.arange(self.laid, self.laid + head + 1)
            i = self.firsts.searchsorted(p, side="right") - 1
            edges[: head + 1] = self.tops[i] - (p - self.firsts[i]) * self.steps[i]
            widths[:head] = self.steps[i[:-1]]
        # uniform edges step down one subtraction at a time, as panel by panel
        np.subtract.accumulate(edges[head:], out=edges[head:])
        if edges[-1] < _U_FLOOR:
            edges = edges[: int((edges < _U_FLOOR).argmax()) + 1]
        self.laid += edges.size - 1
        self.left -= edges.size - 1
        self.u_top = float(edges[-1])
        return edges, widths[: edges.size - 1]

    def scan(self, contrib: np.ndarray, widths: np.ndarray, tail_tol: float) -> Optional[complex]:
        """The pass's value if it stops within these next panels, else None.

        A pass stops at the third panel in a row whose contribution is at
        most ``tail_tol`` times its width times the running sum.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            # accumulate adds in order: sums[k] is acc += contrib after k panels
            sums = np.add.accumulate(np.concatenate(([self.acc], contrib)))
        quiet = (np.abs(contrib) <= tail_tol * widths * np.maximum(np.abs(sums[1:]), 1e-300)) & np.isfinite(contrib)
        # the quiet run carried in, then these panels: the first three quiet in a row end the pass
        q = np.concatenate((np.ones(self.quiet, bool), quiet))
        stop = (q[:-2] & q[1:-1] & q[2:]).nonzero()[0]
        if stop.size:
            n = int(stop[0]) + 3 - self.quiet
            self.used += n
            return complex(sums[n])
        run = q[-2:]
        self.acc, self.quiet = complex(sums[-1]), int(run.sum()) if run[-1] else 0
        self.used += contrib.size
        return None


def _block_sizes(blocked: bool, opening: int):
    """Panels per node array after those laid first: ``opening`` in blocks of at most the cap, then doubling from 8.

    Past ``exact_max`` (``blocked`` false) one panel per array: each node
    there costs a grid count or a Monte Carlo run, so none past the stop is
    evaluated.
    """
    if not blocked:
        yield from itertools.repeat(1)
    while opening > 0:
        yield min(opening, _MAX_BLOCK)
        opening -= _MAX_BLOCK
    block = _FIRST_BLOCK
    while True:
        yield block
        block = min(2 * block, _MAX_BLOCK)


def tube_zeta_numeric(set_: CompactSet, s: complex, cfg: NumericZetaConfig) -> complex:
    """Quadrature of ``integral_0^delta t^(s-N-1) |A_t| dt``.

    Integrates in ``u = ln t`` with composite Gauss-Legendre panels; panels
    extend toward ``u -> -inf`` until three in a row are negligible, and
    panel widths halve, at most ``_MAX_REFINEMENTS`` (9) times, until two
    passes agree to ``_RTOL`` (1e-6).  For sets with exact volumes up to
    ``delta`` (``exact_max >= delta``) a panel edge sits at ``ln`` of each
    radius in ``(1e-280, delta)`` where ``|A_t|`` passes from one polynomial
    in ``t`` to the next (``volume_breaks``; where they crowd, the first in
    each ``_BREAK_GAP`` of ``u``), and pass ``j`` splits each interval of
    length ``L`` between them into ``2^j ceil(L / 2)`` equal panels, so 16
    nodes integrate a smooth piece to rounding; below the last edge panels
    are ``2^(1-j)`` wide.

    Such a set takes its node volumes from ``exact_volumes``, a block of
    panels per node array, and the stop rule runs over a block with the same
    additions in the same order as panel by panel.  The first pass opens
    where a tail falling like ``t^(Re s - D)`` (``D`` the box dimension,
    ``Re s - D`` at least ``_MIN_DECAY``) has its panels below the stop
    threshold, ``(ln(1 / tail_tol) + ln |s - D|) / (Re s - D)`` below
    ``delta``, plus the three quiet panels, at most 512; the second opens
    with twice that plus 4 panels, and both openings share one node array.
    Every later pass opens with twice the panels the previous pass used,
    plus 4, in blocks of at most 512, since halving the width moves the
    stop little in ``u``.  A pass whose stop lies past its opening goes on
    in blocks of 8, 16, ... 512.  Other sets take one ``2^(1-j)``-wide
    panel per :func:`tube_volumes` call.  The node radii ``t = exp(u)`` are
    libm's, bit for bit, from one array call (:func:`_libm_exp`).

    Where ``exp((s - N) u)`` overflows the product is ``exp((s - N) u + ln
    |A_t|)``; where ``|A_t|`` underflowed to 0 it is unknown (NaN).

    Raises :class:`QuadratureNonconvergent` when passes do not agree or a
    pass reaches ``t = 1e-280`` with its tail still not negligible, which
    is how ``Re s`` at or below the upper box dimension shows, and
    :class:`ValueError` for non-finite ``s`` and, for a set with exact
    volumes up to ``delta``, a ``delta`` at which the fattened bounding box
    has a volume past the float range.
    """
    s = _finite_s(s)
    n_dim = set_.ambient_dim
    volumes = _node_volumes(set_, cfg.delta)
    blocked = set_.exact_max >= cfg.delta
    # per-panel stop threshold scales with the panel width so the truncated
    # tail stays ~0.01 _RTOL regardless of how finely the panels are split
    tail_tol = min(1e-9, 1e-3 * _RTOL)
    tops = _break_tops(set_, cfg.delta)

    def integrate(p: _QuadraturePass, blocks, opened=None) -> complex:
        """The pass's value: its opening's (contributions, widths) if laid already, then blocks until it stops."""
        value = None if opened is None else p.scan(*opened, tail_tol)
        while value is None:
            if not p.left or p.u_top < _U_FLOOR:
                raise QuadratureNonconvergent(
                    f"tube zeta quadrature at s={s} reached t={math.exp(p.u_top):.3g} without a negligible "
                    "tail: Re s is at or below the abscissa of convergence, or rounding in |A_t| dominates"
                )
            edges, widths = p.lay(next(blocks))
            value = p.scan(_panel_contributions([edges], s, n_dim, volumes)[0], widths, tail_tol)
        return value

    # halving the panel width (rather than raising the node count) also
    # converges when |A_t| has derivative kinks inside a panel
    p = _QuadraturePass.first(tops)
    nxt = p.halved()
    opened = {}
    if blocked:
        # the first two passes open together, the first where a tail falling like t^(Re s - D)
        # has fallen below the stop threshold, plus its three quiet panels
        d = set_.box_dimension
        decay = max(s.real - d, _MIN_DECAY)
        # hypot is |s - D|, and inf where that passes the float range
        depth = (math.log(1.0 / tail_tol) + math.log(max(math.hypot(s.real - d, s.imag), decay))) / decay
        opening = min(p.panels_to(depth) + 3, _MAX_BLOCK)
        runs = {p: p.lay(opening)}
        if _MAX_REFINEMENTS:
            runs[nxt] = nxt.lay(2 * opening + 4)
        laid = _panel_contributions([edges for edges, _ in runs.values()], s, n_dim, volumes)
        opened = {q: (c, widths) for (q, (_, widths)), c in zip(runs.items(), laid)}
    prev = integrate(p, _block_sizes(blocked, 0), opened.get(p))
    for _ in range(_MAX_REFINEMENTS):
        # a pass not opened with the first opens with twice the panels the pass before used, plus 4
        cur = integrate(nxt, _block_sizes(blocked, 0 if nxt in opened else 2 * p.used + 4), opened.get(nxt))
        if abs(cur - prev) <= _RTOL * max(abs(cur), 1e-300):
            return cur
        p, nxt, prev = nxt, nxt.halved(), cur
    raise QuadratureNonconvergent(
        f"tube zeta quadrature did not stabilize to rtol={_RTOL} at s={s}"
    )


def functional_equation_residual(set_: CompactSet, s: complex, cfg: NumericZetaConfig) -> float:
    """Relative defect of ``zeta = delta^(s-N) |A_delta| + (N - s) ztilde``.

    The distance-zeta side comes from the closed form when the catalog has
    one (Monte Carlo otherwise); the tube side is always assembled from the
    tube-volume oracle and the tube-zeta quadrature.  Returns
    ``|LHS - RHS| / (1 + |LHS|)``; raises :class:`ValueError` for
    non-finite ``s`` and :class:`QuadratureNonconvergent` where the
    quadrature does (see :func:`tube_zeta_numeric`).
    """
    s = _finite_s(s)
    n_dim = set_.ambient_dim
    try:
        lhs = closed_form_eval(catalog_zeta(set_, cfg.delta), s)
    except (NoClosedForm, DeltaTooSmall):
        lhs = distance_zeta_numeric(set_, s, cfg).value
    a_delta = float(_node_volumes(set_, cfg.delta)(np.array([cfg.delta]))[0])
    rhs = cfg.delta ** (s - n_dim) * a_delta + (n_dim - s) * tube_zeta_numeric(set_, s, cfg)
    return abs(lhs - rhs) / (1.0 + abs(lhs))
