"""Truncated fractal tube formulas, Minkowski contents, and the measurability verdict.

The tube volume of a compact set with simple complex dimensions expands as

    |A_t| = sum over poles omega of  c_omega * t^(N - omega) / (N - omega),

where ``c_omega`` is the residue of the distance zeta function; the general
term is the residue of ``t^(N-s) zeta(s) / (N - s)`` at ``omega``.  This
module evaluates symmetric truncations of that sum, bounds the omitted
lattice terms from the closed form, estimates Minkowski contents
and box dimensions from measured tube samples, and renders the
measurability verdict: a set is Minkowski measurable exactly when its box
dimension is the only pole on the critical line and is simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .dimensions import Pole, conjugate_closed
from .errors import (
    DimensionCollision,
    FractalZetaError,
    InsufficientSamples,
    NonpositiveContent,
)
from .geometry import TubeSample, _is_integer
from .zeta import ClosedFormZeta, _finite_real


@dataclass(frozen=True)
class TubeFormulaSeries:
    """A conjugate-closed, truncated family of complex dimensions.

    ``truncation`` is the lattice cutoff K: each lattice family contributes
    poles with ``|k| <= K`` while real poles are always included.
    ``t_valid_max`` records the range on which the underlying exact formula
    is known to hold (infinity when unknown).  Each pole carries its
    residue, or its principal part if it is multiple.  Raises
    :class:`ValueError` for an ``ambient_dim`` that is not an integer
    ``>= 1``, ``poles`` that are not a tuple of :class:`Pole`, a
    ``truncation`` that is not an integer ``>= 0`` and a ``t_valid_max``
    that is neither positive and finite nor infinity.
    """

    ambient_dim: int
    poles: tuple[Pole, ...]
    truncation: int
    t_valid_max: float = math.inf

    def __post_init__(self):
        if not (_is_integer(self.ambient_dim) and self.ambient_dim >= 1):
            raise ValueError(f"ambient dimension must be an integer >= 1, got {self.ambient_dim!r}")
        if not (isinstance(self.poles, tuple) and all(isinstance(p, Pole) for p in self.poles)):
            raise ValueError("poles must be a tuple of Pole")
        if not (_is_integer(self.truncation) and self.truncation >= 0):
            raise ValueError(f"truncation must be an integer >= 0, got {self.truncation!r}")
        if not (self.t_valid_max == math.inf or (_finite_real(self.t_valid_max) and self.t_valid_max > 0)):
            raise ValueError(f"t_valid_max must be positive (infinity allowed), got {self.t_valid_max!r}")
        for p in self.poles:
            if abs(self.ambient_dim - p.location) < 1e-10:
                raise DimensionCollision(
                    f"pole {p.location} collides with the ambient dimension {self.ambient_dim}"
                )
        if not conjugate_closed(self.poles):
            raise ValueError("series pole list must be closed under conjugation")


def series_from_zeta(
    zeta: ClosedFormZeta, truncation: int = 50, t_valid_max: float = math.inf
) -> TubeFormulaSeries:
    """Build the truncated series from a closed form's pole structure."""
    poles = tuple(
        Pole(w, order=1, residue=res) for w, res in zeta.poles_for_truncation(truncation)
    )
    return TubeFormulaSeries(
        ambient_dim=zeta.ambient_dim,
        poles=poles,
        truncation=truncation,
        t_valid_max=t_valid_max,
    )


def tube_term(pole: Pole, t: float, ambient_dim: int) -> complex:
    """One pole's contribution: the residue of ``t^(N-s) zeta(s) / (N-s)``.

    With ``v = N - omega``, a simple pole of residue ``c`` gives ``c t^v / v``
    and one of order ``m`` with principal part ``(c_-m, ..., c_-1)`` gives
    ``t^v sum_j c_-j sum_(a<j) (-ln t)^a / (a! v^(j-a))`` (complex valued:
    conjugate pairs are combined by the caller so totals come out real).
    Raises :class:`ValueError` for a ``pole`` that is not a :class:`Pole`,
    a ``t`` that is not positive and finite, an ``ambient_dim`` that is not
    an integer ``>= 1`` and a pole without its residue or principal part.
    """
    if not isinstance(pole, Pole):
        raise ValueError(f"pole must be a Pole, got {pole!r}")
    if not (_finite_real(t) and t > 0):
        raise ValueError("t must be a positive finite real number")
    if not (_is_integer(ambient_dim) and ambient_dim >= 1):
        raise ValueError(f"ambient dimension must be an integer >= 1, got {ambient_dim!r}")
    v = ambient_dim - pole.location
    if abs(v) < 1e-10:
        raise DimensionCollision(f"pole {pole.location} collides with ambient dimension {ambient_dim}")
    if pole.order == 1:
        if pole.residue is None:
            raise ValueError("simple-pole tube term needs the residue")
        return pole.residue * np.exp(v * math.log(t)) / v
    if len(pole.principal_part) != pole.order:
        raise ValueError(f"a pole of order {pole.order} needs its principal part (c_-{pole.order}, ..., c_-1)")
    ln_t, part = math.log(t), enumerate(reversed(pole.principal_part), start=1)
    total = sum(c * sum((-ln_t) ** a / (math.factorial(a) * v ** (j - a)) for a in range(j)) for j, c in part)
    return complex(np.exp(v * ln_t) * total)


def tube_formula_truncated(series: TubeFormulaSeries, t: float) -> float:
    """Evaluate the truncated tube formula at ``t`` (must be a real value).

    Conjugate pairs combine as twice the real part; the total's imaginary
    residue is checked against a 1e-10 relative bound.  Raises
    :class:`ValueError` unless ``series`` is a :class:`TubeFormulaSeries`
    and ``0 < t < series.t_valid_max``.
    """
    return float(_formula_values(series, [t])[0])


def _formula_values(series: TubeFormulaSeries, ts: Sequence[float]) -> np.ndarray:
    """The truncated tube formula at every radius of ``ts``, as :func:`tube_formula_truncated`.

    The terms of the simple poles with a ``complex`` location and a
    ``complex``, ``float`` or ``int`` residue (every closed form's) come from
    one (pole x radius) array with the bits of :func:`tube_term`:
    ``z = v ln t`` formed part by part as a complex times a float is, its
    ``exp``, the residue product in real arithmetic (numpy's complex-array
    multiply may round differently from its scalar one) and the quotient by
    ``v``.  Any other pole, a multiple one above all, takes ``tube_term`` at
    each radius.  The totals add the terms in series order.
    """
    if not isinstance(series, TubeFormulaSeries):
        raise ValueError(f"series must be a TubeFormulaSeries, got {series!r}")
    for t in ts:
        if not (_finite_real(t) and t > 0):
            raise ValueError("t must be a positive finite real number")
        if t >= series.t_valid_max:
            raise ValueError(f"t={t} is outside the formula's validity range (t < {series.t_valid_max})")
    # an Im < 0 pole is the conjugate partner of an Im > 0 one
    kept = [p for p in series.poles if not p.location.imag < -1e-12]
    fast = [
        p.order == 1 and isinstance(p.location, complex) and isinstance(p.residue, (complex, float, int)) for p in kept
    ]
    simple = [p for p, f in zip(kept, fast) if f]
    ln_t = np.array([math.log(t) for t in ts])
    v = np.array([complex(series.ambient_dim - p.location) for p in simple], dtype=complex)[:, None]
    c = np.array([complex(p.residue) for p in simple], dtype=complex)[:, None]
    z = np.empty((len(simple), ln_t.size), dtype=complex)
    z.real, z.imag = v.real * ln_t - v.imag * 0.0, v.real * 0.0 + v.imag * ln_t
    e = np.exp(z)
    product = np.empty_like(e)
    product.real, product.imag = c.real * e.real - c.imag * e.imag, c.real * e.imag + c.imag * e.real
    simple_terms = iter(product / v)
    total_re, total_im, mag = np.zeros(ln_t.size), np.zeros(ln_t.size), np.zeros(ln_t.size)
    for p, f in zip(kept, fast):
        term = next(simple_terms) if f else np.array([tube_term(p, t, series.ambient_dim) for t in ts])
        if p.location.imag > 1e-12:
            twice = 2.0 * term.real
            total_re += twice
            np.maximum(mag, np.abs(twice), out=mag)
        else:
            total_re += term.real
            total_im += term.imag
            np.maximum(mag, np.hypot(term.real, term.imag), out=mag)
    size = np.hypot(total_re, total_im)
    off = np.flatnonzero(np.abs(total_im) > 1e-10 * np.maximum(np.maximum(size, mag), 1e-300))
    if off.size:
        k = off[0]
        raise FractalZetaError(f"tube formula total has nonvanishing imaginary part {total_im[k]} (|total|={size[k]})")
    return total_re


def truncation_tail_bound(zeta: ClosedFormZeta, truncation: int, t: float) -> float:
    """Certified bound on the lattice tube terms with ``|k| > truncation`` that the series leaves out.

    At ``w_k = D + i p k`` both ``|w_k - rho|`` and ``|N - w_k|`` are at
    least ``p |k|``, so a term with ``R`` roots sums to at most
    ``2 |c| b^-D t^(N-D) / (r ln m p^(R+1)) ((K+1)^-(R+1) + (K+1)^-R / R)``;
    zero without lattice terms, infinite for a lattice term with no roots.
    Raises :class:`ValueError` unless ``zeta`` is a closed form,
    ``truncation`` an integer ``>= 0`` and ``t`` positive and finite.
    """
    if not isinstance(zeta, ClosedFormZeta):
        raise ValueError(f"zeta must be a ClosedFormZeta, got {zeta!r}")
    if not (_is_integer(truncation) and truncation >= 0):
        raise ValueError(f"truncation must be an integer >= 0, got {truncation!r}")
    if not (_finite_real(t) and t > 0):
        raise ValueError("t must be a positive finite real number")
    total, k1 = 0.0, truncation + 1.0
    for term in zeta.lattice_terms:
        if term.lattice is None:
            continue
        n_roots = len(term.roots)
        if n_roots == 0:
            return math.inf
        (m, r), p, d = term.lattice, term.period, term.lattice_pole(0).real
        scale = abs(term.amplitude) * term.base_scale**-d * t ** (zeta.ambient_dim - d) / (r * math.log(m))
        total += 2.0 * scale / p ** (n_roots + 1) * (k1 ** -(n_roots + 1) + k1**-n_roots / n_roots)
    return total


def minkowski_content_from_residue(residue_at_d: float, ambient_dim: int, d: float) -> float:
    """Residue-normalized content ``res / (N - D)``.

    Equals the Minkowski content when the set is measurable; in general the
    residue is only bracketed between the lower and upper contents, so the
    value is reported without a measurability claim.  Raises
    :class:`ValueError` for non-finite input, an ``ambient_dim`` that is
    not an integer ``>= 1`` or ``D >= N``.
    """
    if not (_is_integer(ambient_dim) and ambient_dim >= 1):
        raise ValueError(f"ambient dimension must be an integer >= 1, got {ambient_dim!r}")
    if not (_finite_real(residue_at_d) and _finite_real(d) and d < ambient_dim):
        raise ValueError(f"requires a finite residue and a finite D < N, got {residue_at_d} and {d}")
    if residue_at_d <= 0:
        raise NonpositiveContent(f"residue {residue_at_d} is not positive")
    return residue_at_d / (ambient_dim - d)


def _smallest_decade(samples: Sequence[TubeSample], ambient_dim: int) -> list[TubeSample]:
    if not (isinstance(samples, Sequence) and all(isinstance(s, TubeSample) for s in samples)):
        raise ValueError("samples must be a sequence of TubeSample")
    if not (_is_integer(ambient_dim) and ambient_dim >= 1):
        raise ValueError(f"ambient dimension must be an integer >= 1, got {ambient_dim!r}")
    ts = [s.t for s in samples]
    if len(samples) < 16:
        raise InsufficientSamples("need at least 16 samples")
    if max(ts) / min(ts) < 100.0 * (1.0 - 1e-9):
        raise InsufficientSamples("samples must span at least two decades of t")
    t_min = min(ts)
    picked = [s for s in samples if s.t <= 10.0 * t_min * (1.0 + 1e-12)]
    if len(picked) < 4:
        raise InsufficientSamples("too few samples in the smallest decade")
    return picked


def content_bounds_estimate(
    samples: Sequence[TubeSample], r: float, ambient_dim: int
) -> tuple[float, float]:
    """Finite-scale proxies for the lower and upper r-dimensional contents.

    Min and max of ``|A_t| / t^(N-r)`` over the smallest sampled decade;
    these approximate liminf and limsup of the content quotient.  Raises
    :class:`ValueError` as :func:`box_dimension_fit` and for an ``r`` that
    is not a finite real number.
    """
    if not _finite_real(r):
        raise ValueError(f"r must be a finite real number, got {r!r}")
    picked = _smallest_decade(samples, ambient_dim)
    vals = [s.volume / s.t ** (ambient_dim - r) for s in picked]
    return min(vals), max(vals)


def box_dimension_fit(samples: Sequence[TubeSample], ambient_dim: int) -> float:
    """``N - slope`` of the least-squares fit of ``ln |A_t|`` against ``ln t``.

    The fit uses the smallest sampled decade, where the leading power law
    dominates.  Raises :class:`ValueError` for ``samples`` that are not a
    sequence of :class:`TubeSample` and an ``ambient_dim`` that is not an
    integer ``>= 1``.
    """
    picked = _smallest_decade(samples, ambient_dim)
    ln_t = np.log([s.t for s in picked])
    ln_v = np.log([max(s.volume, 1e-300) for s in picked])
    slope, _ = np.polyfit(ln_t, ln_v, 1)
    return float(ambient_dim - slope)


class Verdict(str, Enum):
    MEASURABLE = "measurable"
    NOT_MEASURABLE = "not_measurable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MeasurabilityVerdict:
    """Outcome of the measurability criterion at dimension ``D``.

    ``content`` is present exactly when the verdict is measurable.  Notes
    record the hypotheses that were assumed rather than machine-verified
    (screen placement, languidity) plus any attached evidence.
    """

    verdict: Verdict
    dimension: float
    critical_line_poles: tuple[Pole, ...]
    content: Optional[float] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if (self.verdict == Verdict.MEASURABLE) != (self.content is not None):
            raise ValueError("content must be present iff the verdict is measurable")


def measurability_criterion(
    poles: Sequence[Pole],
    d: float,
    tol: float,
    *,
    ambient_dim: int,
    band_height: Optional[float] = None,
    lattice_period: Optional[float] = None,
    languidity_kappa: Optional[float] = None,
) -> MeasurabilityVerdict:
    """Measurability verdict from the poles near the critical line.

    Measurable iff exactly one pole lies within ``tol`` of the line
    ``Re s = d`` and that pole is real (within tol) and simple.  Two or
    more such poles, or a nonsimple one, give not-measurable.  A pole
    straddling the tolerance boundary, a search band narrower than one
    lattice period, or an empty critical line give inconclusive.

    The screen/languidity hypotheses of the underlying criterion are not
    machine-verified; they are recorded in the notes (with the probe's
    kappa when supplied).  Raises :class:`ValueError` for ``poles`` that
    are not a sequence of :class:`Pole`, an ``ambient_dim`` that is not an
    integer ``>= 1``, ``d >= N``, a non-finite ``d``, a ``tol``,
    ``band_height`` or ``lattice_period`` that is not a positive finite real
    number and a ``languidity_kappa`` that is not a finite real number (the
    last three may be None).
    """
    if not (isinstance(poles, Sequence) and all(isinstance(p, Pole) for p in poles)):
        raise ValueError("poles must be a sequence of Pole")
    if not (_is_integer(ambient_dim) and ambient_dim >= 1):
        raise ValueError(f"ambient dimension must be an integer >= 1, got {ambient_dim!r}")
    for name, value in (("band_height", band_height), ("lattice_period", lattice_period)):
        if not (value is None or (_finite_real(value) and value > 0)):
            raise ValueError(f"{name} must be None or a positive finite real number, got {value!r}")
    if not (languidity_kappa is None or _finite_real(languidity_kappa)):
        raise ValueError(f"languidity_kappa must be None or a finite real number, got {languidity_kappa!r}")
    if not _finite_real(d):
        raise ValueError(f"D must be a finite real number, got {d!r}")
    if d >= ambient_dim:
        raise ValueError("criterion requires D < N")
    if not (_finite_real(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite real number, got {tol!r}")
    notes = [
        "screen and languidity hypotheses assumed, not machine-verified",
    ]
    if languidity_kappa is not None:
        notes.append(f"languidity probe: fitted kappa = {languidity_kappa:.6g}")

    critical = tuple(p for p in poles if abs(p.location.real - d) <= tol)
    straddling = [p for p in poles if tol < abs(p.location.real - d) <= 2.0 * tol]
    if straddling:
        notes.append(f"{len(straddling)} pole(s) straddle the tolerance boundary at {tol}")
        return MeasurabilityVerdict(Verdict.INCONCLUSIVE, d, critical, notes=tuple(notes))
    if band_height is not None and lattice_period is not None and band_height < lattice_period:
        notes.append("search band narrower than one lattice period")
        return MeasurabilityVerdict(Verdict.INCONCLUSIVE, d, critical, notes=tuple(notes))
    if not critical:
        notes.append("no pole found on the critical line; D may be inconsistent with the poles")
        return MeasurabilityVerdict(Verdict.INCONCLUSIVE, d, critical, notes=tuple(notes))
    if len(critical) > 1 or critical[0].order > 1:
        notes.append("nonreal poles (or a multiple pole) on the critical line force oscillations")
        return MeasurabilityVerdict(Verdict.NOT_MEASURABLE, d, critical, notes=tuple(notes))
    lone = critical[0]
    if abs(lone.location.imag) > tol:
        notes.append("the lone critical-line pole is not real")
        return MeasurabilityVerdict(Verdict.NOT_MEASURABLE, d, critical, notes=tuple(notes))
    if lone.residue is None or lone.residue.real <= 0 or abs(lone.residue.imag) > tol * max(
        1.0, abs(lone.residue)
    ):
        notes.append("residue at D unavailable or not positive real; content undetermined")
        return MeasurabilityVerdict(Verdict.INCONCLUSIVE, d, critical, notes=tuple(notes))
    content = minkowski_content_from_residue(lone.residue.real, ambient_dim, d)
    return MeasurabilityVerdict(Verdict.MEASURABLE, d, critical, content=content, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Formula-vs-oracle comparison
# ---------------------------------------------------------------------------

_EPS_MACHINE = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ComparisonRow:
    t: float
    direct_volume: float
    formula_value: float
    abs_error: float
    rel_error: float


@dataclass(frozen=True)
class TubeComparison:
    """Paired (direct oracle, truncated formula) samples for validation."""

    rows: tuple[ComparisonRow, ...]
    set_id: str
    truncation: int
    oracle_method: str

    @property
    def max_rel_error(self) -> float:
        return max(r.rel_error for r in self.rows)

    def summary(self) -> dict:
        return {
            "set_id": self.set_id,
            "truncation": self.truncation,
            "oracle_method": self.oracle_method,
            "max_rel_error": self.max_rel_error,
            "rows": len(self.rows),
        }


def compare_tube_formula(
    series: TubeFormulaSeries,
    samples: Sequence[TubeSample],
    set_id: str = "",
) -> TubeComparison:
    """Tabulate the truncated formula against direct tube-volume samples; ValueError unless they are TubeSamples.

    The formula is evaluated at every sample's radius at once, with the bits of
    :func:`tube_formula_truncated` at each.  Raises :class:`ValueError` for an
    empty ``samples``, whose comparison has no largest error.
    """
    if not (isinstance(samples, Sequence) and all(isinstance(s, TubeSample) for s in samples)):
        raise ValueError("samples must be a sequence of TubeSample")
    if not samples:
        raise ValueError("samples must not be empty")
    rows = []
    methods = set()
    for s, formula in zip(samples, _formula_values(series, [s.t for s in samples]).tolist()):
        abs_err = abs(s.volume - formula)
        rel_err = abs_err / max(s.volume, _EPS_MACHINE)
        rows.append(ComparisonRow(s.t, s.volume, formula, abs_err, rel_err))
        methods.add(s.method.value)
    return TubeComparison(
        rows=tuple(rows),
        set_id=set_id,
        truncation=series.truncation,
        oracle_method=",".join(sorted(methods)),
    )
