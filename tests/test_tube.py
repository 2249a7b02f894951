import math
import time

import numpy as np
import pytest

from fractalzeta.dimensions import Pole, Window, find_poles_argument_principle, languidity_probe, lattice_poles
from fractalzeta.errors import (
    DimensionCollision,
    InsufficientSamples,
    NonpositiveContent,
)
from fractalzeta.geometry import (
    CantorLike,
    FractalStringBoundary,
    PointSet,
    SierpinskiCarpet3D,
    SierpinskiGasket,
    TubeMethod,
    TubeSample,
    sample_tube_curve,
    tube_volume,
    tube_volumes,
)
from fractalzeta.tube import (
    TubeFormulaSeries,
    Verdict,
    box_dimension_fit,
    compare_tube_formula,
    content_bounds_estimate,
    measurability_criterion,
    minkowski_content_from_residue,
    series_from_zeta,
    truncation_tail_bound,
    tube_formula_truncated,
    tube_term,
)
from fractalzeta.zeta import ClosedFormZeta, LatticeTerm, catalog_zeta, closed_form_eval
from references import max_real_part, real_poles, scale_zeta, tube_formula_per_radius

LOG2_3 = math.log(3.0) / math.log(2.0)
LOG3_2 = math.log(2.0) / math.log(3.0)
LOG3_26 = math.log(26.0) / math.log(3.0)
P_GASKET = 2.0 * math.pi / math.log(2.0)
P_CARPET = 2.0 * math.pi / math.log(3.0)

GASKET_T_MAX = 1.0 / (2.0 * math.sqrt(3.0))


def gasket_series(k=20):
    return series_from_zeta(catalog_zeta(SierpinskiGasket(), 0.5), k, t_valid_max=GASKET_T_MAX)


def carpet_series(k=20):
    return series_from_zeta(catalog_zeta(SierpinskiCarpet3D(), 0.25), k, t_valid_max=0.5)


def string_series(k=50):
    return series_from_zeta(
        catalog_zeta(FractalStringBoundary.cantor_string(), 1.0 / 3.0), k, t_valid_max=1.0 / 6.0
    )


# ---------------------------------------------------------------------------
# tube terms
# ---------------------------------------------------------------------------


def test_tube_term_point():
    p = Pole(0.0 + 0.0j, residue=2.0 + 0.0j)
    assert tube_term(p, 0.25, 1) == pytest.approx(0.5)


def test_tube_term_gasket_quadratic_coefficient():
    res = 3.0 * math.sqrt(3.0) + 2.0 * math.pi
    p = Pole(0.0 + 0.0j, residue=complex(res))
    t = 0.07
    expected = (3.0 * math.sqrt(3.0) / 2.0 + math.pi) * t * t
    assert tube_term(p, t, 2) == pytest.approx(expected, rel=1e-14)


def test_tube_term_carpet_linear_coefficient():
    p = Pole(2.0 + 0.0j, residue=complex(96.0 / 17.0))
    t = 0.03
    assert tube_term(p, t, 3) == pytest.approx((6.0 - 6.0 / 17.0) * t, rel=1e-14)


def test_tube_term_dimension_collision():
    with pytest.raises(DimensionCollision):
        tube_term(Pole(1.0 + 0.0j, residue=1.0 + 0.0j), 0.1, 1)


def test_tube_term_higher_order_contour_matches_analytic():
    # f(s) = 1/(s-1)^2: res of t^(2-s) f(s) / (2-s) at 1 is t (1 - ln t)
    pole = Pole(1.0 + 0.0j, order=2, residue=0.0 + 0.0j, principal_part=(1.0 + 0.0j, 0.0 + 0.0j))
    for t in [0.05, 0.3]:
        got = tube_term(pole, t, 2)
        assert got == pytest.approx(t * (1.0 - math.log(t)), rel=1e-14)


def _contour_tube_term(f, omega, radius, t, n_dim, nodes=4096):
    """``(1/2 pi i)`` of the circle integral of ``t^(N-s) f(s) / (N-s)`` about ``omega``, by the trapezoidal rule."""
    ring = np.exp(2j * math.pi * np.arange(nodes) / nodes)
    s = omega + radius * ring
    return complex(radius * np.mean(t ** (n_dim - s) * f(s) / (n_dim - s) * ring))


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("t", [0.01, 0.1, 0.4])
def test_multiple_pole_tube_terms_match_an_independent_contour(order, t):
    # e^s / (s - omega)^m has c_-j = e^omega / (m - j)!
    omega = 0.6 + 0.4j
    part = tuple(complex(np.exp(omega)) / math.factorial(order - j) for j in range(order, 0, -1))
    pole = Pole(omega, order=order, residue=part[-1], principal_part=part)
    want = _contour_tube_term(lambda s: np.exp(s) / (s - omega) ** order, omega, 0.5, t, 2)
    assert abs(tube_term(pole, t, 2) - want) <= 1e-13 * abs(want)


def test_a_conjugate_pair_of_double_poles_sums_without_an_evaluator():
    omega, part = 0.7 + 2.0j, (0.3 - 0.2j, -0.1 + 0.05j)
    upper = Pole(omega, order=2, residue=part[-1], principal_part=part)
    conj = tuple(c.conjugate() for c in part)
    lower = Pole(omega.conjugate(), order=2, residue=conj[-1], principal_part=conj)
    series = TubeFormulaSeries(2, (upper, lower), 1)
    for t in [0.01, 0.1, 0.4]:
        assert tube_formula_truncated(series, t) == 2.0 * tube_term(upper, t, 2).real


def test_a_multiple_pole_tube_term_needs_its_principal_part():
    with pytest.raises(ValueError):
        tube_term(Pole(1.0 + 0.0j, order=2), 0.1, 2)


def test_the_finders_principal_part_gives_the_double_pole_tube_term():
    [pole] = find_poles_argument_principle(lambda s: 1.0 / (s - 1.0) ** 2, (0.0, 2.0, -1.0, 1.0), tol=1e-10)
    assert pole.order == 2
    for t in [0.01, 0.05, 0.3]:
        assert tube_term(pole, t, 2) == pytest.approx(t * (1.0 - math.log(t)), rel=1e-12)


# ---------------------------------------------------------------------------
# truncated formula vs oracles
# ---------------------------------------------------------------------------


def test_formula_point_set_exact():
    series = series_from_zeta(catalog_zeta(PointSet([[0.0]]), 1.0), 5)
    for t in [0.01, 0.25, 0.9]:
        assert abs(tube_formula_truncated(series, t) - 2.0 * t) <= 1e-15


def test_formula_total_is_real_when_summed_without_pairing():
    series = gasket_series(10)
    t = 0.02
    total = sum(tube_term(p, t, 2) for p in series.poles)
    assert abs(total.imag) <= 1e-10 * abs(total)
    assert total.real == pytest.approx(tube_formula_truncated(series, t), rel=1e-12)


def test_formula_validity_range_enforced():
    series = gasket_series(5)
    with pytest.raises(ValueError):
        tube_formula_truncated(series, 0.5)
    with pytest.raises(ValueError):
        tube_formula_truncated(series, -0.1)


def test_formula_rejects_nan_t():
    # NaN slipped past both range checks and came back as a NaN total
    with pytest.raises(ValueError):
        tube_formula_truncated(gasket_series(5), math.nan)


def test_gasket_formula_matches_exact_oracle():
    series = gasket_series(20)
    for t in [0.005, 0.02, 0.1, 0.25]:
        direct = tube_volume(SierpinskiGasket(), t).volume
        formula = tube_formula_truncated(series, t)
        assert abs(formula - direct) / direct < 1e-6


def test_carpet_formula_matches_exact_oracle():
    series = carpet_series(20)
    for t in [0.005, 0.05, 0.3]:
        direct = tube_volume(SierpinskiCarpet3D(), t).volume
        formula = tube_formula_truncated(series, t)
        assert abs(formula - direct) / direct < 1e-8


@pytest.mark.parametrize("set_, base", [(SierpinskiGasket(), 2.0), (SierpinskiCarpet3D(), 3.0)], ids=["gasket", "carpet"])
def test_tube_formula_remainder_log_periodic_down_to_1e_150(set_, base):
    # below t_valid_max, |A_t| is the residue sum: take off the real poles
    # other than D and t^(N-D) times a function of period log(base) is left
    n_dim, dim = set_.ambient_dim, set_.box_dimension
    real = [
        (w.real, res.real)
        for w, res in catalog_zeta(set_).poles_for_truncation(0)
        if w.imag == 0.0 and abs(w.real - dim) > 1e-9
    ]
    ts = 0.1 * base ** -np.arange(400.0)
    ts = ts[ts >= 1e-150]
    rest = tube_volumes(set_, ts) - sum(res * ts ** (n_dim - w) / (n_dim - w) for w, res in real)
    q = rest / ts ** (n_dim - dim)
    assert q.tolist() == pytest.approx([q[0]] * ts.size, rel=1e-12)


def test_cantor_string_formula_against_sweep():
    series = string_series(50)
    set_ = FractalStringBoundary.cantor_string()
    rel = []
    for t in np.geomspace(1e-4, 1e-1, 32):
        direct = tube_volume(set_, t).volume
        rel.append(abs(tube_formula_truncated(series, t) - direct) / direct)
    assert max(rel) <= 1e-2


def test_convergence_in_truncation_dominated_by_tail_estimate():
    t = 0.01
    v20 = tube_formula_truncated(gasket_series(20), t)
    v40 = tube_formula_truncated(gasket_series(40), t)
    assert abs(v40 - v20) <= truncation_tail_bound(catalog_zeta(SierpinskiGasket(), 0.5), 20, t)
    t = 0.1
    v10 = tube_formula_truncated(carpet_series(10), t)
    v30 = tube_formula_truncated(carpet_series(30), t)
    assert abs(v30 - v10) <= truncation_tail_bound(catalog_zeta(SierpinskiCarpet3D(), 0.25), 10, t)


def test_tail_estimate_zero_for_single_real_pole():
    assert truncation_tail_bound(catalog_zeta(PointSet([[0.0]]), 1.0), 5, 0.1) == 0.0


def test_tail_bound_infinite_for_a_lattice_term_without_roots_and_finite_at_zero_truncation():
    rootless = ClosedFormZeta(1, 1.0, (LatticeTerm(1.0, 1.0, (), (2.0, 3.0)),))
    assert truncation_tail_bound(rootless, 5, 0.1) == math.inf
    assert 0.0 < truncation_tail_bound(catalog_zeta(SierpinskiGasket(), 0.5), 0, 0.1) < math.inf


def _summed_tail_terms(form, k_cut, t, count=20000):
    """Sum of |tube term| over K < |k| <= K + count, from each lattice term's own residue."""
    k = np.arange(k_cut + 1, k_cut + count + 1)
    total = 0.0
    for term in form.lattice_terms:
        (m, r), n_dim = term.lattice, form.ambient_dim
        w = math.log(r) / math.log(m) + 1j * term.period * k
        den = np.prod([w - rho for rho in term.roots], axis=0) * math.log(m) * r
        res = term.amplitude * np.exp(-w * math.log(term.base_scale)) / den
        total += 2.0 * np.abs(res * np.exp((n_dim - w) * math.log(t)) / (n_dim - w)).sum()
    return total


@pytest.mark.parametrize(
    "set_, delta",
    [
        (CantorLike(), 0.5),
        (FractalStringBoundary.cantor_string(), 1.0 / 3.0),
        (SierpinskiGasket(), 0.5),
        (SierpinskiCarpet3D(), 0.25),
    ],
    ids=["cantor_set", "cantor_string", "gasket", "carpet"],
)
def test_tail_bound_covers_the_exact_deviation_and_is_within_twice_the_summed_terms(set_, delta):
    form = catalog_zeta(set_, delta)
    for k_cut in (0, 1, 5, 20, 200):
        series = series_from_zeta(form, k_cut, t_valid_max=set_.t_valid_max)
        for t in np.geomspace(1e-6, 0.9 * set_.t_valid_max, 5):
            bound = truncation_tail_bound(form, k_cut, t)
            assert abs(tube_volume(set_, t).volume - tube_formula_truncated(series, t)) <= bound
            summed = _summed_tail_terms(form, k_cut, t)
            assert summed <= bound <= 2.0 * summed


def test_explicit_string_formula_on_first_linear_piece():
    # a finite string's zeta has a lone pole at 0; the residue sum equals
    # |A_t| exactly while 2t stays below the smallest length
    st = FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.1))
    series = series_from_zeta(
        catalog_zeta(st, 0.5), 10, t_valid_max=min(st.lengths) / 2.0
    )
    for t in [0.005, 0.02, 0.049]:
        direct = tube_volume(st, t).volume
        assert tube_formula_truncated(series, t) == pytest.approx(direct, rel=1e-13)
    with pytest.raises(ValueError):
        tube_formula_truncated(series, 0.2)


def test_compare_tube_formula_rows():
    series = string_series(50)
    set_ = FractalStringBoundary.cantor_string()
    samples = sample_tube_curve(set_, np.geomspace(1e-3, 1e-1, 8))
    cmp_ = compare_tube_formula(series, samples, set_id="cantor_string")
    assert cmp_.max_rel_error <= 1e-2
    assert cmp_.oracle_method == "exact_1d"
    assert len(cmp_.rows) == 8
    for row in cmp_.rows:
        assert row.rel_error == pytest.approx(row.abs_error / max(row.direct_volume, 2.3e-16))


# the six catalog sets, each with its closed form's delta
FORMULA_SETS = [
    (SierpinskiGasket(), 0.5),
    (SierpinskiCarpet3D(), 0.25),
    (CantorLike(), 0.5),
    (FractalStringBoundary.cantor_string(), 1.0 / 3.0),
    (FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.125)), 0.5),
    (PointSet([[0.0, 0.0], [1.0, 0.5]]), 0.5),
]


@pytest.mark.parametrize("k", [0, 3, 20, 50])
@pytest.mark.parametrize(
    "set_, delta", FORMULA_SETS, ids=["gasket", "carpet", "cantor", "cantor-string", "explicit-string", "two-points"]
)
def test_formula_over_the_radius_grid_equals_the_per_radius_sum(set_, delta, k):
    series = series_from_zeta(catalog_zeta(set_, delta), k, t_valid_max=set_.t_valid_max)
    ts = np.geomspace(1e-4, 0.999 * min(set_.t_valid_max, 1.0), 40).tolist()
    samples = [TubeSample(t, 1.0, TubeMethod.EXACT_CLOSED) for t in ts]
    got = [row.formula_value for row in compare_tube_formula(series, samples).rows]
    # bit for bit, at one radius and at all of them
    assert got == [tube_formula_per_radius(series, t) for t in ts]
    assert got == [tube_formula_truncated(series, t) for t in ts]


def test_formula_over_the_radius_grid_with_a_double_pole_and_real_typed_poles():
    # a double pole takes tube_term at each radius, as do poles whose location is not a complex
    poles = (
        Pole(1.5 + 0.0j, residue=2.0 + 0.0j),
        Pole(0.5 + 3.0j, order=2, residue=0.3 - 0.2j, principal_part=(0.1 + 0.05j, 0.3 - 0.2j)),
        Pole(0.5 - 3.0j, order=2, residue=0.3 + 0.2j, principal_part=(0.1 - 0.05j, 0.3 + 0.2j)),
        Pole(1.0, residue=0.7),
        Pole(0.25 + 7.0j, residue=1e-3 + 2e-3j),
        Pole(0.25 - 7.0j, residue=1e-3 - 2e-3j),
        Pole(0, residue=3),
    )
    series = TubeFormulaSeries(ambient_dim=2, poles=poles, truncation=0)
    ts = np.geomspace(1e-5, 0.5, 40).tolist()
    samples = [TubeSample(t, 1.0, TubeMethod.EXACT_CLOSED) for t in ts]
    got = [row.formula_value for row in compare_tube_formula(series, samples).rows]
    assert got == [tube_formula_per_radius(series, t) for t in ts]


def test_compare_tube_formula_rejects_empty_samples():
    # an empty comparison's summary and max_rel_error raised "max() arg is an empty sequence"
    with pytest.raises(ValueError):
        compare_tube_formula(gasket_series(3), [])
    with pytest.raises(ValueError):
        compare_tube_formula(gasket_series(3), ())


# ---------------------------------------------------------------------------
# contents, dimensions, verdicts
# ---------------------------------------------------------------------------


def test_minkowski_content_from_residue_values():
    assert minkowski_content_from_residue(2.0, 1, 0.0) == pytest.approx(2.0)
    assert minkowski_content_from_residue(0.5, 2, 0.5) == pytest.approx(1.0 / 3.0)
    with pytest.raises(NonpositiveContent):
        minkowski_content_from_residue(-1.0, 1, 0.0)
    with pytest.raises(ValueError):
        minkowski_content_from_residue(1.0, 1, 1.5)
    string_res = 2.0**-LOG3_2 / (LOG3_2 * math.log(3.0))
    expected = 2.0**-LOG3_2 / (LOG3_2 * (1.0 - LOG3_2) * math.log(3.0))
    assert minkowski_content_from_residue(string_res, 1, LOG3_2) == pytest.approx(expected)


def test_content_bounds_point_set():
    samples = sample_tube_curve(PointSet([[0.0]]), np.geomspace(1e-3, 1e-1, 20))
    lo, hi = content_bounds_estimate(samples, 0.0, 1)
    assert lo == pytest.approx(2.0)
    assert hi == pytest.approx(2.0)


def test_content_bounds_gasket_oscillation_gap():
    samples = sample_tube_curve(SierpinskiGasket(), np.geomspace(1e-3, 1e-1, 64))
    lo, hi = content_bounds_estimate(samples, LOG2_3, 2)
    assert lo < hi
    assert hi / lo > 1.001


def test_content_diverges_below_the_dimension():
    # at r = 0 < D the quotient |A_t| / t^N blows up as t shrinks
    samples = sample_tube_curve(CantorLike(), np.geomspace(1e-4, 1e-2, 20))
    quotients = [s.volume / s.t for s in samples]
    assert quotients[0] > 10.0 * quotients[-1]


def test_content_bounds_preconditions():
    short = sample_tube_curve(PointSet([[0.0]]), np.geomspace(1e-3, 1e-1, 8))
    with pytest.raises(InsufficientSamples):
        content_bounds_estimate(short, 0.0, 1)
    narrow = sample_tube_curve(PointSet([[0.0]]), np.geomspace(1e-2, 5e-2, 20))
    with pytest.raises(InsufficientSamples):
        content_bounds_estimate(narrow, 0.0, 1)


def test_box_dimension_fit_point():
    samples = sample_tube_curve(PointSet([[0.0]]), np.geomspace(1e-3, 1e-1, 24))
    assert abs(box_dimension_fit(samples, 1) - 0.0) <= 0.02


def test_box_dimension_fit_cantor():
    samples = sample_tube_curve(CantorLike(), np.geomspace(1e-4, 1e-2, 32))
    assert abs(box_dimension_fit(samples, 1) - LOG3_2) <= 0.05


def test_measurability_verdicts_catalog():
    gasket = catalog_zeta(SierpinskiGasket(), 0.5)
    poles = [Pole(w, residue=r) for w, r in gasket.poles(20.0)]
    v = measurability_criterion(poles, LOG2_3, 1e-6, ambient_dim=2,
                                band_height=20.0, lattice_period=P_GASKET)
    assert v.verdict == Verdict.NOT_MEASURABLE
    assert v.content is None
    assert len(v.critical_line_poles) == 5

    carpet = catalog_zeta(SierpinskiCarpet3D(), 0.25)
    poles = [Pole(w, residue=r) for w, r in carpet.poles(20.0)]
    v = measurability_criterion(poles, LOG3_26, 1e-6, ambient_dim=3,
                                band_height=20.0, lattice_period=P_CARPET)
    assert v.verdict == Verdict.NOT_MEASURABLE

    point = catalog_zeta(PointSet([[0.0]]), 1.0)
    poles = [Pole(w, residue=r) for w, r in point.poles(20.0)]
    v = measurability_criterion(poles, 0.0, 1e-6, ambient_dim=1)
    assert v.verdict == Verdict.MEASURABLE
    assert v.content == pytest.approx(2.0)


def test_measurability_rejects_non_finite_d_and_bad_tol():
    # a NaN D and a NaN or negative tol gave an inconclusive verdict
    poles = [Pole(complex(LOG2_3), residue=1.0 + 0j)]
    for d, tol in ((math.nan, 1e-6), (-math.inf, 1e-6), (LOG2_3, math.nan), (LOG2_3, -1.0), (LOG2_3, 0.0),
                   (LOG2_3, math.inf), (LOG2_3, True)):
        with pytest.raises(ValueError):
            measurability_criterion(poles, d, tol, ambient_dim=2)
    assert measurability_criterion(poles, LOG2_3, 1e-6, ambient_dim=2).verdict == Verdict.MEASURABLE


def test_measurability_straddling_pole_is_inconclusive():
    tol = 1e-3
    poles = [Pole(0.5 + 0.0j, residue=1.0 + 0.0j), Pole(0.5 + 1.5 * tol + 4.0j, residue=0.1 + 0.0j)]
    v = measurability_criterion(poles, 0.5, tol, ambient_dim=1)
    assert v.verdict == Verdict.INCONCLUSIVE


def test_measurability_narrow_band_is_inconclusive():
    poles = [Pole(0.5 + 0.0j, residue=1.0 + 0.0j)]
    v = measurability_criterion(
        poles, 0.5, 1e-6, ambient_dim=1, band_height=2.0, lattice_period=5.0
    )
    assert v.verdict == Verdict.INCONCLUSIVE


def test_measurability_multiple_pole_not_measurable():
    poles = [Pole(0.5 + 0.0j, order=2, residue=1.0 + 0.0j)]
    v = measurability_criterion(poles, 0.5, 1e-6, ambient_dim=1)
    assert v.verdict == Verdict.NOT_MEASURABLE


def test_criterion_agrees_with_finite_scale_oscillation():
    # gap ratio above threshold <=> not measurable, across the catalog
    threshold = 1.001
    cases = [
        (PointSet([[0.0]]), 1, 0.0, 1.0, Verdict.MEASURABLE, (1e-3, 1e-1)),
        (CantorLike(), 1, LOG3_2, 0.5, Verdict.NOT_MEASURABLE, (1e-4, 1e-2)),
        (SierpinskiGasket(), 2, LOG2_3, 0.5, Verdict.NOT_MEASURABLE, (1e-3, 1e-1)),
        (SierpinskiCarpet3D(), 3, LOG3_26, 0.25, Verdict.NOT_MEASURABLE, (1e-3, 1e-1)),
    ]
    for set_, n_dim, d, delta, expected, (lo_t, hi_t) in cases:
        form = catalog_zeta(set_, delta)
        periods = form.lattice_periods()
        poles = [Pole(w, residue=r) for w, r in form.poles(25.0)]
        v = measurability_criterion(
            poles, d, 1e-6, ambient_dim=n_dim, band_height=25.0,
            lattice_period=min(periods) if periods else None,
        )
        assert v.verdict == expected
        samples = sample_tube_curve(set_, np.geomspace(lo_t, hi_t, 64))
        lo, hi = content_bounds_estimate(samples, d, n_dim)
        oscillates = hi / lo > threshold
        assert oscillates == (expected == Verdict.NOT_MEASURABLE)


def test_leading_order_law():
    # formula value / t^(N-D) stays within the finite-scale content proxies
    cases = [
        (SierpinskiGasket(), 2, LOG2_3, gasket_series(30), (1e-3, 1e-1)),
        (SierpinskiCarpet3D(), 3, LOG3_26, carpet_series(30), (1e-3, 1e-1)),
        (FractalStringBoundary.cantor_string(), 1, LOG3_2, string_series(60), (1e-4, 1e-2)),
    ]
    for set_, n_dim, d, series, (lo_t, hi_t) in cases:
        samples = sample_tube_curve(set_, np.geomspace(lo_t, hi_t, 48))
        lo, hi = content_bounds_estimate(samples, d, n_dim)
        for s in samples:
            if s.t > 10.0 * lo_t:
                continue
            q = tube_formula_truncated(series, s.t) / s.t ** (n_dim - d)
            assert lo * 0.95 <= q <= hi * 1.05


def test_series_construction_validations():
    with pytest.raises(DimensionCollision):
        TubeFormulaSeries(1, (Pole(1.0 + 0.0j, residue=1.0 + 0.0j),), 1)
    series = gasket_series(3)
    assert max_real_part(series) == pytest.approx(LOG2_3)
    assert len(real_poles(series)) == 2  # 0 and log2(3)
    assert len(series.poles) == 2 + 2 * 3  # real poles + K conjugate pairs


def test_series_truncation_is_an_integer_at_least_0():
    # 1.5 was recorded as the truncation, -3 kept the real poles only and True counted as 1
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    for bad in (1.5, -3, True, math.nan):
        with pytest.raises(ValueError, match="truncation"):
            series_from_zeta(form, bad)
        with pytest.raises(ValueError, match="truncation"):
            form.poles_for_truncation(bad)
    assert len(series_from_zeta(form, 0).poles) == 2
    assert series_from_zeta(form, np.int64(3)).truncation == 3


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

_HEIGHTS = list(np.geomspace(10.0, 1100.0, 16))

NON_FINITE_CASES = {
    "closed_form_eval(s=nan)": lambda: closed_form_eval(catalog_zeta(SierpinskiGasket(), 0.5), math.nan),
    "ClosedFormZeta(delta=nan)": lambda: ClosedFormZeta(2, math.nan),
    "scale_zeta(lam=nan)": lambda: scale_zeta(catalog_zeta(SierpinskiGasket(), 0.5), math.nan),
    "LatticeTerm(base_scale=nan)": lambda: LatticeTerm(1.0, math.nan, (0.0,)),
    "tube_term(t=nan)": lambda: tube_term(Pole(0j, residue=1.0 + 0j), math.nan, 2),
    "minkowski_content_from_residue(nan)": lambda: minkowski_content_from_residue(math.nan, 2, 1.0),
    "languidity_probe(abscissa=nan)": lambda: languidity_probe(
        catalog_zeta(SierpinskiGasket(), 0.5), math.nan, _HEIGHTS
    ),
    "languidity_probe(height=inf)": lambda: languidity_probe(
        catalog_zeta(SierpinskiGasket(), 0.5), LOG2_3 + 0.5, _HEIGHTS[:-1] + [math.inf]
    ),
    "truncation_tail_bound(t=nan)": lambda: truncation_tail_bound(catalog_zeta(SierpinskiGasket(), 0.5), 3, math.nan),
    # a string raised a bare TypeError from math.isfinite
    "tube_formula_truncated(t='0.1')": lambda: tube_formula_truncated(gasket_series(5), "0.1"),
    "lattice_poles(infinite window)": lambda: lattice_poles(2.0, 3.0, Window((-math.inf, math.inf))),
    "lattice_poles(1e300 window)": lambda: lattice_poles(2.0, 3.0, Window((-1e300, 1e300))),
    # strings raised a bare TypeError from math.isfinite or a comparison, and a fractional order passed
    "tube_term(t='0.1')": lambda: tube_term(Pole(0j, residue=1.0 + 0j), "0.1", 1),
    "truncation_tail_bound(t='0.1')": lambda: truncation_tail_bound(catalog_zeta(SierpinskiGasket(), 0.5), 3, "0.1"),
    "minkowski_content_from_residue('1')": lambda: minkowski_content_from_residue("1", 1, 0.5),
    "measurability_criterion(d='0.5')": lambda: measurability_criterion([], "0.5", 1e-6, ambient_dim=1),
    "languidity_probe(abscissa='1')": lambda: languidity_probe(catalog_zeta(SierpinskiGasket(), 0.5), "1", _HEIGHTS),
    "Window((0, '1'))": lambda: Window((0, "1")),
    "Pole(order=1.5)": lambda: Pole(1j, order=1.5),
    # a bare TypeError from iterating None, an AttributeError from None.imag_range
    "languidity_probe(heights=None)": lambda: languidity_probe(catalog_zeta(SierpinskiGasket(), 0.5), 2.0, None),
    "languidity_probe(heights=str)": lambda: languidity_probe(
        catalog_zeta(SierpinskiGasket(), 0.5), 2.0, [str(h) for h in _HEIGHTS]
    ),
    "lattice_poles(window=None)": lambda: lattice_poles(2.0, 3.0, None),
    # a NaN location came back as a NaN tube term, the others were accepted
    "Pole(location=nan)": lambda: Pole(complex("nan"), residue=1),
    "Pole(residue='x')": lambda: Pole(1j, residue="x"),
    "Pole(residue=inf)": lambda: Pole(1j, residue=complex("inf")),
    "Pole(principal_part='ab')": lambda: Pole(1j, principal_part="ab"),
    "Pole(order=2, principal_part=(1,))": lambda: Pole(1j, order=2, principal_part=(1,)),
    "Pole(principal part off the residue)": lambda: Pole(1j, order=2, residue=1.0, principal_part=(1.0, 2.0)),
    # a string raised a bare TypeError, a bool or a fraction gave a number
    "tube_term(ambient_dim='1')": lambda: tube_term(Pole(0j, residue=1.0 + 0j), 0.1, "1"),
    "tube_term(ambient_dim=True)": lambda: tube_term(Pole(0j, residue=1.0 + 0j), 0.1, True),
    "tube_term(ambient_dim=1.5)": lambda: tube_term(Pole(0j, residue=1.0 + 0j), 0.1, 1.5),
    "TubeFormulaSeries(ambient_dim='1')": lambda: TubeFormulaSeries("1", (Pole(0j, residue=1.0 + 0j),), 1),
    # accepted: a truncation that is not an integer >= 0, a NaN or non-positive t_valid_max
    "TubeFormulaSeries(truncation='a')": lambda: TubeFormulaSeries(2, (), "a"),
    "TubeFormulaSeries(truncation=True)": lambda: TubeFormulaSeries(2, (), True),
    "TubeFormulaSeries(truncation=-1)": lambda: TubeFormulaSeries(2, (), -1),
    "TubeFormulaSeries(t_valid_max=nan)": lambda: TubeFormulaSeries(2, (), 1, math.nan),
    "series_from_zeta(t_valid_max='x')": lambda: series_from_zeta(catalog_zeta(SierpinskiGasket(), 0.5), 5, "x"),
    "series_from_zeta(t_valid_max=0.0)": lambda: series_from_zeta(catalog_zeta(SierpinskiGasket(), 0.5), 5, 0.0),
    "minkowski_content_from_residue(ambient_dim=2.5)": lambda: minkowski_content_from_residue(1.0, 2.5, 1.0),
    # accepted, the band check skipped or a NaN kappa written into the notes
    "measurability_criterion(band_height=nan)": lambda: measurability_criterion(
        [], 1.0, 1e-6, ambient_dim=2, band_height=math.nan, lattice_period=1.0
    ),
    "measurability_criterion(languidity_kappa=nan)": lambda: measurability_criterion(
        [], 1.0, 1e-6, ambient_dim=2, languidity_kappa=math.nan
    ),
    # a bare TypeError
    "TubeFormulaSeries(poles=None)": lambda: TubeFormulaSeries(2, None, 1),
    "measurability_criterion(ambient_dim='2')": lambda: measurability_criterion([], 1.0, 1e-6, ambient_dim="2"),
    "minkowski_content_from_residue(ambient_dim='2')": lambda: minkowski_content_from_residue(1.0, "2", 1.0),
    "box_dimension_fit(samples=None)": lambda: box_dimension_fit(None, 1),
    # a bare AttributeError
    "TubeFormulaSeries(poles=(1j,))": lambda: TubeFormulaSeries(2, (1j,), 1),
    "tube_term(pole=None)": lambda: tube_term(None, 0.1, 2),
    "measurability_criterion(poles=[1j])": lambda: measurability_criterion([1j], 1.0, 1e-6, ambient_dim=2),
    "compare_tube_formula(samples=[1.0])": lambda: compare_tube_formula(gasket_series(3), [1.0]),
    "content_bounds_estimate(samples=[1])": lambda: content_bounds_estimate([1], 0.5, 1),
    "content_bounds_estimate(r='x')": lambda: content_bounds_estimate(
        [TubeSample(t, t, TubeMethod.EXACT_1D) for t in np.geomspace(1e-3, 1.0, 16)], "x", 1
    ),
    "tube_formula_truncated(series=None)": lambda: tube_formula_truncated(None, 0.1),
    "truncation_tail_bound(zeta=None)": lambda: truncation_tail_bound(None, 3, 0.1),
    "truncation_tail_bound(truncation=True)": lambda: truncation_tail_bound(catalog_zeta(SierpinskiGasket(), 0.5), True, 0.1),
    # accepted, and then NaN errors or a bare AttributeError from compare_tube_formula
    "TubeSample(t=nan)": lambda: TubeSample(math.nan, 1.0, TubeMethod.EXACT_1D),
    "TubeSample(volume=nan)": lambda: TubeSample(0.1, math.nan, TubeMethod.EXACT_1D),
    "TubeSample(error_bound=nan)": lambda: TubeSample(0.1, 1.0, TubeMethod.EXACT_1D, math.nan),
    "TubeSample(t=inf)": lambda: TubeSample(math.inf, 1.0, TubeMethod.EXACT_1D),
    "TubeSample(volume=inf)": lambda: TubeSample(0.1, math.inf, TubeMethod.EXACT_1D),
    "TubeSample(t=True)": lambda: TubeSample(True, 1.0, TubeMethod.EXACT_1D),
    "TubeSample(method='x')": lambda: TubeSample(0.1, 1.0, "x"),
    # a bare TypeError
    "TubeSample(t='a')": lambda: TubeSample("a", 1.0, TubeMethod.EXACT_1D),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
def test_non_finite_or_unbounded_input_raises_value_error(name):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        NON_FINITE_CASES[name]()
    assert time.perf_counter() - start < 1.0


def test_lattice_poles_accepts_a_narrow_window_high_on_the_axis():
    # the 10^6 limit counts the window's k range, not |k|
    got = lattice_poles(2.0, 3.0, Window((1e8, 1e8 + 20.0)))
    assert len(got) == 2 and all(1e8 <= w.imag <= 1e8 + 20.0 for w in got)
