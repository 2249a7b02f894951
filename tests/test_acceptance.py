"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from fractalzeta import geometry as geo
from fractalzeta.dimensions import (
    Pole,
    Window,
    conjugate_closed,
    find_poles_argument_principle,
    languidity_probe,
    lattice_poles,
    residue_contour,
)
from fractalzeta.geometry import (
    CantorLike,
    FractalStringBoundary,
    PointSet,
    SierpinskiCarpet3D,
    SierpinskiGasket,
    sample_tube_curve,
    tube_volume,
)
from fractalzeta.tube import (
    Verdict,
    box_dimension_fit,
    content_bounds_estimate,
    measurability_criterion,
    series_from_zeta,
    truncation_tail_bound,
    tube_formula_truncated,
    tube_term,
)
from fractalzeta.zeta import (
    NumericZetaConfig,
    catalog_zeta,
    closed_form_eval,
    default_delta,
)
from references import scale_zeta

SEED = 20260808
SQRT3 = math.sqrt(3.0)
LOG2_3 = math.log(3.0) / math.log(2.0)
LOG3_2 = math.log(2.0) / math.log(3.0)
LOG3_26 = math.log(26.0) / math.log(3.0)
P_GASKET = 2.0 * math.pi / math.log(2.0)
P_CARPET = 2.0 * math.pi / math.log(3.0)
GASKET_T_MAX = 1.0 / (2.0 * SQRT3)


def _report(num: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS ({elapsed:6.1f}s < {budget:g}s): {detail}")


def gasket_residue_formula(w: complex) -> complex:
    return 6.0 * SQRT3 ** (1 - w) / (4.0**w * math.log(2.0) * w * (w - 1.0))


def carpet_residue_formula(w: complex) -> complex:
    return 24.0 / (13.0 * 2.0**w * w * (w - 1.0) * (w - 2.0) * math.log(3.0))


def test_acceptance_01_gasket_residues():
    start = time.time()
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    known = [w for w, _ in form.poles(60.0)]
    res0 = residue_contour(form, 0.0, known_poles=known)
    target0 = 3.0 * SQRT3 + 2.0 * math.pi
    assert abs(res0 - target0) <= 1e-8 * abs(target0)
    worst = abs(res0 - target0) / abs(target0)
    for k in range(-5, 6):
        w = LOG2_3 + 1j * P_GASKET * k
        got = residue_contour(form, w, known_poles=known)
        want = gasket_residue_formula(w)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, elapsed, 1.0, f"gasket residues, worst rel dev {worst:.2e}")


def test_acceptance_02_carpet_residues():
    start = time.time()
    form = catalog_zeta(SierpinskiCarpet3D(), 0.25)
    known = [w for w, _ in form.poles(60.0)]
    targets = {
        0.0: 4.0 * math.pi - 24.0 / 25.0,
        1.0: 6.0 * math.pi + 24.0 / 23.0,
        2.0: 96.0 / 17.0,
    }
    worst = 0.0
    for loc, want in targets.items():
        got = residue_contour(form, loc, known_poles=known)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-8
    for k in range(-5, 6):
        w = LOG3_26 + 1j * P_CARPET * k
        got = residue_contour(form, w, known_poles=known)
        want = carpet_residue_formula(w)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(2, elapsed, 1.0, f"carpet residues, worst rel dev {worst:.2e}")


def test_acceptance_03_pole_recovery_argument_principle():
    start = time.time()
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    found = find_poles_argument_principle(form, (-0.5, 2.0, -20.0, 20.0), tol=1e-9)
    expected = [0.0 + 0.0j] + lattice_poles(2.0, 3.0, Window(imag_range=(-20.0, 20.0)))
    expected.sort(key=lambda w: (round(w.real, 6), w.imag))
    assert len(found) == len(expected) == 6  # {0} plus omega_k for |k| <= 2
    worst = 0.0
    for pole, want in zip(found, expected):
        worst = max(worst, abs(pole.location - want))
        assert abs(pole.location - want) <= 1e-8
        assert pole.order == 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, elapsed, 30.0, f"6/6 poles recovered, worst location dev {worst:.2e}")


def test_acceptance_04_functional_equation():
    start = time.time()
    rng = np.random.default_rng(SEED)
    cases = [
        (PointSet([[0.0]]), 0.0, 1),
        (CantorLike(), LOG3_2, 1),
        (SierpinskiGasket(), LOG2_3, 2),
    ]
    worst = 0.0
    from fractalzeta.zeta import functional_equation_residual

    for set_, d, n_dim in cases:
        cfg = NumericZetaConfig(delta=default_delta(set_), seed=SEED, mc_samples=10**6)
        for _ in range(20):
            s = complex(rng.uniform(d + 0.25, n_dim + 1.0), rng.uniform(-10.0, 10.0))
            residual = functional_equation_residual(set_, s, cfg)
            worst = max(worst, residual)
            assert residual <= 1e-3
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(4, elapsed, 120.0, f"60 seeded s values, worst residual {worst:.2e}")


def test_acceptance_05_tube_formula_exact_1d():
    start = time.time()
    string = FractalStringBoundary.cantor_string()
    series = series_from_zeta(catalog_zeta(string, 1.0 / 3.0), 50, t_valid_max=1.0 / 6.0)
    worst = 0.0
    for t in np.geomspace(1e-4, 1e-1, 32):
        direct = tube_volume(string, t).volume
        rel = abs(tube_formula_truncated(series, t) - direct) / direct
        worst = max(worst, rel)
        assert rel <= 1e-2
    point_series = series_from_zeta(catalog_zeta(PointSet([[0.0]]), 1.0), 1)
    point_worst = 0.0
    for t in np.geomspace(1e-4, 0.9, 16):
        rel = abs(tube_formula_truncated(point_series, t) - 2.0 * t) / (2.0 * t)
        point_worst = max(point_worst, rel)
        assert rel <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(
        5, elapsed, 10.0,
        f"Cantor string K=50 worst rel {worst:.2e}; point set worst rel {point_worst:.2e}",
    )


def test_acceptance_06_tube_formula_gasket_vs_grid():
    start = time.time()
    gasket = SierpinskiGasket()
    series = series_from_zeta(catalog_zeta(gasket, 0.5), 20, t_valid_max=GASKET_T_MAX)
    detail = []
    for t in np.geomspace(1e-2, 1e-1, 8):
        oracle = tube_volume(gasket, t, method="grid", cell=5e-4)
        formula = tube_formula_truncated(series, t)
        budget = oracle.error_bound + truncation_tail_bound(catalog_zeta(gasket, 0.5), 20, t)
        assert abs(formula - oracle.volume) <= budget
        detail.append(abs(formula - oracle.volume) / budget)
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(6, elapsed, 300.0, f"8 points, max |dev|/budget {max(detail):.3f}")


def test_acceptance_07_measurability_verdicts():
    start = time.time()
    threshold = 1.001
    cases = [
        ("gasket", SierpinskiGasket(), 2, LOG2_3, 0.5, Verdict.NOT_MEASURABLE, (1e-3, 1e-1)),
        ("carpet", SierpinskiCarpet3D(), 3, LOG3_26, 0.25, Verdict.NOT_MEASURABLE, (1e-3, 1e-1)),
        ("point", PointSet([[0.0]]), 1, 0.0, 1.0, Verdict.MEASURABLE, (1e-3, 1e-1)),
    ]
    for name, set_, n_dim, d, delta, expected, t_range in cases:
        form = catalog_zeta(set_, delta)
        periods = form.lattice_periods()
        poles = [Pole(w, residue=r) for w, r in form.poles(20.0)]
        verdict = measurability_criterion(
            poles, d, 1e-6, ambient_dim=n_dim, band_height=20.0,
            lattice_period=min(periods) if periods else None,
        )
        assert verdict.verdict == expected, name
        if name == "point":
            assert verdict.content == pytest.approx(2.0)
        samples = sample_tube_curve(set_, np.geomspace(t_range[0], t_range[1], 64))
        lo, hi = content_bounds_estimate(samples, d, n_dim)
        oscillates = hi / lo > threshold
        assert oscillates == (expected == Verdict.NOT_MEASURABLE), name
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(7, elapsed, 60.0, "verdicts and finite-scale oscillation proxies agree")


def test_acceptance_08_dimension_fits():
    start = time.time()
    cantor = sample_tube_curve(CantorLike(), np.geomspace(1e-4, 1e-2, 32))
    d_cantor = box_dimension_fit(cantor, 1)
    assert abs(d_cantor - LOG3_2) <= 0.05

    gasket = sample_tube_curve(
        SierpinskiGasket(), np.geomspace(6e-3, 6e-1, 16), method="grid", cell=5e-4
    )
    d_gasket = box_dimension_fit(gasket, 2)
    assert abs(d_gasket - LOG2_3) <= 0.05

    carpet = sample_tube_curve(
        SierpinskiCarpet3D(), np.geomspace(2e-3, 2e-1, 32),
        method="monte_carlo", mc_samples=100_000, seed=SEED,
    )
    d_carpet = box_dimension_fit(carpet, 3)
    assert abs(d_carpet - LOG3_26) <= 0.08

    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(
        8, elapsed, 300.0,
        f"Cantor {d_cantor:.4f} (target {LOG3_2:.4f}), gasket {d_gasket:.4f} "
        f"(target {LOG2_3:.4f}), carpet {d_carpet:.4f} (target {LOG3_26:.4f})",
    )


def test_acceptance_09_property_suites():
    start = time.time()
    # scaling identity at machine precision for 10 seeded (lambda, s)
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        lam = float(rng.uniform(0.2, 5.0))
        s = complex(rng.uniform(1.7, 3.0), rng.uniform(-12.0, 12.0))
        scaled = scale_zeta(form, lam)
        lhs = scaled.evaluate(s)
        rhs = lam**s * form.evaluate(s)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    # conjugate closure and real truncated sums on all catalog series
    catalog = [
        (catalog_zeta(SierpinskiGasket(), 0.5), 2, 0.2),
        (catalog_zeta(SierpinskiCarpet3D(), 0.25), 3, 0.3),
        (catalog_zeta(CantorLike(), 0.5), 1, 0.1),
        (catalog_zeta(FractalStringBoundary.cantor_string(), 0.4), 1, 0.1),
        (catalog_zeta(PointSet([[0.0]]), 1.0), 1, 0.5),
    ]
    for z, n_dim, t_probe in catalog:
        series = series_from_zeta(z, 25)
        assert conjugate_closed(series.poles)
        total = sum(tube_term(p, t_probe, n_dim) for p in series.poles)
        assert abs(total.imag) <= 1e-10 * max(abs(total), 1e-300)

    # residues at two admissible deltas agree to 1e-10
    for set_, d1, d2 in [
        (SierpinskiGasket(), 0.5, 0.95),
        (SierpinskiCarpet3D(), 0.25, 0.7),
        (CantorLike(), 0.4, 0.8),
        (FractalStringBoundary.cantor_string(), 0.3, 0.6),
    ]:
        za, zb = catalog_zeta(set_, d1), catalog_zeta(set_, d2)
        pa, pb = za.poles(25.0), zb.poles(25.0)
        assert len(pa) == len(pb)
        for (wa, ra), (wb, rb) in zip(pa, pb):
            assert abs(wa - wb) <= 1e-12
            assert abs(ra - rb) <= 1e-10 * max(1.0, abs(ra))
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(9, elapsed, 60.0, "scaling, conjugate closure, realness, delta independence")


def test_acceptance_10_languidity_probe():
    start = time.time()
    heights = list(np.geomspace(10.0, 1000.0, 24))
    gasket = catalog_zeta(SierpinskiGasket(), 0.5)
    est_g = languidity_probe(gasket, LOG2_3 + 0.5, heights)
    assert -1.3 <= est_g.kappa <= -0.7
    carpet = catalog_zeta(SierpinskiCarpet3D(), 0.25)
    est_c = languidity_probe(carpet, LOG3_26 + 0.5, heights)
    assert -1.3 <= est_c.kappa <= -0.7
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(
        10, elapsed, 30.0,
        f"kappa gasket {est_g.kappa:.4f}, carpet {est_c.kappa:.4f} (both near -1)",
    )
