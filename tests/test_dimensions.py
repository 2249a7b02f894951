import math

import numpy as np
import pytest

from fractalzeta.dimensions import (
    LanguidityEstimate,
    Pole,
    Window,
    conjugate_closed,
    find_poles_argument_principle,
    languidity_probe,
    lattice_poles,
    residue_contour,
    residues_closed_form,
)
from fractalzeta.errors import (
    BoundaryPole,
    ContourContaminated,
    NotAPole,
    PoleOnLine,
)
from fractalzeta.geometry import (
    CantorLike,
    FractalStringBoundary,
    SierpinskiCarpet3D,
    SierpinskiGasket,
)
from fractalzeta.zeta import ClosedFormZeta, catalog_zeta

LOG2_3 = math.log(3.0) / math.log(2.0)
LOG3_26 = math.log(26.0) / math.log(3.0)
LOG3_2 = math.log(2.0) / math.log(3.0)
P_GASKET = 2.0 * math.pi / math.log(2.0)
P_CARPET = 2.0 * math.pi / math.log(3.0)


def gasket_residue_formula(w: complex) -> complex:
    return 6.0 * math.sqrt(3.0) ** (1 - w) / (4.0**w * math.log(2.0) * w * (w - 1.0))


def carpet_residue_formula(w: complex) -> complex:
    return 24.0 / (13.0 * 2.0**w * w * (w - 1.0) * (w - 2.0) * math.log(3.0))


# ---------------------------------------------------------------------------
# lattice pole families
# ---------------------------------------------------------------------------


def test_lattice_poles_gasket_band_10():
    got = lattice_poles(2.0, 3.0, Window(imag_range=(-10.0, 10.0)))
    assert len(got) == 3
    assert got[1] == pytest.approx(LOG2_3)
    assert got[0] == pytest.approx(LOG2_3 - 1j * 9.064720283654388)
    assert got[2] == pytest.approx(LOG2_3 + 1j * 9.064720283654388)


def test_lattice_poles_carpet_band_6():
    got = lattice_poles(3.0, 26.0, Window(imag_range=(-6.0, 6.0)))
    assert len(got) == 3
    assert got[1] == pytest.approx(LOG3_26)
    assert abs(got[2].imag - P_CARPET) < 1e-12


def test_lattice_poles_cantor_band_1():
    got = lattice_poles(3.0, 2.0, Window(imag_range=(-1.0, 1.0)))
    assert got == [pytest.approx(LOG3_2)]


def test_lattice_poles_respect_screen():
    win = Window(imag_range=(-10.0, 10.0), screen_sup=2.0)
    assert lattice_poles(2.0, 3.0, win) == []  # Re = log2 3 < screen


def test_window_validation_and_profile():
    with pytest.raises(ValueError):
        Window(imag_range=(1.0, -1.0))
    win = Window(imag_range=(-10.0, 10.0), screen_sup=1.0)
    assert win.contains(1.2 + 0.0j)
    assert not win.contains(0.4 - 9.0j)
    assert not win.contains(1.2 + 11.0j)


# ---------------------------------------------------------------------------
# argument-principle pole finding
# ---------------------------------------------------------------------------


def test_find_poles_gasket_single_lattice_pole():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    poles = find_poles_argument_principle(form, (1.0, 2.0, -1.0, 1.0), tol=1e-10)
    assert len(poles) == 1
    assert poles[0].order == 1
    assert abs(poles[0].location - LOG2_3) < 1e-8


def test_find_poles_gasket_origin():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    poles = find_poles_argument_principle(form, (-0.5, 0.5, -1.0, 1.0), tol=1e-10)
    assert len(poles) == 1
    assert abs(poles[0].location) < 1e-8
    assert poles[0].residue == pytest.approx(3.0 * math.sqrt(3.0) + 2.0 * math.pi, rel=1e-9)


def test_find_poles_black_box_double_pole():
    poles = find_poles_argument_principle(
        lambda s: 1.0 / (s - 1.0) ** 2, (0.0, 2.0, -1.0, 1.0), tol=1e-10
    )
    assert len(poles) == 1
    assert poles[0].order == 2
    assert abs(poles[0].location - 1.0) < 1e-8
    assert abs(poles[0].residue) < 1e-9
    assert poles[0].principal_part[0] == pytest.approx(1.0, rel=1e-9)  # c_{-2}


def test_find_poles_boundary_pole_detected():
    with pytest.raises(BoundaryPole):
        find_poles_argument_principle(lambda s: 1.0 / s, (0.0, 1.0, -1.0, 1.0), tol=1e-9)


def test_find_poles_skips_plain_zeros():
    poles = find_poles_argument_principle(lambda s: s - 0.5, (0.0, 1.0, -1.0, 1.0), tol=1e-9)
    assert poles == []


def test_find_poles_rejects_order_above_max():
    from fractalzeta.errors import NonIsolable

    with pytest.raises(NonIsolable):
        find_poles_argument_principle(
            lambda s: 1.0 / (s - 1.0) ** 4, (0.0, 2.0, -1.0, 1.0), tol=1e-9
        )


def test_find_poles_resolves_a_close_zero_pole_pair():
    # W = 0 on every cell that holds both; only the moment M1 = z - p exposes the pair
    poles = find_poles_argument_principle(
        lambda s: (s - 0.501) / (s - 0.5), (0.03, 0.97, -0.47, 0.53), tol=1e-9
    )
    assert len(poles) == 1
    assert poles[0].order == 1
    assert abs(poles[0].location - 0.5) < 1e-9
    assert poles[0].residue == pytest.approx(-1e-3, rel=1e-9)


def test_find_poles_treats_a_pair_below_the_moment_floor_as_cancelled():
    poles = find_poles_argument_principle(
        lambda s: (s - 0.5 - 1e-7) / (s - 0.5),
        (0.03, 0.97, -0.47, 0.53),
        tol=1e-9,
        moment_floor=1e-6,
    )
    assert poles == []


class _PointBudget:
    """Scalar evaluator that raises after ``limit`` points, so a missing guard fails instead of hanging."""

    def __init__(self, form, limit=10**5):
        self.form, self.left = form, limit

    def __call__(self, s):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("evaluator point budget exhausted")
        return complex(self.form.evaluate(s))


@pytest.mark.parametrize(
    "rect, kwargs",
    [
        ((1.0, -0.5, -3.0, 3.0), {}),  # returned [] and missed the pole at log_3 2
        ((-0.5, 1.0, 3.0, -3.0), {}),
        ((-0.5, 1.0, -3.0, -3.0), {}),
        ((-0.5, math.nan, -3.0, 3.0), {}),
        ((-0.5, 1.0, -math.inf, 3.0), {}),
        ((-0.5, 1.0, -3.0, 3.0), {"tol": 0.0}),
        ((-0.5, 1.0, -3.0, 3.0), {"tol": math.nan}),
        ((-0.5, 1.0, -3.0, 3.0), {"tol": math.inf}),
        ((-0.5, 1.0, -3.0, 3.0), {"moment_floor": math.nan}),  # split every cell forever
        ((-0.5, 1.0, -3.0, 3.0), {"moment_floor": -1e-6}),
        ((-0.5, 1000.0, -50.0, 50.0), {}),  # over 10^5 unit cells in one level
    ],
    ids=[
        "reversed_re", "reversed_im", "empty_im", "nan_re", "inf_im", "tol_0", "tol_nan", "tol_inf",
        "floor_nan", "floor_negative", "cell_count",
    ],
)
def test_find_poles_rejects_bad_input(rect, kwargs):
    evaluator = _PointBudget(catalog_zeta(CantorLike(), 0.5))
    with pytest.raises(ValueError):
        find_poles_argument_principle(evaluator, rect, **kwargs)


def _reference_log_walk(f, corners, moment_tol):
    # the single-cell walk as it ran before cells were walked level by level:
    # its own sample list, np.insert refinement, and the plain moment stop
    center = sum(corners) / len(corners)
    pts = []
    n0 = 24
    for a, b in zip(corners, corners[1:] + corners[:1]):
        pts.extend(a + (b - a) * np.arange(n0) / n0)
    z = np.array(pts + [pts[0]], dtype=complex)
    vals = f(z)
    prev_m1 = None
    for _ in range(28):
        if not np.isfinite(vals).all() or np.abs(vals).min() < 1e-280:
            raise BoundaryPole("singular on the boundary")
        ratio = vals[1:] / vals[:-1]
        dphi = np.angle(ratio)
        dlnr = np.log(np.abs(ratio))
        bad = (np.abs(dphi) > 0.5 * math.pi) | (np.abs(dlnr) > 0.7)
        if not bad.any():
            total = float(dphi.sum()) / (2.0 * math.pi)
            w = round(total)
            if abs(total - w) <= 0.25:
                mid = 0.5 * (z[1:] + z[:-1]) - center
                m1 = complex(np.sum(mid * (dlnr + 1j * dphi)) / (2j * math.pi))
                if prev_m1 is not None and abs(m1 - prev_m1) <= 0.25 * moment_tol:
                    return int(w), m1
                prev_m1 = m1
            bad = np.ones(dphi.shape, dtype=bool)
        idx = np.nonzero(bad)[0]
        mids = 0.5 * (z[idx] + z[idx + 1])
        mvals = f(mids)
        z = np.insert(z, idx + 1, mids)
        vals = np.insert(vals, idx + 1, mvals)
    raise BoundaryPole("phase refinement exhausted")


@pytest.mark.parametrize(
    "set_, delta, re_range",
    [
        (SierpinskiGasket(), 0.5, (-0.5, 2.0)),
        (SierpinskiCarpet3D(), 0.25, (-0.5, 3.5)),
        (CantorLike(), 0.5, (-0.5, 1.0)),
        (FractalStringBoundary.cantor_string(), 1.0 / 3.0, (-0.5, 1.0)),
    ],
    ids=["gasket", "carpet", "cantor", "string"],
)
def test_batched_walks_match_single_cell_reference(set_, delta, re_range):
    from fractalzeta.dimensions import _boundary_log_walks, _rect_corners, _vectorized

    form = catalog_zeta(set_, delta)
    f = _vectorized(form)
    rng = np.random.default_rng(7)
    period = min(form.lattice_periods())
    poles = [w for w, _ in form.poles(3.0 * period) if re_range[0] < w.real < re_range[1]]
    rects = []
    for k in range(24):
        w, h = rng.uniform(0.05, 1.0, size=2)
        if k % 3:
            a = rng.uniform(re_range[0], re_range[1] - w)
            c = rng.uniform(-3.0 * period, 3.0 * period)
        else:  # around a pole
            pole = poles[rng.integers(len(poles))]
            a, c = pole.real - w * rng.uniform(0.1, 0.9), pole.imag - h * rng.uniform(0.1, 0.9)
        rects.append((a, a + w, c, c + h))
    moment_floor = 1e-6
    walks = _boundary_log_walks(f, [_rect_corners(*r) for r in rects], moment_floor)
    windings = set()
    for rect, got in zip(rects, walks):
        want = _reference_log_walk(f, _rect_corners(*rect), moment_floor)
        assert got[0] == want[0], rect
        assert abs(got[1] - want[1]) <= moment_floor, rect
        windings.add(got[0])
    assert -1 in windings and 0 in windings  # cells with a pole and cells without


def test_walk_returns_the_extrapolated_moment():
    # M1 = z - p exactly (e^s adds nothing); the plain midpoint moment stops
    # about 1e-7 off, its Richardson extrapolation about 1e-12
    from fractalzeta.dimensions import _boundary_log_walks, _rect_corners

    rng = np.random.default_rng(3)
    for _ in range(10):
        z0, p0 = rng.uniform(0.2, 0.8, 2) + 1j * rng.uniform(0.2, 0.8, 2)
        f = lambda s: (s - z0) / (s - p0) * np.exp(s)
        [(w, m1)] = _boundary_log_walks(f, [_rect_corners(0.0, 1.0, 0.0, 1.0)], 1e-6)
        assert w == 0
        assert abs(m1 - (z0 - p0)) <= 1e-9


def test_completeness_gasket_band_20():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    poles = find_poles_argument_principle(form, (-0.5, 2.0, -20.0, 20.0), tol=1e-9)
    expected = [0.0 + 0.0j] + lattice_poles(2.0, 3.0, Window(imag_range=(-20.0, 20.0)))
    assert len(poles) == len(expected)
    expected.sort(key=lambda w: (round(w.real, 6), w.imag))
    for p, e in zip(poles, expected):
        assert abs(p.location - e) < 1e-8
        assert p.order == 1
    assert conjugate_closed(poles)


def test_completeness_carpet_band_20():
    form = catalog_zeta(SierpinskiCarpet3D(), 0.25)
    poles = find_poles_argument_principle(form, (-0.5, 3.2, -20.0, 20.0), tol=1e-9)
    expected = [0.0 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j] + lattice_poles(
        3.0, 26.0, Window(imag_range=(-20.0, 20.0))
    )
    assert len(poles) == len(expected)
    expected.sort(key=lambda w: (round(w.real, 6), w.imag))
    for p, e in zip(poles, expected):
        assert abs(p.location - e) < 1e-8
        assert p.order == 1
    assert conjugate_closed(poles)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def test_residue_contour_gasket_at_zero():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    known = [w for w, _ in form.poles(25.0)]
    res = residue_contour(form, 0.0, known_poles=known)
    assert res == pytest.approx(3.0 * math.sqrt(3.0) + 2.0 * math.pi, rel=1e-12)


def test_residue_contour_carpet_at_two():
    form = catalog_zeta(SierpinskiCarpet3D(), 0.25)
    known = [w for w, _ in form.poles(25.0)]
    res = residue_contour(form, 2.0, known_poles=known)
    assert res == pytest.approx(96.0 / 17.0, rel=1e-12)


def test_residue_contour_gasket_lattice_formula():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    known = [w for w, _ in form.poles(60.0)]
    for k in range(-5, 6):
        w = LOG2_3 + 1j * P_GASKET * k
        res = residue_contour(form, w, known_poles=known)
        assert res == pytest.approx(gasket_residue_formula(w), rel=1e-8)


def test_residue_contour_contaminated():
    f = lambda s: 1.0 / s + 1.0 / (s - 0.1001)
    with pytest.raises(ContourContaminated):
        residue_contour(f, 0.0, radius=0.1)


def test_residues_closed_form_known_values():
    carpet = catalog_zeta(SierpinskiCarpet3D(), 0.25)
    assert residues_closed_form(carpet, 1.0).residue == pytest.approx(
        6.0 * math.pi + 24.0 / 23.0, rel=1e-14
    )
    assert residues_closed_form(carpet, 0.0).residue == pytest.approx(
        4.0 * math.pi - 24.0 / 25.0, rel=1e-14
    )
    string = catalog_zeta(FractalStringBoundary.cantor_string(), 0.5)
    got = residues_closed_form(string, LOG3_2).residue
    assert got == pytest.approx(2.0**-LOG3_2 / (LOG3_2 * math.log(3.0)), rel=1e-14)
    with pytest.raises(NotAPole):
        residues_closed_form(carpet, 0.37)
    with pytest.raises(NotAPole):
        residues_closed_form(string, 0.0)  # removable: term residues cancel


def test_contour_matches_closed_form_across_catalog():
    for set_, delta in [
        (SierpinskiGasket(), 0.5),
        (SierpinskiCarpet3D(), 0.25),
        (CantorLike(), 0.5),
        (FractalStringBoundary.cantor_string(), 0.5),
    ]:
        form = catalog_zeta(set_, delta)
        pairs = form.poles(50.0)
        known = [w for w, _ in pairs]
        for w, res in pairs[:8]:
            contoured = residue_contour(form, w, known_poles=known)
            assert abs(contoured - res) <= 1e-8 * max(1.0, abs(res))


def test_residues_independent_of_delta():
    for set_, d1, d2 in [
        (SierpinskiGasket(), 0.5, 0.9),
        (SierpinskiCarpet3D(), 0.25, 0.6),
        (CantorLike(), 0.5, 0.8),
    ]:
        za = catalog_zeta(set_, d1)
        zb = catalog_zeta(set_, d2)
        for (wa, ra), (wb, rb) in zip(za.poles(15.0), zb.poles(15.0)):
            assert abs(wa - wb) < 1e-12
            assert abs(ra - rb) <= 1e-10 * max(1.0, abs(ra))


def test_conjugate_closure_of_pole_lists():
    for set_, delta in [(SierpinskiGasket(), 0.5), (SierpinskiCarpet3D(), 0.25)]:
        form = catalog_zeta(set_, delta)
        poles = [Pole(w, residue=r) for w, r in form.poles(30.0)]
        assert conjugate_closed(poles)
    assert not conjugate_closed([Pole(1.0 + 2.0j, residue=1.0 + 0.0j)])


# ---------------------------------------------------------------------------
# languidity probe
# ---------------------------------------------------------------------------

HEIGHTS = tuple(np.geomspace(10.0, 1000.0, 24))


def test_languidity_gasket_along_sigma_one():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    est = languidity_probe(form, 1.0, HEIGHTS)
    assert -1.3 <= est.kappa <= -0.7
    assert est.constant > 0


def test_languidity_carpet():
    form = catalog_zeta(SierpinskiCarpet3D(), 0.25)
    est = languidity_probe(form, 1.5, HEIGHTS)
    assert -1.3 <= est.kappa <= -0.7


def test_languidity_constant_function():
    est = languidity_probe(lambda s: 1.0 + 0.0j, 1.0, HEIGHTS)
    assert abs(est.kappa) < 1e-12
    assert est.constant == pytest.approx(1.0)


def test_languidity_pole_on_line():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    heights = list(np.geomspace(10.0, 2000.0, 12)) + [P_GASKET * 2.0]
    heights.sort()
    with pytest.raises(PoleOnLine):
        languidity_probe(form, LOG2_3, heights)


def test_languidity_height_validation():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    with pytest.raises(ValueError):
        languidity_probe(form, 1.0, [10.0, 20.0, 30.0])  # too few
    with pytest.raises(ValueError):
        languidity_probe(form, 1.0, list(np.geomspace(10.0, 50.0, 12)))  # < 2 decades


def test_languidity_lists_only_the_poles_near_its_heights(monkeypatch):
    # period 2 pi / ln 1e308 = 0.0089: the band up to the top height holds about
    # 2.3e5 lattice poles, each window of +-1 around a height about 226
    form = catalog_zeta(FractalStringBoundary(base=1e308, multiplicity=2))
    (period,) = form.lattice_periods()
    heights = list(np.geomspace(10.0, 1000.0, 16))
    calls = []
    residue = ClosedFormZeta._genuine_residue

    def counting(self, omega):
        calls.append(omega)
        return residue(self, omega)

    monkeypatch.setattr(ClosedFormZeta, "_genuine_residue", counting)
    est = languidity_probe(form, 0.5 + math.log(2.0) / math.log(1e308), heights)
    assert len(calls) <= len(heights) * (2.0 / period + 3.0)
    assert len(est.sample_heights) >= 8
