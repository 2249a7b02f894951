import cmath
import math
import numbers
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fractalzeta.dimensions import (
    LanguidityEstimate,
    Pole,
    Window,
    _is_complex,
    conjugate_closed,
    find_poles_argument_principle,
    languidity_probe,
    lattice_poles,
    residue_contour,
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
    _is_integer,
    _is_real,
)
from fractalzeta.zeta import ClosedFormZeta, catalog_zeta
from references import conjugate_closed_per_pole, residues_closed_form

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


def test_find_poles_splits_a_negative_winding_cell_that_hides_a_pair():
    # the unit cell holds the double pole at a and the pair of b with a zero
    # 0.24 away: W = -2 and the order circle about a winds -2, but M1 misses
    # the lone pole's -2 (a - c) by that pair's offset
    a, b = 0.3 + 0.2j, 0.7 + 0.6j
    poles = find_poles_argument_principle(lambda s: 1.0 / (s - a) ** 2 + 2.0 / (s - b), (0.0, 1.0, 0.0, 1.0))
    assert [p.order for p in poles] == [2, 1]
    assert abs(poles[0].location - a) < 1e-8 and abs(poles[1].location - b) < 1e-8
    assert abs(poles[0].residue) < 1e-9
    assert poles[1].residue == pytest.approx(2.0, rel=1e-9)


class _PointBudget:
    """Evaluator that raises after ``limit`` points, so a missing guard fails instead of hanging."""

    def __init__(self, f, limit=10**5):
        self.f, self.left = f, limit

    def __call__(self, s):
        self.left -= np.size(s)
        if self.left < 0:
            raise RuntimeError("evaluator point budget exhausted")
        return self.f(s)


@pytest.mark.parametrize("value", [math.nan, 0.0], ids=["nan", "zero"])
def test_an_evaluator_that_is_nan_or_zero_over_a_region_raises(value):
    # every cell is obstructed and split again: 202k cells walked in 8 s, and
    # past 1.7 GB in 5 min, before the budget of cells walked below the grid
    from fractalzeta.errors import NonIsolable

    evaluator = _PointBudget(lambda s: np.full(np.shape(s), value, dtype=complex), limit=10**6)
    with pytest.raises(NonIsolable, match="cells walked below the grid"):
        find_poles_argument_principle(evaluator, (0.0, 1.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "evaluator",
    [
        lambda s: 1.0,  # ran as the constant function 1, one call per point
        lambda s: np.ones(np.size(s) + 1, dtype=complex),
        lambda s: np.full(np.shape(s), "1"),
        lambda s: list(np.exp(s)),
    ],
    ids=["scalar", "wrong_shape", "strings", "list"],
)
def test_an_evaluator_that_does_not_return_a_numeric_array_of_its_shape_raises(evaluator):
    with pytest.raises(ValueError, match="evaluator"):
        find_poles_argument_principle(evaluator, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="evaluator"):
        residue_contour(evaluator, 0.5, 0.1)


def test_an_evaluator_error_propagates_unchanged():
    # a scalar math function on the finder's array raises TypeError inside the caller's code
    f = lambda s: 1.0 / (math.exp(s) - 2.0)
    with pytest.raises(TypeError):
        find_poles_argument_principle(f, (0.0, 1.0, -0.5, 0.5))
    with pytest.raises(TypeError):
        residue_contour(f, math.log(2.0), 0.1)


def test_a_scalar_function_in_np_vectorize_finds_the_poles_of_its_array_form():
    # the README's recipe for a function of one complex number
    p, q, tol = 0.3 + 0.4j, 0.7 + 0.2j, 1e-9
    scalar = np.vectorize(lambda s: cmath.exp(s) / ((s - p) * (s - q) ** 2), otypes=[complex])
    array = lambda s: np.exp(s) / ((s - p) * (s - q) ** 2)
    got = find_poles_argument_principle(scalar, (0.0, 1.0, 0.0, 1.0), tol)
    want = find_poles_argument_principle(array, (0.0, 1.0, 0.0, 1.0), tol)
    assert [w.order for w in got] == [w.order for w in want] == [1, 2]
    assert all(abs(g.location - w.location) <= tol for g, w in zip(got, want))


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
        ((0.0, 1e-3, 0.0, 2e5), {}),  # an area of 200, but a grid of 200,001 cells
        ((-0.5, 1.0, -3.0, 3.0), {"tol": True}),  # ran as tol=1.0
        ((-0.5, 1.0, -3.0, 3.0), {"moment_floor": True}),
    ],
    ids=[
        "reversed_re", "reversed_im", "empty_im", "nan_re", "inf_im", "tol_0", "tol_nan", "tol_inf",
        "floor_nan", "floor_negative", "cell_count", "thin_cell_count", "tol_bool", "floor_bool",
    ],
)
def test_find_poles_rejects_bad_input(rect, kwargs):
    evaluator = _PointBudget(catalog_zeta(CantorLike(), 0.5))
    with pytest.raises(ValueError):
        find_poles_argument_principle(evaluator, rect, **kwargs)


@pytest.mark.parametrize(
    "rect",
    [(1.0, 2.0, -1.0 + 0j, 1.0), (1.0, 2.0, -1.0), (1.0, 2.0, -1.0, 1.0, 0.0), (1.0, 2.0, "-1", 1.0), 2.0],
    ids=["complex_entry", "three_entries", "five_entries", "str_entry", "scalar"],
)
def test_find_poles_names_a_rect_that_is_not_four_real_numbers(rect):
    # a complex entry raised a bare TypeError, a wrong length an unpacking error
    evaluator = _PointBudget(catalog_zeta(SierpinskiGasket(), 0.5), limit=0)
    with pytest.raises(ValueError, match="rect"):
        find_poles_argument_principle(evaluator, rect)


@pytest.mark.parametrize(
    "omega, radius, named, known",
    [
        (math.nan, None, "omega", ()),
        (complex(0.0, math.inf), 0.1, "omega", ()),
        (0.0, math.nan, "radius", ()),
        (0.0, math.inf, "radius", ()),
        (0.0, -math.inf, "radius", ()),
        (0.0, None, "known_poles", (0.05, complex(math.nan, 0.05))),
        (0.0, None, "known_poles", (complex(0.05, -math.inf),)),
        (0.0, True, "radius", ()),
        (0.0, "0.1", "radius", ()),
        (0.0, [0.1], "radius", ()),
        (None, 0.1, "omega", ()),
        (0.0, None, "known_poles", [None]),
        (0.0, None, "known_poles", "12"),
        (0.0, None, "known_poles", 5),
    ],
    ids=[
        "omega_nan", "omega_inf", "radius_nan", "radius_inf", "radius_minus_inf", "known_nan", "known_inf",
        "radius_bool", "radius_str", "radius_list", "omega_none", "known_none", "known_str", "known_int",
    ],
)
def test_residue_contour_rejects_non_finite_input_before_evaluating(omega, radius, named, known):
    # radius nan or inf leaked two RuntimeWarnings, then failed converting NaN
    # to an integer; omega nan raised ContourContaminated; a NaN known pole was
    # dropped, so the default radius could enclose the pole it stood for;
    # radius True ran as 1.0, and the other types raised a bare TypeError
    evaluator = _PointBudget(catalog_zeta(SierpinskiGasket(), 0.5), limit=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            residue_contour(evaluator, omega, radius, known_poles=known)


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
        # a quiet walk reports no moment; its first moment is below the floor
        m1 = 0.0 if got[1] is None else got[1][0] * got[2]
        assert abs(m1 - want[1]) <= moment_floor, rect
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
        [(w, s, scale)] = _boundary_log_walks(f, [_rect_corners(0.0, 1.0, 0.0, 1.0)], 1e-6)
        assert w == 0 and scale == 1.0
        assert abs(s[0] - (z0 - p0)) <= 1e-9


def test_walk_returns_the_second_and_third_moments_of_a_pair():
    # s_k = (z0 - c)^k - (p0 - c)^k about the centroid c, k = 1..5, scaled by
    # the unit cell's L = 1; every walk past round 0 sums all five
    from fractalzeta.dimensions import _boundary_log_walks, _rect_corners

    rng = np.random.default_rng(4)
    c = 0.5 + 0.5j
    k = np.arange(1, 6)
    for _ in range(10):
        z0, p0 = rng.uniform(0.2, 0.8, 2) + 1j * rng.uniform(0.2, 0.8, 2)
        f = lambda s: (s - z0) / (s - p0) * np.exp(s)
        [(w, s, scale)] = _boundary_log_walks(f, [_rect_corners(0.0, 1.0, 0.0, 1.0)], 1e-6)
        assert w == 0 and scale == 1.0
        want = (z0 - c) ** k - (p0 - c) ** k
        assert np.abs(s - want)[:3].max() <= 1e-10
        assert np.abs(s - want).max() <= 1e-8
    # a lone pole at the centroid: every moment vanishes
    [(w, s, _)] = _boundary_log_walks(lambda s: 1.0 / (s - c), [_rect_corners(0.0, 1.0, 0.0, 1.0)], 1e-6)
    assert w == -1 and np.abs(s).max() <= 1e-8
    # a cell of side 1/8 about a pair: L = 1/8, the least power of 2 at or above its half-diagonal
    c = 0.3 + 0.4j
    z0, p0 = c + 0.02 + 0.01j, c - 0.01 + 0.03j
    f = lambda s: (s - z0) / (s - p0) * np.exp(s)
    [(w, s, scale)] = _boundary_log_walks(f, [_rect_corners(0.2375, 0.3625, 0.3375, 0.4625)], 1e-6)
    assert w == 0 and scale == 0.125
    assert np.abs(s - ((z0 - c) ** k - (p0 - c) ** k) / scale**k).max() <= 1e-8


def _count_walks(monkeypatch):
    from fractalzeta import dimensions

    levels = []
    walks = dimensions._boundary_log_walks

    def counting(f, polygons, moment_tol):
        levels.append(len(polygons))
        return walks(f, polygons, moment_tol)

    monkeypatch.setattr(dimensions, "_boundary_log_walks", counting)
    return levels


@pytest.mark.parametrize("separation", [1e-2, 1e-3, 2e-5])
def test_a_pair_is_resolved_in_its_unit_cell(monkeypatch, separation):
    # the pole of a zero-pole pair comes from the unit cell's moments;
    # bisecting the pair apart took 11 to 25 more walk levels
    levels = _count_walks(monkeypatch)
    p0 = 0.37 + 0.61j
    z0 = p0 + separation * np.exp(0.7j)
    poles = find_poles_argument_principle(
        lambda s: (s - z0) / (s - p0) * np.exp(s), (0.0, 1.0, 0.0, 1.0), tol=1e-9, moment_floor=1e-6
    )
    assert levels == [1]
    [pole] = poles
    assert pole.order == 1 and abs(pole.location - p0) <= 1e-9
    assert pole.residue == pytest.approx((p0 - z0) * np.exp(p0), rel=1e-8)


def test_a_quiet_walk_ends_after_its_first_round():
    # W = 0, and the Simpson M1 of the 96-, 48- and 24-segment walks is
    # about 1e-16: the walk ends on round 0's 96 samples
    from fractalzeta.dimensions import _boundary_log_walks, _rect_corners

    points = []

    def f(s):
        points.append(s.size)
        return np.exp(s)

    [(w, s, _)] = _boundary_log_walks(f, [_rect_corners(0.0, 1.0, 0.0, 1.0)], 1e-6)
    assert points == [96]
    assert w == 0 and s is None


@pytest.mark.parametrize("depth", [1e-2, 1e-4, 1e-7])
def test_a_pole_just_inside_an_edge_between_two_samples_is_found(depth):
    # the bottom edge's round-0 samples sit at k / 24; the pole is below none of them
    p = 7.5 / 24 + 1j * depth
    [pole] = find_poles_argument_principle(
        lambda s: np.exp(s) / (s - p), (0.0, 1.0, 0.0, 1.0), tol=1e-9, moment_floor=1e-6
    )
    assert pole.order == 1 and abs(pole.location - p) <= 1e-9
    assert pole.residue == pytest.approx(np.exp(p), rel=1e-9)


# a window of 3 x 2 grid cells; its lines from the finder's own layout
GRID_RECT = (0.0, 2.5, 0.0, 1.5)


def _grid():
    from fractalzeta.dimensions import _grid_lines

    return _grid_lines(0.0, 2.5, 3), _grid_lines(0.0, 1.5, 2)


def _simple_pole(p):
    def f(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(s) / (s - p)

    return f


def test_grid_round_zero_evaluates_each_corner_and_edge_once():
    # 17 edges (3 x 3 horizontal, 4 x 2 vertical) and 12 corners: the 23 inner
    # points of round 0 per edge and each corner once, not 96 per cell (576);
    # e^s has no pole or zero, so every cell ends quiet after round 0
    xs, ys = _grid()
    assert (len(xs), len(ys)) == (4, 3)
    points = []

    def f(s):
        points.extend(s.tolist())
        return np.exp(s)

    assert find_poles_argument_principle(f, GRID_RECT, tol=1e-9, moment_floor=1e-6) == []
    assert len(points) == 17 * 23 + 12
    assert len(set(points)) == len(points)


# over twice round 0's sample spacing of the grid's cells, a twelfth of a side under 1
_COARSE = 1.0 / 12.0


def _by_a_line(lines):
    return st.sampled_from(lines).flatmap(lambda line: st.floats(line - _COARSE, line + _COARSE))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(_by_a_line(_grid()[0]), st.floats(0.01, 2.49)),
    st.one_of(_by_a_line(_grid()[1]), st.floats(0.01, 1.49)),
    st.floats(-5.0, -2.0),
    st.floats(0.0, 2.0 * math.pi),
)
def test_a_pair_by_a_grid_edge_or_corner_is_found(x, y, log_separation, angle):
    # a pair at least 10 moment floors wide within two sample spacings of a
    # grid line (or two, by a corner), where round 0's walks resolve it worst:
    # the quiet test passes it on to the later rounds instead of ending it as quiet
    xs, ys = _grid()
    assume(min(abs(x - line) for line in xs) <= _COARSE or min(abs(y - line) for line in ys) <= _COARSE)
    p0 = complex(x, y)
    z0 = p0 + 10.0**log_separation * complex(math.cos(angle), math.sin(angle))
    # inside the window, 1e-6 off its outline, and on no line
    assume(all(1e-6 <= u.real <= 2.5 - 1e-6 and 1e-6 <= u.imag <= 1.5 - 1e-6 for u in (p0, z0)))
    assume(all(u.real not in xs and u.imag not in ys for u in (p0, z0)))

    def f(s):
        # Newton can land on p0 exactly
        with np.errstate(divide="ignore", invalid="ignore"):
            return (s - z0) / (s - p0) * np.exp(s)

    [pole] = find_poles_argument_principle(f, GRID_RECT, tol=1e-9, moment_floor=1e-6)
    assert pole.order == 1 and abs(pole.location - p0) <= 1e-9
    assert pole.residue == pytest.approx((p0 - z0) * np.exp(p0), rel=1e-8)


def test_grid_lines_are_shorter_than_one_and_off_the_equal_spacing():
    from fractalzeta.dimensions import _grid_lines

    for lo, hi, n in [(0.0, 2.0, 3), (-0.5, 3.5, 5), (-8.6, 8.6, 18), (0.0, 2.5, 3)]:
        lines = _grid_lines(lo, hi, n)
        sizes = np.diff(lines)
        assert lines[0] == lo and lines[-1] == hi and len(lines) == n + 1
        assert (sizes > 0).all() and (sizes < 1.0).all()
        # the middle of a symmetric window, where a real pole sits, is on no line
        assert min(abs(x - 0.5 * (lo + hi)) for x in lines) > 1e-3
    assert _grid_lines(0.0, 1.0, 1) == [0.0, 1.0]


@pytest.mark.parametrize("axis", ["vertical", "horizontal"])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["after", "before"])
def test_a_pole_by_an_interior_grid_line_is_found_once(axis, side):
    # 1e-7 off a line that two cells share: one cell holds it, the other's
    # walk refines past it, and the pole is listed once with its residue
    xs, ys = _grid()
    p = complex(xs[1] + side * 1e-7, 0.7) if axis == "vertical" else complex(1.1, ys[1] + side * 1e-7)
    [pole] = find_poles_argument_principle(_simple_pole(p), GRID_RECT, tol=1e-9, moment_floor=1e-6)
    assert pole.order == 1 and abs(pole.location - p) <= 1e-9
    assert pole.residue == pytest.approx(np.exp(p), rel=1e-9)


@pytest.mark.parametrize(
    "where", ["bottom", "left", "line_meets_bottom", "corner"],
)
def test_a_pole_on_the_outline_of_a_grid_window_raises(where):
    # the cells split about it, but it stays on the outline of one of them
    # down to the size floor, where the obstruction is the caller's
    xs, _ = _grid()
    p = {"bottom": 1.3, "left": 0.9j, "line_meets_bottom": complex(xs[1], 0.0), "corner": complex(2.5, 1.5)}[where]
    with pytest.raises(BoundaryPole):
        find_poles_argument_principle(_simple_pole(p), GRID_RECT, tol=1e-9, moment_floor=1e-6)


def test_a_pole_on_an_interior_grid_line_splits_its_cells(monkeypatch):
    # both cells split, and so do their halves along the line, down to the
    # size floor, where the obstruction is the caller's
    levels = _count_walks(monkeypatch)
    xs, _ = _grid()
    with pytest.raises(BoundaryPole):
        find_poles_argument_principle(_simple_pole(complex(xs[1], 0.7)), GRID_RECT, tol=1e-9, moment_floor=1e-6)
    assert len(levels) > 20 and levels[0] == 6


@pytest.mark.parametrize("line", ["grid", "split"])
def test_a_double_pole_on_a_cell_line_keeps_its_order(line):
    # its phase does not jump across the line, so each cell beside it winds -1
    # about half of it, which the finder listed as a simple pole
    p, rect = {
        "grid": (complex(_grid()[0][1], 0.7), GRID_RECT),
        "split": (0.3 + 0.5471398j, (0.0, 1.0, 0.0, 1.0)),  # the unit cell's second split
    }[line]

    def f(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(s) / (s - p) ** 2

    [pole] = find_poles_argument_principle(f, rect, tol=1e-9, moment_floor=1e-6)
    assert pole.order == 2 and abs(pole.location - p) <= 1e-9
    assert pole.principal_part[0] == pytest.approx(np.exp(p), rel=1e-8)


def _near(line):
    return st.floats(-1e-6, 1e-6).map(lambda d: line + d)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.floats(0.01, 2.49), _near(_grid()[0][1]), _near(_grid()[0][2])),
    st.one_of(st.floats(0.01, 1.49), _near(_grid()[1][1])),
)
# two ulps right of a line: its cell, below the moment floor, shows W = -1
# with moments smaller than the floor allows, which an empty cell once matched
@example(x=0.769672331458316, y=1.0)
def test_a_lone_pole_anywhere_in_a_grid_window_is_found(x, y):
    # anywhere in the cells, and within 1e-6 of the lines between them, but on none
    xs, ys = _grid()
    assume(x not in xs and y not in ys)
    p = complex(x, y)
    [pole] = find_poles_argument_principle(_simple_pole(p), GRID_RECT, tol=1e-9, moment_floor=1e-6)
    assert pole.order == 1 and abs(pole.location - p) <= 1e-9
    assert pole.residue == pytest.approx(np.exp(p), rel=1e-8)


@pytest.mark.parametrize("separation, found", [(5e-7, False), (1.2e-6, True), (2e-6, True), (4e-6, True)])
def test_a_pair_near_the_moment_floor(separation, found):
    # a pair closer than moment_floor cancels; one just past it is found
    p0 = 0.37 + 0.61j
    z0 = p0 + separation * np.exp(0.7j)
    poles = find_poles_argument_principle(
        lambda s: (s - z0) / (s - p0) * np.exp(s), (0.0, 1.0, 0.0, 1.0), tol=1e-9, moment_floor=1e-6
    )
    assert len(poles) == found
    for pole in poles:
        assert pole.order == 1 and abs(pole.location - p0) <= 1e-9
        assert pole.residue == pytest.approx((p0 - z0) * np.exp(p0), rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.02, 0.98),
    st.floats(0.02, 0.98),
    st.floats(1.1, 10.0),
    st.floats(0.0, 2.0 * math.pi),
)
def test_no_pair_past_the_moment_floor_ends_as_a_quiet_walk(x, y, ratio, angle):
    # the unit cell's walk hands the pair on with its moments, wherever it
    # sits, and the solver places its pole and zero well inside the
    # separation that Newton's basin spans
    from fractalzeta.dimensions import _boundary_log_walks, _moment_points, _rect_corners

    p0 = complex(x, y)
    z0 = p0 + ratio * 1e-6 * complex(math.cos(angle), math.sin(angle))
    f = lambda s: (s - z0) / (s - p0) * np.exp(s)
    [(w, s, scale)] = _boundary_log_walks(f, [_rect_corners(0.0, 1.0, 0.0, 1.0)], 1e-6)
    assert w == 0 and s is not None and abs(s[0] * scale - (z0 - p0)) <= 1e-8
    points, weights = _moment_points(w, s, 0.5e-6 / scale)
    assert list(weights) == [-1, 1]
    for got, want in zip(0.5 + 0.5j + scale * points, (p0, z0)):
        assert abs(got - want) <= 1e-2 * abs(z0 - p0)


def _pairs(*pairs):
    return lambda s: math.prod((s - z) / (s - p) for p, z in pairs) * np.exp(s)


# each a W = 0 unit cell that is not one pair; those with two pairs sit just
# past what a one-pair rule that checked M2 and M3 to _TAU let through
_TAU = 1e-6 / 64
_Z1 = 0.6165 + 0.003j
_CONTROLS = {
    "two_pairs": (_pairs((0.3 + 0.3j, 0.31 + 0.3j), (0.7 + 0.75j, 0.7 + 0.76j)), [(0.3 + 0.3j, 1), (0.7 + 0.75j, 1)]),
    # a second pair 3e-3 past the first one's zero, across the first split at
    # x = 0.618: a zero taken as p + M1 left it 0.8 tau in M2 and 1.23 tau in M3
    "two_pairs_across_the_first_split": (
        _pairs((_Z1 - 1e-3, _Z1), (_Z1 + 3e-3, _Z1 + 3e-3 + 1j * 0.8 * _TAU / 6e-3)),
        [(_Z1 - 1e-3, 1), (_Z1 + 3e-3, 1)],
    ),
    # a second pair whose pole sits 2e-3 past the first one's zero, across
    # the first split: a zero taken as p + M1 left it only d2 (p2 - z1) in M2
    # and M3, 0.5 and 0.8 tau; the zero found by Newton on f misses M1 by d2
    "second_pole_by_the_first_zero": (
        _pairs((_Z1 - 1e-3, _Z1), (_Z1 + 2e-3, _Z1 + 2e-3 + 2e-6j)),
        [(_Z1 - 1e-3, 1), (_Z1 + 2e-3, 1)],
    ),
    # a second pair 1e-3 from the cell's centre c moves M2 and M3 about c by
    # only 2 d2 (p2 - c) = 0.26 tau and less; only M1 sees it
    "second_pair_at_the_centre": (
        _pairs((0.3 + 0.3j, 0.31 + 0.3j), (0.501 + 0.5j, 0.501 + 0.5j + 2e-6j)),
        [(0.3 + 0.3j, 1), (0.501 + 0.5j, 1)],
    ),
    "double_pole_two_zeros": (
        lambda s: (s - 0.7 - 0.45j) * (s - 0.4 - 0.8j) / (s - 0.4 - 0.45j) ** 2 * np.exp(s),
        [(0.4 + 0.45j, 2)],
    ),
}


# a double pole with two zeros is three points: the solver settles it in the unit cell
_SETTLED_IN_THE_UNIT_CELL = {"double_pole_two_zeros"}


@pytest.mark.parametrize("name", sorted(_CONTROLS))
def test_a_unit_cell_that_is_not_one_pair_is_split(monkeypatch, name):
    from fractalzeta import dimensions

    f, want = _CONTROLS[name]
    verdicts = {}
    level_poles = dimensions._level_poles

    def spying(f, cells, walks, tol, moment_tol):
        level = level_poles(f, cells, walks, tol, moment_tol)
        verdicts.update(zip(cells, level))
        return level

    monkeypatch.setattr(dimensions, "_level_poles", spying)
    levels = _count_walks(monkeypatch)
    poles = find_poles_argument_principle(f, (0.0, 1.0, 0.0, 1.0), tol=1e-9, moment_floor=1e-6)
    if name in _SETTLED_IN_THE_UNIT_CELL:
        assert verdicts[(0.0, 1.0, 0.0, 1.0)] is not None and levels == [1]
    else:
        # two pairs: the polished points of the one the moments show miss the other's offset
        assert verdicts[(0.0, 1.0, 0.0, 1.0)] is None and len(levels) > 1
    assert len(poles) == len(want)
    for pole, (loc, order) in zip(poles, sorted(want, key=lambda w: (w[0].real, w[0].imag))):
        assert pole.order == order and abs(pole.location - loc) <= 1e-8
        # the contour residue of a pole stands against f's Laurent coefficient
        residue = residue_contour(f, loc, radius=1e-5 if order == 1 else 0.05)
        assert pole.residue == pytest.approx(residue, rel=1e-6, abs=1e-12)


def _scalar_newton(f, s, tol, zero, gap):
    # the one-point iteration as it ran before a level's points went in
    # lockstep; returns the point, or None, and the rounds it took
    for rounds in range(1, 81):
        h = min(1e-6 * (1.0 + abs(s)), 0.125 * gap)
        vals = f(np.array([s, s + h, s - h, s + 1j * h, s - 1j * h]))
        with np.errstate(divide="ignore", invalid="ignore"):
            gv = vals if zero else 1.0 / vals
        if not np.isfinite(gv).all():
            return None, rounds
        gp = 0.5 * ((gv[1] - gv[2]) / (2 * h) + (gv[3] - gv[4]) / (2j * h))
        if gp == 0:
            return None, rounds
        step = complex(-gv[0] / gp)
        s = s + step
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
            return None, rounds
        if abs(step) < 0.25 * tol:
            return s, rounds
    return None, 80


def test_a_newton_level_makes_one_evaluator_call_per_round(monkeypatch):
    # the grid level of the gasket window holds four poles over 1 apart, so in
    # four cells; every round evaluates the five points of each point still
    # iterating in one call, and each point lands where it did on its own
    from fractalzeta import dimensions

    form = catalog_zeta(SierpinskiGasket(), 0.5)
    sizes, levels = [], []
    evaluate, newton = ClosedFormZeta.evaluate, dimensions._newton_on_reciprocal

    def counting(self, s):
        sizes.append(np.size(s))
        return evaluate(self, s)

    def spying(f, starts, tol, zero, gap):
        first = len(sizes)
        polished = newton(f, starts, tol, zero, gap)
        levels.append((starts, tol, zero, gap, polished, sizes[first:]))
        return polished

    monkeypatch.setattr(ClosedFormZeta, "evaluate", counting)
    # __call__ is bound to the original evaluate when the class is created
    monkeypatch.setattr(ClosedFormZeta, "__call__", counting)
    monkeypatch.setattr(dimensions, "_newton_on_reciprocal", spying)
    poles = find_poles_argument_principle(form, (-0.5, 2.0, -10.0, 10.0), tol=1e-9, moment_floor=1e-6)
    assert len(poles) == 4
    starts, tol, zero, gap, polished, calls = levels[0]
    assert (~zero).sum() >= 4
    f = dimensions._vectorized(form)
    rounds = []
    for start, z, g, got in zip(starts, zero, gap, polished):
        want, r = _scalar_newton(f, complex(start), tol, z, g)
        assert (np.isnan(got) and want is None) or got == want
        rounds.append(r)
    assert calls == [5 * sum(r > k for r in rounds) for k in range(max(rounds))]


def _exact_residue(members, p):
    # f = e^s prod (s - u)^w; with g = (s - p)^order f, the residue at p is
    # g(p) for order 1 and g'(p) = g(p) (1 + sum w / (p - u)) for order 2
    order = -dict(members)[p]
    g = np.exp(p) * math.prod((p - u) ** w for u, w in members if u != p)
    return g if order == 1 else g * (1.0 + sum(w / (p - u) for u, w in members if u != p))


def _cluster(members):
    def f(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(s) * math.prod((s - u) ** w for u, w in members)

    return f


_P1 = 0.3 + 0.3j


@pytest.mark.parametrize(
    "members",
    [
        # once p1 is split off, the rest winds +1; the finder took it for a
        # cluster of zeros and listed p1 alone, its residue 12% off with p2
        # inside its contour (residues -6.21e-4 - 2.77e-4i and 2.40e-5 - 7.75e-5i)
        [(_P1, -1), (_P1 + 5e-4, 1), (_P1 + 1e-3, -1), (_P1 + 1e-3 + 1.2e-4j, 1)],
        # W = +2: at the moment floor the cell shows one point of weight +2
        [(0.8024915728257412 + 0.5595462731978135j, -1), (0.8026239979533524 + 0.5597367232436107j, 2),
         (0.8037142789785333 + 0.5595614589223704j, 1)],
    ],
    ids=["two_pairs_winding_plus_one", "pole_by_a_double_zero"],
)
def test_a_pole_among_zeros_with_positive_winding_is_found(members):
    poles = find_poles_argument_principle(_cluster(members), (0.0, 1.0, 0.0, 1.0))
    want = [u for u, w in members if w < 0]
    assert [p.order for p in poles] == [1] * len(want)
    for pole, p in zip(poles, want):
        assert abs(pole.location - p) <= 1e-9
        assert abs(pole.residue - _exact_residue(members, p)) <= 1e-8


@pytest.mark.parametrize(
    "p0, offset, floor",
    [
        (0.23821036887326405 + 0.9071542018076821j, 1.1015625e-6 * np.exp(3j), 1e-6),
        (0.828125 * (1 + 1j), 1.25e-6, 1e-6),
        (0.5113487597122465 + 0.9324451484728978j, 1.5e-7 * np.exp(-0.3j), 1e-7),
    ],
    ids=["oblique", "on_the_grid_of_h", "narrower_than_the_step"],
)
def test_a_black_box_pair_just_past_the_moment_floor_is_found(p0, offset, floor):
    # the first two returned []; the third is lost unless Newton's
    # finite-difference step, 1e-6 (1 + |s|), is capped below the pair's width
    z0 = p0 + offset
    [pole] = find_poles_argument_principle(
        lambda s: (s - z0) / (s - p0) * np.exp(s), (0.0, 1.0, 0.0, 1.0), tol=1e-9, moment_floor=floor
    )
    assert pole.order == 1 and abs(pole.location - p0) <= 1e-9
    assert abs(pole.residue - (p0 - z0) * np.exp(p0)) <= 1e-8


def _opposite_pairs(p1, z2, offset):
    # a pole with its zero at +offset, and a zero with its pole at +offset: s_1 = 0
    return [(p1, -1), (p1 + offset, 1), (z2, 1), (z2 + offset, -1)]


def _assert_finds_exactly(members, poles):
    want = [u for u, w in members if w < 0]
    assert len(poles) == len(want)
    for p in want:
        [pole] = [q for q in poles if abs(q.location - p) <= 1e-9]
        assert pole.order == 1
        residue = _exact_residue(members, p)
        assert abs(pole.residue - residue) <= 1e-8 * abs(residue)


@pytest.mark.parametrize("floor", [None, 1e-6])
@pytest.mark.parametrize("offset", [1e-3, 1e-2, 5e-2])
def test_two_pairs_that_cancel_in_the_first_moment_are_found(offset, floor):
    # the quiet exit read only s_1 = offset - offset = 0 and returned []; the
    # second moment about the centroid, 2 offset (p1 - z2), is far above the floor
    members = _opposite_pairs(0.3 + 0.3j, 0.7 + 0.7j, offset)
    poles = find_poles_argument_principle(_cluster(members), (0.0, 1.0, 0.0, 1.0), moment_floor=floor)
    _assert_finds_exactly(members, poles)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-4.0, -2.0),
    st.floats(0.0, 2.0 * math.pi),
)
def test_two_pairs_that_cancel_in_the_first_moment_are_found_anywhere(x1, y1, x2, y2, log_offset, angle):
    # pair centres in [0.15, 0.85]^2, mapped from [0, 1] as in the cluster
    # test below, at least 0.1 apart; three or more pairs that cancel in
    # both s_1 and s_2 can still end quiet
    offset = 10.0**log_offset * complex(math.cos(angle), math.sin(angle))
    c1, c2 = (complex(0.15 + 0.7 * x, 0.15 + 0.7 * y) for x, y in ((x1, y1), (x2, y2)))
    assume(abs(c1 - c2) >= 0.1)
    members = _opposite_pairs(c1 - 0.5 * offset, c2 - 0.5 * offset, offset)
    poles = find_poles_argument_principle(_cluster(members), (0.0, 1.0, 0.0, 1.0), tol=1e-9, moment_floor=1e-6)
    _assert_finds_exactly(members, poles)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-3.0, -1.0),
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi), st.sampled_from([-2, -1, 1, 2])),
        min_size=1,
        max_size=3,
    ),
)
def test_a_cluster_of_zeros_and_poles_gives_exactly_its_poles(x, y, log_radius, draws):
    # up to three zeros and poles of order 1 or 2 in a disc of radius 1e-3
    # to 1e-1 about a centre in [0.15, 0.85]^2, no two closer than a
    # twentieth of the radius; hypothesis also draws the finder's own
    # constants, and its split fraction 0.5471398 as a coordinate puts a
    # pole on a cell line, which raises BoundaryPole (as a pole on a grid
    # line does), so the centre is mapped from [0, 1]
    radius = 10.0**log_radius
    centre = complex(0.15 + 0.7 * x, 0.15 + 0.7 * y)
    members = [(centre + radius * math.sqrt(r) * complex(math.cos(a), math.sin(a)), w) for r, a, w in draws]
    assume(all(abs(u - v) >= radius / 20 for i, (u, _) in enumerate(members) for v, _ in members[:i]))
    poles = find_poles_argument_principle(_cluster(members), (0.0, 1.0, 0.0, 1.0), tol=1e-9, moment_floor=1e-6)
    want = sorted((u for u, w in members if w < 0), key=lambda u: (round(u.real / 1e-6), round(u.imag / 1e-6)))
    assert len(poles) == len(want)
    for pole, p in zip(poles, want):
        assert pole.order == -dict(members)[p] and abs(pole.location - p) <= 1e-9
        residue = _exact_residue(members, p)
        assert abs(pole.residue - residue) <= 1e-8 * max(1.0, abs(residue))


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


@pytest.mark.parametrize("periods_up", [10, 30, 100, 300])
@pytest.mark.parametrize(
    "set_, delta, re_range",
    [
        (SierpinskiGasket(), 0.5, (-0.5, 2.0)),
        (SierpinskiCarpet3D(), 0.25, (-0.5, 3.5)),
        (CantorLike(), 0.5, (-0.5, 1.0)),
        (FractalStringBoundary.cantor_string(), 1.0 / 3.0, (-0.5, 1.0)),
    ],
    ids=["gasket", "carpet", "cantor", "cantor_string"],
)
def test_lattice_poles_high_up_are_found_to_rounding(set_, delta, re_range, periods_up):
    form = catalog_zeta(set_, delta)
    period = min(form.lattice_periods())
    # three periods tall, from half a period below the row periods_up, so no pole is on the outline;
    # the carpet's zero-pole pairs are 2.4e-8 apart at 300 periods up, so the floor is below that
    lo = (periods_up - 0.5) * period
    poles = find_poles_argument_principle(form, (*re_range, lo, lo + 3.0 * period), tol=1e-9, moment_floor=1e-8)
    want = form.poles_near([(periods_up + 1) * period], 1.5 * period)
    assert len(poles) == len(want) == 3
    for pole, (w, _) in zip(poles, want):
        assert pole.order == 1 and abs(pole.location - w) <= 1e-15 * abs(w)
        # the contour's rounding leaves up to 1.4e-18 absolute (the carpet's residues are 4e-11 at
        # 300 periods up), the same with the closed form's exact derivative in Newton
        residue = form.residue_at(w)
        assert abs(pole.residue - residue) <= 1e-12 * abs(residue) + 1e-17


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


@pytest.mark.parametrize("other, contaminated", [(1.1001, True), (1.3, False)])
def test_a_principal_part_by_another_pole_is_contaminated(other, contaminated):
    # a fixed 512-node circle gave (0.850, -1.497) for (1, 0) with the other pole at 1.1001
    from fractalzeta.dimensions import _ring_residues, _vectorized

    f = _vectorized(lambda s: 1.0 / (s - 1.0) ** 2 + 1.0 / (s - other))
    if contaminated:
        with pytest.raises(ContourContaminated):
            _ring_residues(f, [1.0], [0.1], [2])
    else:
        [(c2, c1)] = _ring_residues(f, [1.0], [0.1], [2])
        assert abs(c2 - 1.0) <= 1e-14 and abs(c1) <= 1e-14


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


def test_conjugate_closed_rejects_what_is_not_a_sequence_of_poles():
    ps = [Pole(1 - 2j, residue=1 - 1j), Pole(1 + 2j, residue=1 + 1j), Pole(5 + 1j, residue=1.0)]
    assert not conjugate_closed(ps)
    # a generator was consumed by the scan for the first pole's match, and came out True
    with pytest.raises(ValueError):
        conjugate_closed(p for p in ps)
    # bare numbers raised an AttributeError
    with pytest.raises(ValueError):
        conjugate_closed([1 + 2j, 1 - 2j])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8))
def test_conjugate_closed_equals_the_per_pole_scan(seed, n):
    # partners at 0.9e-9 and 1.1e-9 from the conjugate, residues off by 1e-8 of their scale, and poles
    # near the real axis, within and past 1e-9 of it
    rng = np.random.default_rng(seed)
    poles = []
    for _ in range(n):
        w = complex(rng.uniform(-3, 3), rng.choice([rng.uniform(-40, 40), 0.0, 0.9e-9, 1.1e-9]))
        c = complex(rng.normal(), rng.normal()) * 10.0 ** rng.uniform(-3, 3)
        poles.append(Pole(w, residue=c if rng.random() < 0.9 else None))
        if rng.random() < 0.8:
            shift = rng.choice([0.0, 0.9e-9, 1.1e-9]) * np.exp(2j * np.pi * rng.random())
            scale = max(1.0, abs(c))
            dc = rng.choice([0.0, 0.9e-8, 1.1e-8]) * scale * np.exp(2j * np.pi * rng.random())
            poles.append(Pole(w.conjugate() + complex(shift), residue=c.conjugate() + complex(dc)))
    order = rng.permutation(len(poles))
    poles = [poles[i] for i in order]
    assert conjugate_closed(poles) == conjugate_closed_per_pole(poles)
    assert conjugate_closed(tuple(poles)) == conjugate_closed_per_pole(poles)


@pytest.mark.parametrize(
    "check, abc", [(_is_real, numbers.Real), (_is_integer, numbers.Integral), (_is_complex, numbers.Complex)]
)
def test_number_checks_keep_the_abc_truth_table(check, abc):
    values = [
        1.5, 2, True, False, np.float64(1.5), np.int64(2), np.bool_(True), Fraction(1, 3), Decimal("1.5"),
        1 + 2j, np.complex128(1 + 2j), "1", None, math.inf, math.nan,
    ]
    for v in values:
        assert check(v) == (isinstance(v, abc) and not isinstance(v, bool)), v


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


def test_languidity_rejects_a_function_that_is_not_a_closed_form():
    # a black box lists no poles, so the fit would run across them unseen
    with pytest.raises(ValueError, match="ClosedFormZeta"):
        languidity_probe(lambda s: np.ones(np.shape(s), dtype=complex), 1.0, HEIGHTS)


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
