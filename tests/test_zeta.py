import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalzeta.errors import (
    DeltaTooSmall,
    FractalZetaError,
    NearPole,
    NoClosedForm,
    NotAPole,
    VarianceOverflow,
)
from fractalzeta.geometry import (
    CantorLike,
    CompactSet,
    FractalStringBoundary,
    PointCloud,
    PointSet,
    SierpinskiCarpet3D,
    SierpinskiGasket,
)
from fractalzeta.zeta import (
    ClosedFormZeta,
    ElementaryTerm,
    LatticeTerm,
    NumericZetaConfig,
    catalog_zeta,
    closed_form_eval,
    default_delta,
    distance_zeta_numeric,
    functional_equation_residual,
    tube_zeta_numeric,
)
from references import scale_zeta, zeta_from_json, zeta_to_json

SQRT3 = math.sqrt(3.0)


def cfg_for(set_, seed=101, mc=100_000, delta=None):
    return NumericZetaConfig(
        delta=delta if delta is not None else default_delta(set_),
        seed=seed,
        mc_samples=mc,
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_gasket_closed_form_value_at_2():
    form = catalog_zeta(SierpinskiGasket(), 1.0)
    val = closed_form_eval(form, 2.0)
    assert val.real == pytest.approx(SQRT3 / 4.0 + math.pi + 3.0, rel=1e-14)
    assert val.imag == pytest.approx(0.0, abs=1e-14)


def test_point_form_value():
    form = catalog_zeta(PointSet([[0.0]]), 1.0)
    assert closed_form_eval(form, 1.0) == pytest.approx(2.0)
    assert closed_form_eval(form, 2.0) == pytest.approx(1.0)


def test_carpet_residue_structure():
    form = catalog_zeta(SierpinskiCarpet3D(), 0.25)
    assert form.residue_at(2.0).real == pytest.approx(96.0 / 17.0, rel=1e-14)
    assert form.residue_at(1.0).real == pytest.approx(6.0 * math.pi + 24.0 / 23.0, rel=1e-14)
    assert form.residue_at(0.0).real == pytest.approx(4.0 * math.pi - 24.0 / 25.0, rel=1e-14)


def test_cantor_string_closed_form_matches_identity():
    form = catalog_zeta(FractalStringBoundary.cantor_string(), 0.5)
    for s in [2.0 + 0.0j, 1.3 - 0.7j, 0.9 + 2.2j]:
        expected = 2.0 ** (1 - s) / (s * (3.0**s - 2.0)) + 2.0 * 0.5**s / s
        assert closed_form_eval(form, s) == pytest.approx(expected, rel=1e-13)


def test_cantor_like_closed_form_against_gap_series():
    # independent check: sum the gap contributions level by level
    c = CantorLike(ratio=0.3, scale=1.5)
    delta = 0.9
    form = catalog_zeta(c, delta)
    s = 2.0 + 0.3j
    total = 2.0 * delta**s / s
    for n in range(1, 200):
        gap = (1.0 - 2.0 * c.ratio) * c.ratio ** (n - 1) * c.scale
        total += 2 ** (n - 1) * 2.0 * (gap / 2.0) ** s / s
    assert closed_form_eval(form, s) == pytest.approx(total, rel=1e-12)


def test_explicit_string_closed_form():
    st = FractalStringBoundary(lengths=(0.5, 0.25, 0.25))
    form = catalog_zeta(st, 0.5)
    s = 1.7 - 0.4j
    expected = 2.0 ** (1 - s) * (0.5**s + 2 * 0.25**s) / s + 2.0 * 0.5**s / s
    assert closed_form_eval(form, s) == pytest.approx(expected, rel=1e-13)


def test_multiplicity_one_string_has_no_simple_pole_form():
    st = FractalStringBoundary(base=2.0, multiplicity=1, scale=1.0)
    with pytest.raises(NoClosedForm):
        catalog_zeta(st, 1.0)
    with pytest.raises(ValueError):
        # root 0 coincides with the lattice pole when r = 1
        LatticeTerm(2.0, 2.0, (0.0,), (2.0, 1.0))


def test_catalog_delta_bounds_enforced():
    with pytest.raises(DeltaTooSmall):
        catalog_zeta(SierpinskiGasket(), 0.1)
    with pytest.raises(DeltaTooSmall):
        catalog_zeta(SierpinskiCarpet3D(), 0.16)
    with pytest.raises(DeltaTooSmall):
        catalog_zeta(FractalStringBoundary.cantor_string(), 0.16)
    with pytest.raises(DeltaTooSmall):
        catalog_zeta(CantorLike(), 0.1)
    with pytest.raises(DeltaTooSmall):
        catalog_zeta(PointSet([[0.0], [1.0]]), 0.7)
    with pytest.raises(NoClosedForm):
        catalog_zeta(PointCloud([[0.0, 0.0]]))
    # the finite check on delta comes first, and a bool or a string is no delta
    for delta in (math.nan, True, "1"):
        with pytest.raises(ValueError):
            catalog_zeta(PointCloud([[0.0, 0.0]]), delta)
        with pytest.raises(ValueError):
            catalog_zeta(SierpinskiGasket(), delta)


def test_poles_near_checks_its_ordinates_and_reach():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    # a NaN reach or an infinite ordinate asked for over 10^6 lattice poles, a negative reach listed none
    for ordinates, reach in (([10.0], math.nan), ([math.inf], 1.0), ([10.0], -1.0), ([10.0], True), (["10"], 1.0)):
        with pytest.raises(ValueError, match="ordinates and reach"):
            form.poles_near(ordinates, reach)
    assert form.poles_near([], 1.0) == []
    assert form.poles_near(np.array([9.0, 10.0]), 1.0) == form.poles_near([9.0, 10.0], 1.0) != []


def test_delta_exactly_at_each_closed_form_bound():
    # Cantor sets and point sets accept their bound, the others reject it
    cantor = CantorLike()
    assert catalog_zeta(cantor, cantor.largest_gap / 2.0).delta == cantor.largest_gap / 2.0
    with pytest.raises(DeltaTooSmall):
        catalog_zeta(cantor, math.nextafter(cantor.largest_gap / 2.0, 0.0))
    pair = PointSet([[0.0, 0.0], [1.0, 0.5]])
    assert catalog_zeta(pair, pair.min_gap / 2.0).delta == pair.min_gap / 2.0
    with pytest.raises(DeltaTooSmall):
        catalog_zeta(pair, math.nextafter(pair.min_gap / 2.0, math.inf))
    strict = [
        (SierpinskiGasket(), 1.0 / (4.0 * SQRT3)),
        (SierpinskiCarpet3D(), 1.0 / 6.0),
        (FractalStringBoundary.cantor_string(), 1.0 / 6.0),
        (FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.125)), 0.25),
    ]
    for set_, bound in strict:
        with pytest.raises(DeltaTooSmall):
            catalog_zeta(set_, bound)
        assert catalog_zeta(set_, math.nextafter(bound, math.inf)).delta > bound


def test_catalog_zeta_builds_the_closed_form_of_a_new_descriptor():
    # a set known to no module of the package: its zeta_terms alone give it a closed form
    class MiddleThirds(CompactSet):
        ambient_dim = 1
        default_delta = 0.5

        def zeta_terms(self, delta):
            return ((2.0, 2.0, (0.0,), (3.0, 2.0)),), ((2.0, 0, 0.0),)

    form = catalog_zeta(MiddleThirds())
    assert form == ClosedFormZeta(1, 0.5, (LatticeTerm(2.0, 2.0, (0.0,), (3.0, 2.0)),), (ElementaryTerm(2.0, 0, 0.0),))
    s = 1.3 + 0.7j
    expected = 2.0 * 2.0**-s / (s * (3.0**s - 2.0)) + 2.0 * 0.5**s / s
    assert closed_form_eval(form, s) == pytest.approx(expected, rel=1e-14)
    assert closed_form_eval(form, s) == pytest.approx(closed_form_eval(catalog_zeta(CantorLike(), 0.5), s), rel=1e-14)
    # s = 0 cancels, as for the Cantor string
    assert [w for w, _ in form.poles(1.0)] == [complex(math.log(2.0) / math.log(3.0))]


def test_closed_form_rejects_non_finite_s():
    # these raised a bare OverflowError or ValueError from round(), or returned inf at NaN
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    for bad in (1j * math.inf, complex(0.0, math.nan), math.nan, complex(-math.inf, 1.0)):
        for method in (form.evaluate, form, form.nearest_pole_distance, form.residue_at):
            with pytest.raises(ValueError, match="finite"):
                method(bad)
    with pytest.raises(ValueError, match="finite"):
        form.evaluate(np.array([2.0, 2.5, math.inf]))


def test_near_pole_guard():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    with pytest.raises(NearPole):
        closed_form_eval(form, 0.0 + 1e-13j)
    # the removable point s=1 is not a pole: evaluation succeeds there
    val = form.evaluate(1.0 + 0.0j)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_near_pole_guard_at_every_kind_of_pole():
    # a lattice pole, a denominator root and an elementary pole, each genuine
    gasket = catalog_zeta(SierpinskiGasket(), 0.5)
    lattice = next(w for w, _ in gasket.poles(20.0) if w.imag > 10.0)
    own = ClosedFormZeta(1, 0.5, (LatticeTerm(1.0, 1.0, (0.5,), None),), (ElementaryTerm(1.0, 0, 0.25),))
    for form, pole in [(gasket, lattice), (own, 0.5), (own, 0.25)]:
        for offset in (0.0, 5e-13, -5e-13j):
            with pytest.raises(NearPole):
                closed_form_eval(form, pole + offset)
        assert cmath.isfinite(closed_form_eval(form, pole + 2e-12))
    # the gasket's removable point s = 1, a candidate of two terms, is filled by its limit
    assert closed_form_eval(gasket, 1.0) == gasket.evaluate(1.0)
    assert cmath.isfinite(closed_form_eval(gasket, 1.0 + 5e-13))


def test_closed_form_overflow_raises_not_a_pole():
    # far left of every pole the gasket form overflows; that is no pole
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FractalZetaError):
            closed_form_eval(form, -1000.0)


def test_removable_point_limit_is_continuous():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    at_one = form.evaluate(1.0 + 0.0j)
    near_one = form.evaluate(1.0 + 1e-6 + 0.0j)
    assert abs(at_one - near_one) < 1e-4 * max(1.0, abs(at_one))


def test_pole_listing_drops_cancelled_candidates():
    gasket = catalog_zeta(SierpinskiGasket(), 0.5)
    locs = [w for w, _ in gasket.poles(20.0)]
    assert not any(abs(w - 1.0) < 1e-6 for w in locs)  # residues cancel at s=1
    assert any(abs(w) < 1e-12 for w in locs)
    string = catalog_zeta(FractalStringBoundary.cantor_string(), 0.5)
    locs = [w for w, _ in string.poles(10.0)]
    assert not any(abs(w) < 1e-6 for w in locs)  # s=0 cancels for the string boundary


def test_zeta_json_round_trip():
    for set_, delta in [
        (SierpinskiGasket(), 0.5),
        (SierpinskiCarpet3D(), 0.25),
        (FractalStringBoundary(lengths=(0.5, 0.25)), 0.5),
        (PointSet([[0.0]]), 1.0),
    ]:
        form = catalog_zeta(set_, delta)
        again = zeta_from_json(json.loads(json.dumps(zeta_to_json(form))))
        assert again == form


def test_config_validation():
    with pytest.raises(ValueError):
        NumericZetaConfig(delta=1.0, seed=1, mc_samples=10)
    with pytest.raises(ValueError):
        NumericZetaConfig(delta=-1.0, seed=1)


def test_config_rejects_non_integer_mc_samples():
    # 2e4 raised a bare TypeError from range() once sampling started
    for bad in (2e4, 1e6, True, "20000"):
        with pytest.raises(ValueError):
            NumericZetaConfig(delta=1.0, seed=1, mc_samples=bad)
    assert NumericZetaConfig(delta=1.0, seed=1, mc_samples=np.int64(20_000)).mc_samples == 20_000


def test_config_rejects_non_finite_delta_and_bad_seed():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            NumericZetaConfig(delta=bad, seed=1)
    for bad in (-1, 1.5):
        with pytest.raises(ValueError):
            NumericZetaConfig(delta=1.0, seed=bad)
    assert NumericZetaConfig(delta=1.0, seed=np.int64(3)).seed == 3


def test_config_rejects_delta_that_is_not_a_real_number():
    # True ran as delta = 1 and "0.5" raised a bare TypeError from math.isfinite
    for bad in (True, "0.5", None, 1j):
        with pytest.raises(ValueError):
            NumericZetaConfig(delta=bad, seed=1)
    assert NumericZetaConfig(delta=np.float64(0.5), seed=1).delta == 0.5


def test_catalog_zeta_rejects_non_finite_delta():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            catalog_zeta(SierpinskiGasket(), bad)


# ---------------------------------------------------------------------------
# numeric evaluators
# ---------------------------------------------------------------------------


def test_distance_zeta_point_exact_values():
    ps = PointSet([[0.0]])
    cfg = cfg_for(ps, delta=1.0)
    est1 = distance_zeta_numeric(ps, 1.0 + 0.0j, cfg)
    assert abs(est1.value - 2.0) <= max(3.0 * est1.half_width, 1e-12)
    est2 = distance_zeta_numeric(ps, 2.0 + 0.0j, cfg)
    assert est2.half_width > 0
    assert abs(est2.value - 1.0) <= 3.0 * est2.half_width


def test_tube_zeta_point_analytic():
    ps = PointSet([[0.0]])
    cfg = cfg_for(ps, delta=1.0)
    assert tube_zeta_numeric(ps, 1.0 + 0.0j, cfg) == pytest.approx(2.0, rel=1e-6)
    assert tube_zeta_numeric(ps, 2.0 + 0.0j, cfg) == pytest.approx(1.0, rel=1e-6)


def test_monte_carlo_cross_validates_closed_forms():
    gas = SierpinskiGasket()
    cfg = cfg_for(gas, mc=200_000)
    form = catalog_zeta(gas, cfg.delta)
    for s in [2.5 + 0.0j, 2.2 + 1.0j]:
        est = distance_zeta_numeric(gas, s, cfg)
        assert abs(est.value - closed_form_eval(form, s)) <= 3.0 * est.half_width
    car = SierpinskiCarpet3D()
    cfg_c = cfg_for(car, mc=200_000)
    form_c = catalog_zeta(car, cfg_c.delta)
    est = distance_zeta_numeric(car, 4.0 + 0.0j, cfg_c)
    assert abs(est.value - closed_form_eval(form_c, 4.0 + 0.0j)) <= 3.0 * est.half_width


def test_variance_overflow_below_abscissa():
    c = CantorLike()
    cfg = cfg_for(c, seed=4, mc=100_000, delta=0.5)
    with pytest.raises(VarianceOverflow):
        distance_zeta_numeric(c, 0.2 + 0.0j, cfg)


def test_variance_overflow_below_abscissa_carpet():
    # 2e5 samples here returned 1.02 + 2.16i against the closed form's 0.77 + 0.44i
    carpet = SierpinskiCarpet3D()
    with pytest.raises(VarianceOverflow):
        distance_zeta_numeric(carpet, 2.8 - 4j, cfg_for(carpet, seed=12345, mc=200_000))


def test_monte_carlo_zeta_past_the_float_range_is_an_error():
    # each leaked an overflow RuntimeWarning and returned inf or nan
    cantor = CantorLike(ratio=0.25, scale=2.5)
    for s in (1e308, 1e30):
        with pytest.raises(FractalZetaError, match="overflows a float"):
            distance_zeta_numeric(cantor, s, cfg_for(cantor, mc=1000))
    with pytest.raises(ValueError, match="too large"):
        distance_zeta_numeric(cantor, 2.5, cfg_for(cantor, mc=1000, delta=1e308))
    big = CantorLike(scale=1e308)
    with pytest.raises(ValueError, match="too large"):
        distance_zeta_numeric(big, 2.5, cfg_for(big, mc=1000))


def test_pole_listing_rejects_unbounded_band():
    form = catalog_zeta(SierpinskiGasket())
    # nan used to report "more than 1000000 lattice poles", -1.0 listed none and True counted as 1
    for band in (math.inf, math.nan, -1.0, True):
        with pytest.raises(ValueError, match="imag_band"):
            form.poles(band)
    with pytest.raises(ValueError, match="more than"):
        form.poles(1e308)


def test_quadrature_nonconvergent_at_unreachable_tolerance(monkeypatch):
    from fractalzeta import zeta
    from fractalzeta.errors import QuadratureNonconvergent

    # below the unit roundoff: the passes would have to agree to the last bit
    monkeypatch.setattr(zeta, "_RTOL", 1e-17)
    monkeypatch.setattr(zeta, "_MAX_REFINEMENTS", 3)
    c = CantorLike()
    cfg = cfg_for(c, delta=0.5)
    with pytest.raises(QuadratureNonconvergent):
        tube_zeta_numeric(c, 1.4 + 0.3j, cfg)


def _panel_loop_tops(set_, delta):
    # ln delta, then ln of the first breakpoint in each stretch of 0.5 in u down from the
    # first below delta, from the full listing of volume_breaks
    tops = [math.log(delta)]
    if set_.exact_max >= delta:
        breaks = set_.volume_breaks(1e-280)
        us = np.log(breaks[breaks < delta]).tolist()
        last = -1
        for u in us:
            stretch = math.floor((us[0] - u) / 0.5)
            if stretch > last and u < tops[0]:
                tops.append(u)
            last = stretch
    return tops


def _tube_zeta_panel_loop(set_, s, cfg, rtol=1e-6, max_refinements=9):
    # the quadrature as it ran before block evaluation: one panel and 16
    # scalar tube volumes at a time, stopping quietly at the 1e-280 floor;
    # with exact volumes up to delta, pass j splits each interval between
    # breakpoints of |A_t| into 2^j ceil(L / 2) equal panels, the breakpoints
    # being the first in each stretch of 0.5 in u down from the first below delta
    from fractalzeta.geometry import tube_volume

    x, w = np.polynomial.legendre.leggauss(16)
    tail_tol = min(1e-9, 1e-3 * rtol)
    tops = _panel_loop_tops(set_, cfg.delta)

    def panels(panel_width):
        """(top, bottom, width) of each panel of a pass, down from delta."""
        for top, bottom in zip(tops, tops[1:]):
            count = int(math.ceil(0.5 * (top - bottom)) * (2.0 / panel_width))
            step = (top - bottom) / count
            for k in range(count):
                yield top - k * step, bottom if k == count - 1 else top - (k + 1) * step, step
        u_top = tops[-1]
        for _ in range(int(math.ceil(1200.0 / panel_width))):
            yield u_top, u_top - panel_width, panel_width
            u_top -= panel_width

    def integrate(panel_width):
        acc = 0.0 + 0.0j
        quiet = 0
        for u_top, u_bot, width in panels(panel_width):
            um = 0.5 * (u_top + u_bot)
            uh = 0.5 * (u_top - u_bot)
            u = um + uh * x
            vols = np.array([tube_volume(set_, math.exp(ui)).volume for ui in u])
            vals = np.exp((s - set_.ambient_dim) * u) * vols
            contrib = uh * np.sum(w * vals)
            acc += contrib
            if abs(contrib) <= tail_tol * width * max(abs(acc), 1e-300):
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0
            if u_bot < math.log(1e-280):
                break
        return acc

    width = 2.0
    prev = integrate(width)
    for _ in range(max_refinements):
        width *= 0.5
        cur = integrate(width)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise AssertionError("reference quadrature did not converge")


@settings(max_examples=300, deadline=None)
@given(u=st.floats(math.log(1e-280) - 2.0, 709.0))
def test_complex_exp_on_the_real_axis_is_libm_exp(u):
    # the quadrature's node radii rest on this: numpy's complex exp calls the C
    # library's cexp, which returns exp(u) * cos(0) up to u = 709
    assert np.exp(np.array([u]) + 0j).real[0].hex() == math.exp(u).hex()


def test_node_radii_are_libm_exp_bit_for_bit():
    from fractalzeta.zeta import _libm_exp

    rng = np.random.default_rng(7)
    top = math.log(np.finfo(float).max)
    for lo, hi in [(math.log(1e-280) - 2.0, 0.0), (0.0, 709.0), (708.0, 709.1), (709.0, top)]:
        u = rng.uniform(lo, hi, 20_000)
        want = np.array([math.exp(v) for v in u.tolist()])
        assert _libm_exp(u).tobytes() == want.tobytes()
        assert _libm_exp(u.reshape(100, 200)).tobytes() == want.tobytes()


def _spy_block_sizes(monkeypatch) -> list:
    """Record the panels (rows of radii) of each node array the quadrature evaluates."""
    from fractalzeta import zeta

    sizes = []
    contributions = zeta._panel_contributions

    def spy(runs, *args):
        sizes.append(sum(edges.size - 1 for edges in runs))
        return contributions(runs, *args)

    monkeypatch.setattr(zeta, "_panel_contributions", spy)
    return sizes


def test_block_quadrature_equals_panel_loop(monkeypatch):
    # at these s, node radii from numpy's exp in place of libm's change the last bit
    for set_, s in [
        (CantorLike(), 1.29 - 5.6j),
        (FractalStringBoundary.cantor_string(), 1.3 + 0.5j),
        (SierpinskiGasket(), 2.49 + 6.96j),
        (SierpinskiCarpet3D(), 3.59 + 7.27j),
        (PointSet([[0.2]]), 0.97 + 6.24j),
    ]:
        cfg = cfg_for(set_)
        assert tube_zeta_numeric(set_, s, cfg) == _tube_zeta_panel_loop(set_, s, cfg)
    # gap breakpoints, with a block that runs from the last of them into the uniform
    # panels, and breakpoints closer than 0.5 in u, of which only some get an edge
    for set_, s in [
        (FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.125)), 0.5 + 2.0j),
        (PointSet([[0.0], [0.3], [1.0]]), 0.4 - 1.5j),
        (FractalStringBoundary(lengths=(0.5, 0.45, 0.3, 0.29, 0.1)), 0.7 - 1.0j),
        (FractalStringBoundary(base=1.5, multiplicity=1), 0.8 + 2.0j),
    ]:
        cfg = NumericZetaConfig(delta=1.0, seed=1)
        assert tube_zeta_numeric(set_, s, cfg) == _tube_zeta_panel_loop(set_, s, cfg)
    # nodes above u = 709, where the C library's cexp scales by exp(709) and so
    # differs from libm's exp in the last bit
    point, cfg = PointSet([[0.3]]), NumericZetaConfig(delta=8.98e307, seed=1)
    assert tube_zeta_numeric(point, 0.97 + 6.24j, cfg) == _tube_zeta_panel_loop(point, 0.97 + 6.24j, cfg)
    # the first pass opens where a tail falling like t^(Re s - D) is below the stop
    # threshold, plus 3 panels; the second opens with twice that plus 4, and both
    # openings are one node array
    sizes = _spy_block_sizes(monkeypatch)
    for set_, s, blocks in [
        # D = 0: the tail falls below the threshold 145.5 below ln delta, in panel 73, so the
        # passes open with 76 and 156 panels and stop at panels 67 and 146
        (PointSet([[0.2]]), 0.15 + 3.0j, [232]),
        # the carpet's breakpoints are ln 3 apart: the first pass opens with 18 panels and
        # stops at panel 16, the second opens with 40, stops inside them and agrees
        (SierpinskiCarpet3D(), 4.466 + 18.0j, [58]),
        # a point in the plane has exact volumes at every radius, so it takes blocks too
        (PointSet([[0.0, 0.0]]), 0.3 + 3.0j, [124]),
    ]:
        sizes.clear()
        cfg = cfg_for(set_)
        assert tube_zeta_numeric(set_, s, cfg) == _tube_zeta_panel_loop(set_, s, cfg)
        assert sizes == blocks


BREAK_SETS = {
    "cantor_string": FractalStringBoundary.cantor_string(),
    "cantor": CantorLike(),
    "cantor_0.1": CantorLike(ratio=0.1),
    "cantor_0.4999": CantorLike(ratio=0.4999),
    "string_1.001": FractalStringBoundary(base=1.001, multiplicity=1),
    "string_1.01": FractalStringBoundary(base=1.01, multiplicity=1),
    "string_1.5": FractalStringBoundary(base=1.5, multiplicity=1),
    "explicit": FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.125)),
    "explicit_close": FractalStringBoundary(lengths=(0.5, 0.45, 0.3, 0.29, 0.1)),
    "points": PointSet([[0.0], [0.3], [1.0]]),
    "gasket": SierpinskiGasket(),
    "carpet": SierpinskiCarpet3D(),
}


@pytest.mark.parametrize("name", sorted(BREAK_SETS))
def test_break_tops_equal_those_from_the_full_listing(name):
    # a hole family reaches each stretch's first breakpoint from its level index
    from fractalzeta.zeta import _break_tops

    set_ = BREAK_SETS[name]
    for delta in (1.0, set_.default_delta):
        _break_tops.cache_clear()
        assert _break_tops(set_, delta).tobytes() == np.array(_panel_loop_tops(set_, delta)).tobytes()


def test_thin_string_quadrature_leaves_the_level_table_short():
    # base 1.001 has 644,352 fill radii above 1e-280, of which the tops keep 1,290 and
    # the quadrature's deepest node, near t = e^-60, needs about 59,500
    from fractalzeta import geometry
    from fractalzeta.zeta import _break_tops

    geometry._level_table.cache_clear()
    _break_tops.cache_clear()
    thin = FractalStringBoundary(base=1.001, multiplicity=1)
    tube_zeta_numeric(thin, 0.5 + 1.0j, cfg_for(thin))
    assert geometry._level_table(*thin._holes[1:]).fill.size < 70_000


def test_quadrature_openings_equal_panel_loop(monkeypatch):
    from fractalzeta import zeta

    def check(set_, s, blocks):
        sizes.clear()
        cfg = NumericZetaConfig(delta=1.0, seed=1)
        assert tube_zeta_numeric(set_, s, cfg) == _tube_zeta_panel_loop(set_, s, cfg)
        assert sizes == blocks

    sizes = _spy_block_sizes(monkeypatch)
    # multiplicity 1 puts t ln(1/t) in |A_t|, whose tail falls slower than t^(Re s):
    # the first pass opens with 35 panels and stops at 38, a block of 8 past them;
    # the second stops at panel 74 of its 74, the third opens with 2 * 74 + 4
    thin = FractalStringBoundary(base=1.5, multiplicity=1)
    check(thin, 1.35 - 2.97j, [35 + 74, 8, 152])
    # the first pass opens with 102 and stops at 121, the second opens with 208 and
    # stops at 239, past them, after blocks of 8, 16 and 32
    check(thin, 0.44 - 3.53j, [102 + 208, 8, 16, 8, 16, 32, 482])
    # above its holes, about 1e-101 wide, the string is a point, whose tail falls like
    # t^(Re s), not t^(Re s - D): the openings of 182 and 368 panels overshoot the
    # stops at 18 and 33
    tiny = FractalStringBoundary(base=3.0, multiplicity=2, scale=1e-100)
    check(tiny, 0.7 + 1.0j, [182 + 368])
    # Re s - D = 5e-4 is below its clamp of 1e-3, which puts the threshold past t = 1e-280:
    # the openings of 493 + 3 and 2 * 496 + 4 panels end at the panel that crosses it, the
    # 493rd and the 985th; with a cap of 64 panels they are 64 and 132
    check(tiny, 0.6314 + 1.0j, [493 + 985])
    monkeypatch.setattr(zeta, "_MAX_BLOCK", 64)
    check(tiny, 0.6314 + 1.0j, [64 + 132])


def test_quadrature_opens_where_the_modulus_of_s_overflows():
    # |s - D| passes the float range, so the first pass opens down to t = 1e-280;
    # t^(s - N) underflows to 0 at every node
    cfg = NumericZetaConfig(delta=0.5, seed=1)
    assert tube_zeta_numeric(CantorLike(), 1.7e308 + 1.7e308j, cfg) == 0j


def test_quadrature_past_exact_max_takes_one_panel_per_call(monkeypatch):
    # two points at distance 1 have exact volumes only up to t = 0.5: the nodes
    # above it cost one grid count each, so no panel past the stop is evaluated
    from fractalzeta import zeta
    from fractalzeta.errors import QuadratureNonconvergent

    sizes = _spy_block_sizes(monkeypatch)
    monkeypatch.setattr(zeta, "_MAX_REFINEMENTS", 0)
    with pytest.raises(QuadratureNonconvergent):
        tube_zeta_numeric(PointSet([[0.0, 0.0], [1.0, 0.0]]), 1.5 + 1.0j, NumericZetaConfig(delta=0.6, seed=1))
    assert sizes == [1] * 10


def test_quadrature_below_abscissa_raises():
    # D = log 2 / log 3 = 0.63: every pass runs to the t = 1e-280 floor
    from fractalzeta.errors import QuadratureNonconvergent

    with pytest.raises(QuadratureNonconvergent):
        tube_zeta_numeric(CantorLike(), 0.3 + 1.0j, NumericZetaConfig(delta=0.5, seed=1))


def test_quadrature_crossing_the_floor_mid_block_raises(monkeypatch):
    # the first pass takes one panel per interval between the 586 breakpoints in
    # (1e-280, 0.5), each ln 3 wide, then its 587th panel, of width 2, crosses
    # t = 1e-280; Re s is below D, so it opens with the cap of 512 panels, with the
    # second pass's 2 * 512 + 4 in the same node array, then 56 panels in blocks of
    # 8 to 32 and 19 of the next block of 64
    from fractalzeta.errors import QuadratureNonconvergent

    sizes = _spy_block_sizes(monkeypatch)
    with pytest.raises(QuadratureNonconvergent):
        tube_zeta_numeric(CantorLike(), 0.3 + 1.0j, NumericZetaConfig(delta=0.5, seed=1))
    assert sizes == [512 + 1028, 8, 16, 32, 19]
    assert CantorLike().volume_breaks(1e-280).size == 586


def test_quadrature_past_exp_overflow_raises_without_warnings():
    # a point in the plane: exp((s - 2) u) overflows below t = 1e-158 and |A_t| = pi t^2
    # underflows below 2e-162, which gave hundreds of overflow and invalid-value warnings
    from fractalzeta.errors import QuadratureNonconvergent

    cfg = NumericZetaConfig(delta=1.0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNonconvergent):
            tube_zeta_numeric(PointSet([[0.0, 0.0]]), 0.05 + 1.0j, cfg)
        s = 0.2 + 1.0j
        value = tube_zeta_numeric(PointSet([[0.0, 0.0]]), s, cfg)
    assert value == 0.604152433364575 - 3.020762165347586j
    assert abs(value - math.pi / s) <= 1e-9 * abs(math.pi / s)


def test_non_finite_s_is_rejected_up_front():
    cfg = NumericZetaConfig(delta=0.5, seed=1)
    for bad in (complex(math.nan, 0.0), complex(1.0, math.inf)):
        with pytest.raises(ValueError):
            tube_zeta_numeric(CantorLike(), bad, cfg)
        with pytest.raises(ValueError):
            functional_equation_residual(CantorLike(), bad, cfg)
        with pytest.raises(ValueError):
            distance_zeta_numeric(CantorLike(), bad, cfg)


@pytest.mark.parametrize("bad", [None, [1.0, 2.0], object()], ids=["none", "list", "object"])
def test_s_that_is_not_a_number_is_rejected(bad):
    # complex(s) raised a bare TypeError in each
    cfg = NumericZetaConfig(delta=0.5, seed=1)
    calls = {
        "tube_zeta_numeric": lambda: tube_zeta_numeric(CantorLike(), bad, cfg),
        "distance_zeta_numeric": lambda: distance_zeta_numeric(CantorLike(), bad, cfg),
        "functional_equation_residual": lambda: functional_equation_residual(CantorLike(), bad, cfg),
        "closed_form_eval": lambda: closed_form_eval(catalog_zeta(CantorLike(), 0.5), bad),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match="s must be a number"):
            call()


def test_functional_equation_below_the_abscissa_raises_without_warnings():
    # the panel sums overflowed with numpy RuntimeWarnings before the error,
    # which a warnings-as-errors run got in its place
    from fractalzeta.errors import QuadratureNonconvergent

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNonconvergent):
            functional_equation_residual(SierpinskiGasket(), 0.1, NumericZetaConfig(0.5, 1))


def test_functional_equation_near_abscissa_past_hole_count_overflow():
    # the quadrature reaches radii where 3^(k-1) (gasket) and 26^(k-1)
    # (carpet) overflow; a value or QuadratureNonconvergent, no bare error
    from fractalzeta.errors import QuadratureNonconvergent

    for set_, s in [
        (SierpinskiGasket(), math.log(3.0) / math.log(2.0) + 0.1 + 1.0j),
        (SierpinskiCarpet3D(), math.log(26.0) / math.log(3.0) + 0.05 + 1.0j),
    ]:
        try:
            residual = functional_equation_residual(set_, s, cfg_for(set_))
        except QuadratureNonconvergent:
            continue
        assert math.isfinite(residual)


def test_functional_equation_gasket_near_the_critical_line():
    # the quadrature runs down to radii where hull minus holes was rounding noise
    cfg = NumericZetaConfig(0.5, 1)
    assert functional_equation_residual(SierpinskiGasket(), math.log(3.0) / math.log(2.0) + 0.1 + 1j, cfg) < 1e-6


def test_functional_equation_point_set():
    ps = PointSet([[0.0]])
    cfg = cfg_for(ps, delta=1.0)
    assert functional_equation_residual(ps, 2.0 + 0.0j, cfg) < 1e-6
    # near the abscissa the quadrature reaches radii where |A_t| = 2t needs
    # to hold off the origin too
    cfg = NumericZetaConfig(delta=1.0, seed=1)
    for p in (0.5, -0.9):
        assert functional_equation_residual(PointSet([[p]]), 0.3 + 1.0j, cfg) <= 1e-8


def test_functional_equation_catalog_sets():
    rng = np.random.default_rng(313)
    log3_2 = math.log(2.0) / math.log(3.0)
    cases = [
        (CantorLike(), log3_2, 1, 0.5),
        (SierpinskiGasket(), math.log(3.0) / math.log(2.0), 2, 0.5),
        (SierpinskiCarpet3D(), math.log(26.0) / math.log(3.0), 3, 0.25),
        (FractalStringBoundary.cantor_string(), log3_2, 1, 0.4),
    ]
    for set_, d, n_dim, delta in cases:
        cfg = cfg_for(set_, delta=delta)
        for _ in range(5):
            s = complex(rng.uniform(d + 0.25, n_dim + 1.0), rng.uniform(-8.0, 8.0))
            assert functional_equation_residual(set_, s, cfg) <= 1e-3


HOLE_FAMILIES = [
    (CantorLike(), math.log(2.0) / math.log(3.0), 1),
    (FractalStringBoundary.cantor_string(), math.log(2.0) / math.log(3.0), 1),
    (SierpinskiGasket(), math.log(3.0) / math.log(2.0), 2),
    (SierpinskiCarpet3D(), math.log(26.0) / math.log(3.0), 3),
]


def test_functional_equation_hole_families_to_1e9():
    # panels between the breakpoints of |A_t| integrate each smooth piece to rounding
    rng = np.random.default_rng(2201)
    for set_, d, n_dim in HOLE_FAMILIES:
        cfg = cfg_for(set_)
        for _ in range(6):
            s = complex(rng.uniform(d + 0.25, n_dim + 1.0), rng.uniform(-10.0, 10.0))
            assert functional_equation_residual(set_, s, cfg) <= 1e-9


@pytest.mark.parametrize("rtol", [1e-6, 1e-12])
def test_hole_family_quadrature_stops_on_its_second_pass(monkeypatch, rtol):
    # with no third pass allowed, the first two must agree to _RTOL (1e-6), and
    # they agree to 1e-12 as well; panels that straddle the breakpoints agreed
    # to 1e-6 on 3 of these 12 values and to 1e-9 on none
    from fractalzeta import zeta

    monkeypatch.setattr(zeta, "_MAX_REFINEMENTS", 1)
    monkeypatch.setattr(zeta, "_RTOL", rtol)
    rng = np.random.default_rng(2202)
    for set_, d, n_dim in HOLE_FAMILIES:
        for _ in range(3):
            s = complex(rng.uniform(d + 0.25, n_dim + 1.0), rng.uniform(-10.0, 10.0))
            tube_zeta_numeric(set_, s, cfg_for(set_))


def test_holomorphicity_proxy_discrete_cauchy_riemann(monkeypatch):
    # tube zeta on a square stencil right of the abscissa: the discrete
    # d/d(conj s) defect must vanish at second order in the stencil size
    # (a non-holomorphic function keeps a constant defect, e.g. conj(s))
    from fractalzeta import zeta

    monkeypatch.setattr(zeta, "_RTOL", 1e-7)
    c = CantorLike()
    cfg = cfg_for(c, delta=0.5)
    s0 = 1.4 + 0.3j

    def cr_defect(fun, h):
        f = {d: fun(s0 + d) for d in (h, -h, 1j * h, -1j * h)}
        fx = (f[h] - f[-h]) / (2 * h)
        fy = (f[1j * h] - f[-1j * h]) / (2 * h)
        return abs(fx + 1j * fy) / 2.0

    tube = lambda s: tube_zeta_numeric(c, s, cfg)
    d_coarse = cr_defect(tube, 0.04)
    d_fine = cr_defect(tube, 0.02)
    assert d_fine < 0.01
    assert d_fine < 0.45 * d_coarse  # second-order decay, not a constant defect
    assert cr_defect(np.conj, 0.02) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# scaling property
# ---------------------------------------------------------------------------


def test_scaling_identity_is_exact():
    form = catalog_zeta(SierpinskiGasket(), 0.5)
    assert scale_zeta(form, 1.0) == form
    rng = np.random.default_rng(2024)
    for _ in range(10):
        lam = float(rng.uniform(0.2, 5.0))
        s = complex(rng.uniform(1.7, 3.0), rng.uniform(-10.0, 10.0))
        scaled = scale_zeta(form, lam)
        lhs = scaled.evaluate(s)
        rhs = lam**s * form.evaluate(s)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


_FORM_ROOTS = (-1.0, 0.0, 1.0, 2.0)


@st.composite
def _closed_forms(draw):
    """Random closed forms: one or two lattice terms and up to two elementary terms."""
    signed = lambda lo, hi: draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(lo, hi))
    lattice = []
    for _ in range(draw(st.integers(1, 2))):
        roots = tuple(draw(st.lists(st.sampled_from(_FORM_ROOTS), min_size=1, max_size=3, unique=True)))
        m, r = draw(st.floats(1.5, 5.0)), draw(st.floats(0.5, 30.0))
        # a root next to the lattice's real pole would make a near-double pole
        assume(all(abs(math.log(r) / math.log(m) - rho) > 0.01 for rho in roots))
        lattice.append(LatticeTerm(signed(0.1, 5.0), draw(st.floats(0.2, 5.0)), roots, (m, r)))
    elementary = [
        ElementaryTerm(signed(0.1, 5.0), draw(st.integers(0, 3)), draw(st.sampled_from(_FORM_ROOTS)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    dim, delta = draw(st.integers(1, 3)), draw(st.floats(0.1, 2.0))
    return ClosedFormZeta(dim, delta, tuple(lattice), tuple(elementary))


@settings(max_examples=100, deadline=None)
@given(form=_closed_forms(), lam=st.floats(0.2, 5.0))
def test_scaling_keeps_poles_and_multiplies_residues_property(form, lam):
    from fractalzeta.dimensions import Pole, conjugate_closed

    poles, scaled = form.poles(20.0), scale_zeta(form, lam).poles(20.0)
    assert [w for w, _ in scaled] == [w for w, _ in poles]
    for (w, res), (_, res_scaled) in zip(poles, scaled):
        assert abs(res_scaled - lam**w * res) <= 1e-9 * abs(lam**w * res)
    for pairs in (poles, scaled):
        assert conjugate_closed([Pole(w, residue=res) for w, res in pairs])


def test_scaling_point_set():
    form = catalog_zeta(PointSet([[0.0]]), 1.0)
    scaled = scale_zeta(form, 3.0)
    assert scaled.delta == pytest.approx(3.0)
    assert closed_form_eval(scaled, 1.0) == pytest.approx(6.0)
    # the scaled form equals the zeta of the (fixed) set at cutoff 3
    est = distance_zeta_numeric(PointSet([[0.0]]), 1.0 + 0.0j, cfg_for(PointSet([[0.0]]), delta=3.0))
    assert abs(est.value - 6.0) <= max(3.0 * est.half_width, 1e-9)


def test_scaling_residues_multiply_by_lambda_to_omega():
    from fractalzeta.dimensions import residue_contour

    form = catalog_zeta(SierpinskiGasket(), 0.5)
    lam = 2.0 * SQRT3
    scaled = scale_zeta(form, lam)
    known = [w for w, _ in form.poles(25.0)]
    for w, res in form.poles(12.0):
        expected = lam**w * res
        assert scaled.residue_at(w) == pytest.approx(expected, rel=1e-12)
        contoured = residue_contour(scaled, w, known_poles=known)
        assert contoured == pytest.approx(expected, rel=1e-9)


def test_lattice_term_validation():
    with pytest.raises(ValueError):
        LatticeTerm(1.0, -2.0, (0.0,), None)
    with pytest.raises(ValueError):
        LatticeTerm(1.0, 2.0, (0.0, 0.0), None)
    with pytest.raises(ValueError):
        LatticeTerm(1.0, 2.0, (0.0,), (0.5, 3.0))
    with pytest.raises(ValueError):
        ClosedFormZeta(1, -1.0, (), (ElementaryTerm(2.0, 0, 0.0),))
    # non-finite or ill-typed fields, which evaluated to inf or raised a bare TypeError
    for bad in (
        lambda: LatticeTerm(math.nan, 2.0, (0.0,), None),
        lambda: LatticeTerm(1.0, 2.0, (math.inf,), None),
        lambda: LatticeTerm(1.0, 2.0, [0.0], None),
        lambda: LatticeTerm(1.0, 2.0, (0.0,), ("3", 2.0)),
        lambda: LatticeTerm(1.0, 2.0, (0.0,), (3.0,)),
        lambda: LatticeTerm(True, 2.0, (0.0,), None),
        lambda: ElementaryTerm(math.nan, 0, 0.0),
        lambda: ElementaryTerm(1.0, 0.5, 0.0),
        lambda: ElementaryTerm(1.0, True, 0.0),
        lambda: ElementaryTerm(1.0, 0, math.inf),
        lambda: ClosedFormZeta(1, True),
        lambda: ClosedFormZeta(1, "1"),
        lambda: ClosedFormZeta(0, 1.0),
        lambda: ClosedFormZeta(1.0, 1.0),
        lambda: ClosedFormZeta(1, 1.0, [LatticeTerm(1.0, 2.0, (0.0,), None)]),
        lambda: ClosedFormZeta(1, 1.0, (), ((2.0, 0, 0.0),)),
    ):
        with pytest.raises(ValueError):
            bad()
    form = ClosedFormZeta(1, 1.0, (), (ElementaryTerm(2.0, 0, 0.0),))
    with pytest.raises(NotAPole):
        form.residue_at(0.5)
