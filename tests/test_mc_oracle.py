"""The Monte Carlo tube oracle and the ``below`` stop radius of the distances.

A curve's radii share each chunk's draws, and every radius counts the hits
of the per-radius oracle (:func:`references.mc_tube_per_radius`) bit for
bit.  ``distances(pts, below=t)`` may stop a descent once ``d < t`` is
settled: it must agree with the full distances on which points lie within
``t``, and equal them bit for bit on the others.  The full distances are
pinned by digests recorded before the stop radius existed.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalzeta import geometry as geo
from fractalzeta.geometry import (
    CantorLike,
    FractalStringBoundary,
    PointCloud,
    PointSet,
    SierpinskiCarpet3D,
    SierpinskiGasket,
    distances_to_set,
    sample_tube_curve,
    tube_volume,
)
from fractalzeta.zeta import NumericZetaConfig, distance_zeta_numeric
from references import mc_tube_per_radius

BELOW_SETS = {
    "cantor": CantorLike(),
    "cantor_0.1": CantorLike(ratio=0.1, scale=2.5),
    "cantor_0.4999": CantorLike(ratio=0.4999),
    "cantor_string": FractalStringBoundary.cantor_string(),
    "string_2.5_1": FractalStringBoundary(base=2.5, multiplicity=1, scale=2.0),
    "explicit_string": FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.125)),
    "gasket": SierpinskiGasket(),
    "carpet": SierpinskiCarpet3D(),
    "point_set": PointSet([[0.0], [0.3]]),
    "point_set_4d": PointSet([[0.1, 0.2, 0.3, 0.4], [0.5, 0.5, 0.5, 0.5]]),
    "point_cloud": PointCloud([[0.1, 0.2], [0.4, 0.9], [0.7, 0.3]]),
}
KINDS = ["uniform", "triadic", "dyadic", "tiny", "far", "centres"]


def _points(set_, kind: str, seed: int, n: int = 400) -> np.ndarray:
    """Seeded points of one family around the set's bounding box ``[lo, hi]``.

    ``uniform`` fills the box padded by a tenth of its side, ``triadic`` and
    ``dyadic`` take multiples of ``3^-k`` and ``2^-k`` of the side, ``tiny``
    offsets ``lo`` by ``±10^-u`` for ``u`` up to 300, ``far`` lies ``10^u``
    away, ``u`` up to 300, and ``centres`` lie at ``lo + side 3^-k / 2``,
    the centres of the carpet's corner cubes.
    """
    rng = np.random.default_rng(seed)
    lo, hi = set_.bounds()
    shape = (n, set_.ambient_dim)
    side = np.maximum(hi - lo, 1.0)
    if kind == "uniform":
        return lo - 0.1 * side + 1.2 * side * rng.random(shape)
    if kind in ("triadic", "dyadic"):
        base = 3 if kind == "triadic" else 2
        k = rng.integers(1, 34 if base == 3 else 52, shape)
        return lo + side * (rng.integers(0, base**k, dtype=np.int64) * float(base) ** -k.astype(float))
    if kind == "centres":
        return lo + side * (0.5 * 3.0 ** -rng.integers(0, 34, (n, 1)).astype(float))
    sign = rng.choice([-1.0, 1.0], shape)
    if kind == "tiny":
        return lo + sign * 10.0 ** -rng.uniform(1.0, 300.0, shape)
    return lo + sign * 10.0 ** rng.uniform(1.0, 300.0, shape)


# Radii from the extremes to past the sets, at and around powers of 3; and,
# for the carpet, at and around its half hole sides, where its descent stops.
RADII = sorted(
    {5e-324, 1e-300, 1e-100, 1e-20, 1e-15, 1e-9, 2.0**-32, 1e-6}
    | {2e-3, 0.05, 0.2, 0.5, 1.0, 3.0, 1e10}
    | {float(3.0**-k) * f for k in range(0, 34, 3) for f in (1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53)}
)
HALF_HOLES = sorted({h * f for h in geo._CARPET_SIDES[:34] / 2.0 for f in (1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53)})


def _check_below(set_, pts, t, d) -> None:
    got = set_.distances(pts, below=t)
    np.testing.assert_array_equal(got < t, d < t)
    far = d >= t
    assert np.array_equal(got[far].view(np.int64), d[far].view(np.int64))


@pytest.mark.parametrize("name", BELOW_SETS)
def test_distances_below_settle_only_d_under_t(name):
    set_ = BELOW_SETS[name]
    radii = RADII + HALF_HOLES if name == "carpet" else RADII
    for seed, kind in enumerate(KINDS):
        pts = _points(set_, kind, seed, n=200)
        d = distances_to_set(pts, set_)
        for t in radii:
            _check_below(set_, pts, t, d)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BELOW_SETS)),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    log_t=st.floats(math.log(1e-300), math.log(10.0)),
)
def test_distances_below_property(name, kind, seed, log_t):
    set_ = BELOW_SETS[name]
    pts = _points(set_, kind, seed, n=200)
    _check_below(set_, pts, math.exp(log_t), distances_to_set(pts, set_))


# sha256 of the distances' bytes for _points(set_, kind, 100 + i), recorded
# before the descriptors took a stop radius.
DIGESTS = {
    "cantor": [
        "f0de4284876d6edc", "e1c2c7a6b3b83136", "dc6214e17fd689c0",
        "de4933a594717102", "a49fa13971035a32", "22af88c458ae9ce2",
    ],
    "cantor_0.1": [
        "9798876dc225b570", "2c95d48cf0ba58d7", "307dc30ff2367451",
        "d286ae55a44d092c", "51fae46be24fffb0", "5ac6b5c8ff1ce148",
    ],
    "cantor_0.4999": [
        "181e835d859a7c85", "730342a361ab9c1f", "0d3fb20a799bd46b",
        "85d99847cadb7cf5", "a49fa13971035a32", "f1a3b50b972e70b9",
    ],
    "cantor_string": [
        "0d4db7c751b280ed", "496efb74cd5146b6", "2189d8f5e413edc7",
        "ffaf85c791cbe283", "a49fa13971035a32", "a97a8f98586c2529",
    ],
    "string_2.5_1": [
        "1fa789361515bfc3", "d17873c6c40034fc", "cf557d87cfa6fb72",
        "0e1d706673e393e3", "55eaa18cf21106fa", "4bab359bcb4edb94",
    ],
    "explicit_string": [
        "04c7572217a18464", "04bafea473597c8c", "249613c18aeb17dd",
        "288d7069e965cf6f", "3aa85fdc04d828e6", "0556d10ff461168d",
    ],
    "gasket": [
        "796d46965f89c5be", "ace9349c2d9a4541", "43c9b12a656e9b9e",
        "a93c87cc066cfb3c", "7140d536de24df6b", "8d1b6243bf103954",
    ],
    "carpet": [
        "4db29dd03736202c", "ae8a677a6642cb7b", "a6143cc6e3277f1d",
        "4eacfaa9c611f1c7", "bb8b79d5eac7f276", "154aeb42fd03485b",
    ],
    "point_set": [
        "d875654d53089ad4", "5c4ce61ec81dca50", "d68bf1a3b6548f97",
        "288d7069e965cf6f", "cf2f5a66a41f115e", "95fc647b9031fcb3",
    ],
    "point_set_4d": [
        "7548151228c7d9ea", "84b249aab58c9630", "df45f1f6ca136c36",
        "39a0f9e5739252a7", "38e42d4a78289611", "2c175395dc66b5e5",
    ],
    "point_cloud": [
        "73846e101aa07935", "e870b3018dfc3ba7", "ec580b0e50fd2ba4",
        "6e64ca58458c4497", "3490df5fcac1af39", "db2f0bd80ffcd7b1",
    ],
}


def _digests(set_) -> list[str]:
    out = []
    for i, kind in enumerate(KINDS):
        d = distances_to_set(_points(set_, kind, 100 + i), set_)
        out.append(hashlib.sha256(np.ascontiguousarray(d, dtype="<f8").tobytes()).hexdigest()[:16])
    return out


@pytest.mark.parametrize("name", BELOW_SETS)
def test_distances_without_below_keep_their_bits(name):
    assert _digests(BELOW_SETS[name]) == DIGESTS[name]


MC_CASES = {
    "carpet": (SierpinskiCarpet3D(), np.geomspace(2e-3, 0.2, 8), 3000),
    "cantor": (CantorLike(), np.geomspace(1e-4, 0.1, 8), 5000),
    "gasket": (SierpinskiGasket(), np.geomspace(1e-3, 0.1, 8), 3000),
    # two chunks, the second of 500 points
    "cantor_two_chunks": (CantorLike(ratio=0.25, scale=2.5), np.geomspace(1e-3, 0.3, 4), (1 << 17) + 500),
}


@pytest.mark.parametrize("name", MC_CASES)
def test_mc_curve_equals_per_radius_calls(name):
    set_, ts, n = MC_CASES[name]
    curve = sample_tube_curve(set_, ts, method="monte_carlo", mc_samples=n, seed=9)
    single = [tube_volume(set_, t, "monte_carlo", mc_samples=n, seed=9) for t in ts.tolist()]
    assert curve == single
    want = [mc_tube_per_radius(set_, t, n, 9) for t in ts.tolist()]
    assert [(s.volume, s.error_bound) for s in curve] == want
    assert all(s.volume > 0 for s in curve)


# repr of the carpet curve below, recorded before the radii shared their draws.
PINNED_CARPET_CURVE = (
    "[(0.002, 0.916915545984, 0.004669809543693226), "
    "(0.00502377286301916, 0.9596033134014448, 0.004122540696621958), "
    "(0.012619146889603867, 1.0364220702319662, 0.0032680694647684266), "
    "(0.03169786384922229, 1.1799521698078137, 0.0025789635777795617), "
    "(0.07962143411069948, 1.5348634412346258, 0.0029693578164074106), "
    "(0.2, 2.6061139999999994, 0.009478220231193196)]"
)


def test_carpet_mc_curve_pinned():
    curve = sample_tube_curve(
        SierpinskiCarpet3D(), np.geomspace(2e-3, 0.2, 6), method="monte_carlo", mc_samples=4000, seed=11
    )
    assert repr([(s.t, s.volume, s.error_bound) for s in curve]) == PINNED_CARPET_CURVE


@pytest.mark.parametrize(
    "ts, kwargs",
    [
        ([0.1, 0.05], {}),
        ([0.05, 0.1], {"mc_samples": 0}),
        ([0.05, 0.1], {"mc_samples": True}),
        ([0.05, 0.1], {"mc_samples": 1.5}),
        ([0.05, 0.1], {"mc_samples": -3}),
        ([0.05, 0.1, math.inf], {}),
        ([0.05, 0.1, math.nan], {}),
        ([0.05, 1e103], {}),
    ],
    ids=["descending", "zero", "bool", "float", "negative", "inf", "nan", "box_overflow"],
)
def test_bad_curve_raises_before_sampling(ts, kwargs, monkeypatch):
    def no_draws(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(geo, "_mc_uniforms", no_draws)
    with pytest.raises(ValueError):
        sample_tube_curve(SierpinskiCarpet3D(), ts, method="monte_carlo", **kwargs)
    if "mc_samples" in kwargs:
        with pytest.raises(ValueError):
            tube_volume(SierpinskiCarpet3D(), ts[0], "monte_carlo", **kwargs)


@pytest.mark.parametrize("cell", [0.0, -1.0, math.inf, math.nan])
def test_bad_cell_raises_before_measuring(cell, monkeypatch):
    def no_measure(*args):
        raise AssertionError("measured")

    monkeypatch.setattr(geo, "_grid_tube", no_measure)
    monkeypatch.setattr(PointSet, "exact_volumes", no_measure)
    # exact up to half the gap, 0.5, and grid counted past it
    ps = PointSet([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        sample_tube_curve(ps, [0.1, 0.6], cell=cell)
    with pytest.raises(ValueError):
        tube_volume(ps, 0.6, cell=cell)


def test_mc_tube_volumes_share_one_run(monkeypatch):
    # radii past exact_max in R^4 take Monte Carlo, one run for all of them
    ps = BELOW_SETS["point_set_4d"]
    ts = [0.01, 0.6, 0.2, 0.9, 0.6]
    runs = []
    run = geo._mc_tubes

    def counted(set_, radii, *args):
        runs.append(list(radii))
        return run(set_, radii, *args)

    monkeypatch.setattr(geo, "_mc_tubes", counted)
    got = geo.tube_volumes(ps, ts).tolist()
    assert runs == [[0.6, 0.9, 0.6]]
    # min_gap / 2 = 0.27: 0.01 and 0.2 are exact
    assert [got[0], got[2]] == [tube_volume(ps, 0.01).volume, tube_volume(ps, 0.2).volume]
    assert [got[1], got[3], got[4]] == [mc_tube_per_radius(ps, t, 200_000, 0)[0] for t in (0.6, 0.9, 0.6)]


# Strings whose first length underflows to 0 (and for base 1e300 whose total
# length does too): their distances used to be NaN.
UNDERFLOW_STRINGS = [(3.0, 5e-324), (1e300, 5e-324), (1e300, 1e-310), (1e300, 1e-30)]


@pytest.mark.parametrize("base, scale", UNDERFLOW_STRINGS)
def test_string_with_underflowing_lengths_has_exact_distances(base, scale):
    set_ = FractalStringBoundary(base=base, multiplicity=2, scale=scale)
    x = np.array([-1.0, -5e-324, 0.0, 5e-324, 1e-323, 1e-300, 0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distances_to_set(x[:, None], set_)
        below = set_.distances(x[:, None], below=0.1)
    # the set lies in [0, total_length], with both ends, and holds no float between
    top = set_.total_length
    want = np.maximum(np.maximum(-x, x - top), 0.0)
    assert got.tolist() == want.tolist()
    assert below.tolist() == want.tolist()


@pytest.mark.parametrize("base, scale", UNDERFLOW_STRINGS)
def test_string_with_underflowing_lengths_measures_its_tube_and_zeta(base, scale):
    set_ = FractalStringBoundary(base=base, multiplicity=2, scale=scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tube = tube_volume(set_, 0.05, "monte_carlo", mc_samples=4000, seed=2)
        est = distance_zeta_numeric(set_, 2.5, NumericZetaConfig(delta=0.5, seed=3, mc_samples=4000))
    # the set is a point to rounding: |A_t| = 2t, zeta = 2 delta^s / s
    assert tube.volume > 0 and abs(tube.volume - 0.1) <= 4.0 * tube.error_bound
    want = 2.0 * 0.5**2.5 / 2.5
    assert est.value != 0 and abs(est.value - want) <= 4.0 * est.half_width
