import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fractalzeta import geometry as geo
from fractalzeta.errors import DeltaTooSmall, FractalZetaError, ResolutionTooCoarse
from fractalzeta.geometry import (
    CantorLike,
    FractalStringBoundary,
    PointCloud,
    PointSet,
    SierpinskiCarpet3D,
    SierpinskiGasket,
    TubeMethod,
    distances_to_set,
    sample_tube_curve,
    set_from_json,
    set_to_json,
    tube_volume,
    tube_volumes,
)
from fractalzeta.zeta import default_delta
from references import (
    cantor_distances_per_level,
    cantor_segments,
    cantor_volume,
    carpet_distances_descent,
    carpet_volume,
    distance_to_set,
    fattened_length,
    gasket_distances_descent,
    gasket_grid_counts_six_flips,
    gasket_volume,
    string_distances_list,
    string_points,
    string_volume,
    union_measure_of_fattened_points,
)

SQRT3 = math.sqrt(3.0)

ALL_SETS = [
    PointSet([[0.0]]),
    PointSet([[0.0, 0.0], [1.0, 0.5]]),
    CantorLike(),
    FractalStringBoundary.cantor_string(),
    FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.125)),
    SierpinskiGasket(),
    SierpinskiCarpet3D(),
    PointCloud([[0.1, 0.2], [0.4, 0.9], [0.7, 0.3]]),
]


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_distance_zero_on_the_set():
    assert distance_to_set([0.0], PointSet([[0.0]])) == 0.0
    assert distance_to_set([1.0], CantorLike()) == 0.0
    assert distance_to_set([0.0, 0.0], SierpinskiGasket()) == pytest.approx(0.0, abs=1e-12)
    assert distance_to_set([1.0, 1.0, 1.0], SierpinskiCarpet3D()) == pytest.approx(0.0, abs=1e-12)
    assert distance_to_set([1.0], FractalStringBoundary.cantor_string()) == 0.0


def test_distance_cantor_midpoint():
    # midpoint of the removed middle third; nearest set points are 1/3 and 2/3
    assert distance_to_set([0.5], CantorLike()) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_distance_gasket_outside_vertex():
    assert distance_to_set([2.0, 0.0], SierpinskiGasket()) == pytest.approx(1.0, abs=1e-12)


def test_distance_carpet_hole_center():
    # center of the removed middle cube, 1/6 from each face of the hole
    assert distance_to_set([0.5, 0.5, 0.5], SierpinskiCarpet3D()) == pytest.approx(
        1.0 / 6.0, abs=1e-10
    )


def test_cantor_distance_against_materialized_endpoints():
    c = CantorLike()
    # all endpoints of level-10 construction intervals belong to the set
    starts = np.array([0.0])
    L = 1.0
    for _ in range(10):
        starts = np.concatenate([starts, starts + (2.0 / 3.0) * L])
        L /= 3.0
    endpoints = np.sort(np.concatenate([starts, starts + L]))
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.2, 1.2, size=400)
    d_exact = distances_to_set(xs[:, None], c)
    j = np.searchsorted(endpoints, xs)
    j0 = np.clip(j - 1, 0, endpoints.size - 1)
    j1 = np.clip(j, 0, endpoints.size - 1)
    d_brute = np.minimum(np.abs(xs - endpoints[j0]), np.abs(xs - endpoints[j1]))
    # brute force overestimates by at most the level-10 interval length
    assert np.all(d_exact <= d_brute + 1e-12)
    assert np.all(d_brute - d_exact <= 3.0**-10 + 1e-12)


def _cantor_distance_exact(x, ratio):
    """Distance from ``x`` in (0, 1) to ``CantorLike(ratio)`` in exact integers.

    With ``ratio = n / 2^e`` and ``x = X / 2^f``, the level-``k`` interval is
    ``[A, A + n^k] / 2^(e k)``.  The descent stops in a gap, exact there, or in
    an interval below ``ulp(x) / 256``, whose nearer end is within that of the
    distance.
    """
    n, den = ratio.as_integer_ratio()
    e = den.bit_length() - 1
    X, xden = x.as_integer_ratio()
    f = xden.bit_length() - 1
    g = math.ulp(x).as_integer_ratio()[1].bit_length() - 1
    A, N, k = 0, 1, 0
    while (N << (8 + g)) >= (1 << (e * k)):
        # the ends of the middle gap over 2^(e (k + 1)), and x over 2^(e (k + 1) + f)
        A, k = A << e, k + 1
        g1, g2, xs = (A + n * N) << f, (A + (den - n) * N) << f, X << (e * k)
        if g1 <= xs <= g2:
            return Fraction(min(xs - g1, g2 - xs), 1 << (e * k + f))
        if xs > g2:
            A = g2 >> f
        N *= n
    xs, lo, hi = X << (e * k), A << f, (A + N) << f
    return Fraction(min(xs - lo, hi - xs), 1 << (e * k + f))


@pytest.mark.parametrize("ratio", [1.0 / 3.0, 0.1, 0.4999])
def test_cantor_distances_near_0_match_exact_integers(ratio):
    # the descent stopped every point at intervals below 1e-18 and returned x itself below them
    xs = [1e-25, 2e-25, 5e-30, 1e-300, 5e-324]
    got = distances_to_set(np.array(xs)[:, None], CantorLike(ratio))
    for x, d in zip(xs, got.tolist()):
        want = float(_cantor_distance_exact(x, ratio))
        # a gap end near x is placed to the rounding of its float position, an ulp of x or so
        assert 0.0 <= d and abs(d - want) <= 1e-12 * want + 4.0 * math.ulp(x), (x, d, want)
        if ratio == 1.0 / 3.0:
            # these gaps are wide against an ulp of x
            assert abs(d - want) <= 1e-12 * want, (x, d, want)
    x = np.geomspace(5e-324, 1e-3, 400)
    d = distances_to_set(x[:, None], CantorLike(ratio))
    assert (d >= 0.0).all() and (d <= x).all()


@pytest.mark.parametrize("ratio", [1.0 / 3.0, 0.1, 0.4999])
def test_cantor_distances_step_over_the_leftmost_levels(ratio, monkeypatch):
    # 200k uniform points, 100k u^20 and 10k log-spaced down to 1e-300: the levels at which every
    # remaining point lies in the leftmost interval change nothing but L, so the bits are the same
    set_, rng = CantorLike(ratio), np.random.default_rng(5)
    x = np.concatenate((rng.random(200_000), rng.random(100_000) ** 20, np.geomspace(1e-300, 1e-5, 10_000)))
    assert np.array_equal(set_.distances(x[:, None]), cantor_distances_per_level(set_, x))
    # one point at a time, each in a few dozen passes, not one per level down to it (628 at 1e-300 on 1/3)
    where, passes = np.where, []
    monkeypatch.setattr(np, "where", lambda *args: passes.append(1) or where(*args))
    points = np.geomspace(1e-300, 1e-5, 40)
    for p, want in zip(points, cantor_distances_per_level(set_, points).tolist()):
        passes.clear()
        assert set_.distances(np.array([[p]])).tolist() == [want]
        assert len(passes) <= 60


def test_gasket_distance_against_subdivision_vertices():
    tris = [(0.0, 0.0)]
    s = 1.0
    for _ in range(9):
        h = s / 2.0
        tris = [
            v
            for (ox, oy) in tris
            for v in ((ox, oy), (ox + h, oy), (ox + h / 2.0, oy + h * SQRT3 / 2.0))
        ]
        s = h
    vs = np.unique(np.round(np.array(tris), 12), axis=0)
    rng = np.random.default_rng(11)
    pts = rng.uniform([-0.2, -0.2], [1.2, 1.1], size=(300, 2))
    d_exact = distances_to_set(pts, SierpinskiGasket())
    from scipy.spatial import cKDTree

    d_brute, _ = cKDTree(vs).query(pts)
    assert np.all(d_exact <= d_brute + 1e-10)
    assert np.all(d_brute - d_exact <= 2.0**-9)


def test_carpet_distance_against_subdivision_corners():
    cubes = [(0.0, 0.0, 0.0)]
    s = 1.0
    offsets = [
        (i, j, k) for i in range(3) for j in range(3) for k in range(3) if (i, j, k) != (1, 1, 1)
    ]
    for _ in range(3):
        h = s / 3.0
        cubes = [(ox + a * h, oy + b * h, oz + c * h) for (ox, oy, oz) in cubes for a, b, c in offsets]
        s = h
    corners = []
    for (ox, oy, oz) in cubes:
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    corners.append((ox + a * s, oy + b * s, oz + c * s))
    vs = np.unique(np.round(np.array(corners), 12), axis=0)
    rng = np.random.default_rng(13)
    pts = rng.uniform(-0.1, 1.1, size=(150, 3))
    d_exact = distances_to_set(pts, SierpinskiCarpet3D())
    from scipy.spatial import cKDTree

    d_brute, _ = cKDTree(vs).query(pts)
    assert np.all(d_exact <= d_brute + 1e-10)
    assert np.all(d_brute - d_exact <= SQRT3 * 3.0**-3)


def test_gasket_distance_at_deep_hole_centres():
    # a level-k hole is the middle triangle of a level-(k-1) triangle of side
    # s; it shares that triangle's centroid and has inradius s / (4 sqrt3)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0)]
    rng = np.random.default_rng(17)
    for k in range(1, 31):
        path = rng.integers(0, 3, size=k - 1)
        ox = math.fsum(corners[c][0] * 2.0**-j for j, c in enumerate(path, 1))
        oy = math.fsum(corners[c][1] * 2.0**-j for j, c in enumerate(path, 1))
        s = 2.0 ** -(k - 1)
        centre = [ox + s / 2.0, oy + s * SQRT3 / 6.0]
        inradius = 2.0**-k / (2.0 * SQRT3)
        assert distance_to_set(centre, SierpinskiGasket()) == pytest.approx(inradius, abs=1e-15)


def test_carpet_distance_at_deep_hole_centres():
    # a level-k hole is the middle cube of a kept level-(k-1) cube of side s;
    # its centre is that cube's centre, at 3^-k / 2 from the hole's faces
    kept = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if (a, b, c) != (1, 1, 1)]
    rng = np.random.default_rng(19)
    for k in range(1, 31):
        path = [kept[i] for i in rng.integers(0, 26, size=k - 1)]
        s = 3.0 ** -(k - 1)
        centre = [math.fsum(d[ax] * 3.0**-j for j, d in enumerate(path, 1)) + s / 2.0 for ax in range(3)]
        d = distance_to_set(centre, SierpinskiCarpet3D())
        assert d == pytest.approx(3.0**-k / 2.0, abs=1e-15)


def test_distance_outside_the_hull():
    g = SierpinskiGasket()
    # nearest points: the vertex (0,0), the bottom edge, the apex, the right edge
    right_mid = np.array([0.75, SQRT3 / 4.0])
    outward = np.array([SQRT3 / 2.0, 0.5])
    pts = [[-0.3, -0.4], [0.5, -0.3], [0.5, SQRT3 / 2.0 + 0.25], right_mid + 0.2 * outward]
    assert distances_to_set(pts, g) == pytest.approx([0.5, 0.3, 0.25, 0.2], abs=1e-15)
    c = SierpinskiCarpet3D()
    pts = [[1.5, 0.5, 0.5], [0.5, 0.5, -0.25], [-0.3, -0.4, 0.5], [2.0, 2.0, 2.0]]
    assert distances_to_set(pts, c) == pytest.approx([0.5, 0.25, 0.5, SQRT3], abs=1e-15)


GASKET_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])


def _gasket_families(rng):
    """Point families that reach every branch of the gasket distance kernel."""
    yield "uniform", rng.uniform([-0.2, -0.2], [1.2, 1.1], size=(20_000, 2))
    # chaos game: 60 contractions towards random vertices put a point within 2^-60 of the set
    chaos = rng.uniform(0.0, 0.1, size=(20_000, 2))
    for _ in range(60):
        chaos = 0.5 * (chaos + GASKET_VERTICES[rng.integers(0, 3, len(chaos))])
    yield "chaos", chaos
    for ex in range(-17, -2):
        yield f"chaos+1e{ex}", chaos[:2_000] + rng.normal(size=(2_000, 2)) * 10.0**ex
    for level in range(3, 21):
        m = 2**level
        yield f"dyadic-{level}", rng.integers(0, m + 1, size=(2_000, 2)) / m * [1.0, SQRT3 / 2.0]
    for n in range(4, 31):
        m = 2**n
        lam = rng.integers(0, m + 1, size=(2_000, 2)) / m
        # the point with barycentric coordinates (1 - lam_1 - lam_2, lam_1, lam_2)
        xy = np.stack([lam[:, 0] + lam[:, 1] / 2.0, lam[:, 1] * SQRT3 / 2.0], axis=1)
        yield f"barycentric-{n}", xy
    tiny = np.exp(rng.uniform(math.log(1e-300), 0.0, size=(20_000, 2)))
    yield "tiny", tiny
    yield "tiny-signed", tiny * rng.choice([-1.0, 1.0], size=tiny.shape)
    edge_y = rng.choice([-1e-16, -5e-17, 0.0, 5e-17, 1e-16], size=10_000)
    yield "bottom-edge", np.stack([rng.uniform(-0.1, 1.1, size=10_000), edge_y], axis=1)


def _gasket_zero_rules(pts):
    """How many inside points each rule of the kernel puts on the set.

    The rules read the integers ``floor(2^53 lam_i)`` of the barycentric
    coordinates: no digit free in all three, two coordinates sharing a 1
    above the first free digit, a coordinate of 1 or more.
    """
    px, py = pts[:, 0], pts[:, 1]
    lam = (1.0 - px - py / SQRT3, px - py / SQRT3, (2.0 / SQRT3) * py)
    inside = (lam[0] > 0.0) & (lam[1] > 0.0) & (lam[2] > 0.0)
    a0, a1, a2 = ((l[inside] * 2.0**53).astype(np.int64) for l in lam)
    _, e = np.frexp(~(a0 | a1 | a2) & (2**53 - 1))
    clash = (a0 & a1) | (a0 & a2) | (a1 & a2)
    no_free, clashed, past_one = e == 0, (e > 0) & (clash >> e != 0), (a0 | a1 | a2) >> 53 != 0
    return np.array([no_free.sum(), clashed.sum(), past_one.sum()])


def test_gasket_distances_equal_the_descent_bit_for_bit():
    rules = np.zeros(3, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, pts in _gasket_families(np.random.default_rng(23)):
            got = distances_to_set(pts, SierpinskiGasket())
            want = gasket_distances_descent(pts)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
            rules += _gasket_zero_rules(pts)
    # every rule that puts a point on the set is taken
    assert (rules > 0).all(), rules


# n / 2^k in [0, 1]
_dyadic = st.integers(0, 30).flatmap(lambda k: st.integers(0, 2**k).map(lambda n: n / 2.0**k))


@given(
    st.lists(
        st.one_of(
            st.tuples(st.floats(-0.25, 1.25), st.floats(-0.25, 1.1)),
            st.tuples(_dyadic, _dyadic).map(lambda l: (l[0] + l[1] / 2.0, l[1] * SQRT3 / 2.0)),
        ),
        min_size=1,
        max_size=64,
    )
)
@settings(max_examples=100, deadline=None)
def test_gasket_distances_equal_the_descent_property(points):
    pts = np.array(points, dtype=float)
    got = distances_to_set(pts, SierpinskiGasket())
    assert np.array_equal(got.view(np.int64), gasket_distances_descent(pts).view(np.int64))


CARPET_KEPT = np.array([d for d in np.ndindex(3, 3, 3) if d != (1, 1, 1)], dtype=float)


def _carpet_families(rng):
    """Point families that reach every branch of the carpet distance kernel."""
    yield "uniform", rng.uniform(-0.1, 1.1, size=(50_000, 3))
    # chaos game: 40 contractions towards kept subcubes put a point within 3^-40 of the set
    chaos = rng.uniform(0.0, 1.0, size=(20_000, 3))
    for _ in range(40):
        chaos = (chaos + CARPET_KEPT[rng.integers(0, 26, len(chaos))]) / 3.0
    yield "chaos", chaos
    for ex in range(-17, -2):
        yield f"chaos+1e{ex}", chaos[:2_000] + rng.normal(size=(2_000, 3)) * 10.0**ex
    # coordinates that stay off the lattice, in floats, down to the last level
    tiny = np.exp(rng.uniform(math.log(1e-300), 0.0, size=(20_000, 3)))
    yield "tiny", tiny
    yield "tiny-one-axis", np.concatenate([tiny[:, :1], rng.uniform(0.0, 1.0, size=(20_000, 2))], axis=1)
    triadic = rng.integers(0, 3**20 + 1, size=(20_000, 3)) / 3.0**20
    yield "triadic", triadic
    yield "triadic+1e-17", triadic + 1e-17
    yield "triadic-1e-17", triadic - 1e-17
    # one ulp below a digit boundary, where 3 y rounds up to an integer: the step
    # leaves 0, not a coordinate of 1, since below 1 the product rounds below 3
    below = np.nextafter(rng.integers(1, 3**12, size=(20_000, 3)) / 3.0**12, 0.0)
    below[::2, 0] = np.nextafter(1.0, 0.0)
    yield "below-boundaries", below


def test_carpet_distances_equal_the_descent_bit_for_bit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, pts in _carpet_families(np.random.default_rng(29)):
            got = distances_to_set(pts, SierpinskiCarpet3D())
            want = carpet_distances_descent(pts)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def test_carpet_kernel_branches_are_taken():
    # the families hold holes found in floats, points that move to the integer
    # lattice, points still in floats at the last level, and lattice points
    # that find no hole by then
    pts = np.concatenate([pts for _, pts in _carpet_families(np.random.default_rng(31))])
    inside = ((pts > 0.0) & (pts < 1.0)).all(axis=1)
    y = pts[inside].T.copy()
    float_holes = lattice_points = 0
    for k in range(geo._CARPET_LEVELS):
        on = (y * 2.0**51 == np.floor(y * 2.0**51)).all(axis=0)
        lattice_points += on.sum()
        y = y[:, ~on] * 3.0
        dig = np.floor(y)
        y -= dig
        hole = (dig == 1.0).all(axis=0)
        float_holes += hole.sum()
        y = y[:, ~hole]
    assert float_holes > 0 and lattice_points > 0 and y.shape[1] > 0
    d = distances_to_set(pts, SierpinskiCarpet3D())[inside]
    assert (d == 0.0).sum() > y.shape[1]


# n / 3^k in [0, 1]
_triadic = st.integers(0, 33).flatmap(lambda k: st.integers(0, 3**k).map(lambda n: n / 3.0**k))


# the descent's outside norms underflow within 2^-510 of the cube; the tiny-distance tests cover those
_carpet_coordinate = st.one_of(
    st.floats(-0.25, 1.25).filter(lambda x: x >= 0.0 or x <= -(2.0**-510)), _triadic, st.floats(0.0, 1e-10)
)


@given(
    st.lists(
        st.tuples(_carpet_coordinate, _carpet_coordinate, _carpet_coordinate),
        min_size=1,
        max_size=64,
    )
)
@settings(max_examples=100, deadline=None)
def test_carpet_distances_equal_the_descent_property(points):
    pts = np.array(points, dtype=float)
    got = distances_to_set(pts, SierpinskiCarpet3D())
    assert np.array_equal(got.view(np.int64), carpet_distances_descent(pts).view(np.int64))


def test_tiny_distances_keep_their_digits():
    # squared offsets below 2^-1022 used to underflow to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert distance_to_set([-1e-170, 0.5, 0.5], SierpinskiCarpet3D()) == 1e-170
        d = distance_to_set([-3e-170, 0.5, -4e-170], SierpinskiCarpet3D())
        assert d == pytest.approx(math.hypot(3e-170, 4e-170), rel=1e-15)


def test_tiny_point_set_distances_keep_their_digits():
    ps = PointSet([[0.0, 0.0], [1.0, 1.0]])
    d = distances_to_set([[1e-200, 1e-200], [1e-160, 0.0], [0.0, -1e-300], [0.3, 0.4]], ps)
    assert d[0] == pytest.approx(math.sqrt(2.0) * 1e-200, rel=1e-15)
    assert d[1] == 1e-160
    assert d[2] == 1e-300
    assert d[3] == 0.5


def test_tiny_distances_to_a_one_point_set():
    assert distances_to_set([[1e-300], [-5e-324], [0.0], [0.25]], PointSet([[0.0]])).tolist() == [
        1e-300,
        5e-324,
        0.0,
        0.25,
    ]


def test_gasket_distances_of_far_points_take_the_outline_without_warnings():
    # the integer digits of a point far outside the triangle would overflow int64
    pts = np.array([[1e300, -1e300], [5.0, 5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = distances_to_set(pts, SierpinskiGasket())
    assert np.isfinite(d).all()
    assert np.array_equal(d, geo._gasket_edge_min(pts[:, 0], pts[:, 1]))


# ---------------------------------------------------------------------------
# tube volumes
# ---------------------------------------------------------------------------


def test_tube_point_is_2t():
    s = tube_volume(PointSet([[0.0]]), 0.25)
    assert s.volume == pytest.approx(0.5, abs=1e-15)
    assert s.method == TubeMethod.EXACT_1D
    # (p + t) - (p - t) rounds to 0 for a point off the origin at these t
    for p in (0.0, 0.5, -0.9):
        for t in (1e-17, 1e-200):
            assert tube_volume(PointSet([[p]]), t).volume == 2.0 * t


def test_tube_cantor_examples():
    c = CantorLike()
    assert tube_volume(c, 1.0 / 6.0).volume == pytest.approx(4.0 / 3.0, rel=1e-14)
    curve = sample_tube_curve(c, [1.0 / 6.0, 0.5])
    assert [s.volume for s in curve] == pytest.approx([4.0 / 3.0, 2.0], rel=1e-14)


def test_tube_point_curve():
    curve = sample_tube_curve(PointSet([[0.0]]), [0.1, 0.2])
    assert [s.volume for s in curve] == pytest.approx([0.2, 0.4], rel=1e-14)


GASKET_TUBE_005 = 0.5369621022212815  # frozen from the hole-decomposition formula


def test_tube_gasket_exact_frozen_value():
    s = tube_volume(SierpinskiGasket(), 0.05)
    assert s.method == TubeMethod.EXACT_CLOSED
    assert s.volume == pytest.approx(GASKET_TUBE_005, rel=1e-14)


def test_tube_gasket_grid_matches_exact_within_bound():
    s = tube_volume(SierpinskiGasket(), 0.05, method="grid", cell=1e-3)
    assert s.method == TubeMethod.GRID_COUNT
    assert abs(s.volume - GASKET_TUBE_005) <= s.error_bound


def test_tube_gasket_large_t_covers_triangle():
    # every hole is filled once t exceeds the largest hole's inradius
    t = 0.2
    expected = SQRT3 / 4.0 + 3.0 * t + math.pi * t * t
    assert tube_volume(SierpinskiGasket(), t).volume == pytest.approx(expected, rel=1e-14)


def test_tube_carpet_large_t_covers_cube():
    t = 0.25
    expected = 1.0 + 6.0 * t + 3.0 * math.pi * t**2 + (4.0 / 3.0) * math.pi * t**3
    assert tube_volume(SierpinskiCarpet3D(), t).volume == pytest.approx(expected, rel=1e-14)


def test_cantor_closed_form_matches_sweep():
    c = CantorLike(ratio=0.3, scale=2.0)
    for t in [0.5, 0.1, 0.03, 0.011, 0.004]:
        starts, length = cantor_segments(c, t)
        sweep = fattened_length(((a, a + length) for a in starts), t)
        assert tube_volume(c, t).volume == pytest.approx(sweep, rel=1e-12)


def test_explicit_string_exact_vs_bruteforce():
    s = FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.125, 0.0625))
    pts, _ = string_points(s)
    pts = np.concatenate([pts, [0.0]])
    for t in [0.01, 0.05, 0.2, 0.6]:
        exact = tube_volume(s, t)
        assert exact.method == TubeMethod.EXACT_1D
        assert exact.volume == pytest.approx(union_measure_of_fattened_points(pts, t), rel=1e-13)


def test_self_similar_string_closed_form_vs_materialized_sweep():
    s = FractalStringBoundary.cantor_string()
    for t in [0.05, 0.01, 0.003]:
        pts, tail_top = string_points(s, min_length=t / 10.0)
        pts = np.concatenate([pts, np.arange(0.0, tail_top, t / 4.0), [tail_top, 0.0]])
        brute = union_measure_of_fattened_points(pts, t)
        assert tube_volume(s, t).volume == pytest.approx(brute, rel=1e-10)


def test_point_set_2d_disjoint_balls():
    ps = PointSet([[0.0, 0.0], [5.0, 0.0]])
    s = tube_volume(ps, 0.5)
    assert s.method == TubeMethod.EXACT_CLOSED
    assert s.volume == pytest.approx(2.0 * math.pi * 0.25, rel=1e-14)


def test_point_set_2d_overlapping_balls_uses_grid():
    ps = PointSet([[0.0, 0.0], [0.5, 0.0]])
    s = tube_volume(ps, 0.5, cell=2e-3)
    assert s.method == TubeMethod.GRID_COUNT
    # union of two radius-1/2 disks at distance 1/2: 2 pi r^2 - lens
    r, d = 0.5, 0.5
    lens = 2.0 * r * r * math.acos(d / (2 * r)) - (d / 2.0) * math.sqrt(4 * r * r - d * d)
    expected = 2.0 * math.pi * r * r - lens
    assert abs(s.volume - expected) <= s.error_bound + 1e-3


def test_monotonicity_within_error_bounds():
    rng = np.random.default_rng(5)
    ts = np.geomspace(0.01, 0.5, 12)
    for set_ in [CantorLike(), FractalStringBoundary.cantor_string(), SierpinskiGasket()]:
        samples = sample_tube_curve(set_, ts)
        for a, b in zip(samples, samples[1:]):
            assert a.volume <= b.volume + a.error_bound + b.error_bound + 1e-12


def test_upper_box_bound():
    for set_ in ALL_SETS:
        n = set_.ambient_dim
        diam = set_.diameter
        for t in [0.05, 0.3]:
            v = tube_volume(set_, t, cell=5e-3 if n > 1 else None).volume
            assert v <= (diam + 2.0 * t) ** n + 1e-9


def test_grid_and_mc_agree_within_bounds():
    cases = [
        (SierpinskiGasket(), 0.1, 2e-3),
        (SierpinskiCarpet3D(), 0.15, 8e-3),
        (CantorLike(), 0.05, 1e-4),
        (FractalStringBoundary.cantor_string(), 0.05, 1e-4),
        (PointSet([[0.0, 0.0], [0.4, 0.1]]), 0.3, 2e-3),
    ]
    for set_, t, cell in cases:
        a = tube_volume(set_, t, method="grid", cell=cell)
        b = tube_volume(set_, t, method="monte_carlo", mc_samples=200_000, seed=99)
        assert abs(a.volume - b.volume) <= a.error_bound + 3.0 * b.error_bound


def test_gasket_grid_curve_reports_error_bounds():
    ts = np.geomspace(1e-2, 1e-1, 16)
    samples = sample_tube_curve(SierpinskiGasket(), ts, method="grid", cell=1e-3)
    assert len(samples) == 16
    for s in samples:
        assert s.method == TubeMethod.GRID_COUNT
        assert s.error_bound > 0.0
        exact = tube_volume(SierpinskiGasket(), s.t).volume
        assert abs(s.volume - exact) <= s.error_bound


def _reference_distances(pts, set_):
    """Distances for the grid cross-checks: the gasket's and the carpet's from the level-by-level descents."""
    if isinstance(set_, SierpinskiGasket):
        return gasket_distances_descent(pts)
    if isinstance(set_, SierpinskiCarpet3D):
        return carpet_distances_descent(pts)
    return distances_to_set(pts, set_)


def _flat_grid_volume(set_, t, cell):
    """Honest flat count over every center with the grid oracle's lattice and rule.

    Returns the volume of the centers within ``t`` and that of the boundary
    cells, those with ``|d - t|`` at most half a cell diagonal.
    """
    lo, hi = set_.bounds()
    lo = lo - t
    hi = hi + t
    origin = lo - cell * geo._GRID_OFFSET
    ncell = np.ceil((hi - origin) / cell).astype(int) + 1
    idx = np.meshgrid(*(np.arange(m) for m in ncell), indexing="ij")
    centers = origin + (np.stack([i.ravel() for i in idx], axis=1) + 0.5) * cell
    d = _reference_distances(centers, set_)
    margin = cell * math.sqrt(set_.ambient_dim) / 2.0
    unit = cell**set_.ambient_dim
    return (d < t).sum() * unit, (np.abs(d - t) <= margin).sum() * unit


# a three-point set in R^2, whose grid counts take the block refinement
TRIANGLE = PointSet([[0.0, 0.0], [0.7, 0.2], [0.3, 0.9]])


_GRID_PROPERTY_SETS = [
    (CantorLike(), 1.0),
    (CantorLike(ratio=0.21, scale=3.7), 3.7),
    (FractalStringBoundary.cantor_string(), 1.0),
    (FractalStringBoundary(base=2.01, multiplicity=2), 1.0),
    (FractalStringBoundary(base=5.5, multiplicity=3, scale=0.7), 0.7),
]


@settings(max_examples=30, deadline=None)
@given(
    index=st.integers(0, len(_GRID_PROPERTY_SETS)),
    u=st.floats(0.0, 1.0),
    cells_per_t=st.floats(2.0, 64.0),
)
def test_grid_within_its_error_bound_of_exact(index, u, cells_per_t):
    if index == len(_GRID_PROPERTY_SETS):
        # the gasket, at cells of at least 3e-4
        set_, t = SierpinskiGasket(), 0.02 * 10.0**u
    else:
        set_, scale = _GRID_PROPERTY_SETS[index]
        t = scale * 10.0 ** (-4.0 + 3.5 * u)
    grid = tube_volume(set_, t, method="grid", cell=t / cells_per_t)
    exact = tube_volume(set_, t, method="exact").volume
    assert abs(grid.volume - exact) <= grid.error_bound + 1e-12 * exact


def test_point_set_builds_one_kd_tree(monkeypatch):
    builds = []
    tree = scipy.spatial.cKDTree

    def counted(*args, **kwargs):
        builds.append(1)
        return tree(*args, **kwargs)

    # geometry imports the tree class when it builds one
    monkeypatch.setattr(scipy.spatial, "cKDTree", counted)
    ps = PointSet([[0.0, 0.0], [0.7, 0.2], [0.3, 0.9]])
    tube_volume(ps, 0.21, method="grid", cell=1e-3)
    assert ps.min_gap == pytest.approx(math.hypot(0.7, 0.2))
    distances_to_set([[0.5, 0.5]], ps)
    assert len(builds) == 1


def _tree_min_gap(ps):
    d, _ = scipy.spatial.cKDTree(np.asarray(ps.points)).query(np.asarray(ps.points), k=2)
    return float(d[:, 1].min())


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 9),
    n=st.integers(2, 40),
    near=st.floats(1e-17, 1e-2),
    scale=st.floats(1e-150, 1e150),
)
@example(seed=0, dim=2, n=2, near=1.0, scale=1.0)
def test_min_gap_has_the_k_d_trees_bits(seed, dim, n, near, scale):
    # numpy up to 4000 points in at most 7 dimensions, the tree above: the same bits, near-duplicates too
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim)) * scale
    j, k = rng.integers(0, n, 2)
    pts[j] = pts[k] + rng.normal(size=dim) * (scale * near)
    ps = PointSet(pts)
    assert ps.min_gap == _tree_min_gap(ps)


def test_min_gap_of_the_point_set_configs_has_the_k_d_trees_bits():
    for points in ([[0.0, 0.0], [1.0, 0.5]], [[0.0, 0.0], [0.7, 0.2], [0.3, 0.9]], [[0.0], [0.3], [1.0]]):
        ps = PointSet(points)
        assert ps.min_gap == _tree_min_gap(ps)
    # duplicate points, and a set past 4000 points, which the tree measures
    assert PointSet([[0.5, 0.5], [0.1, 0.2], [0.5, 0.5]]).min_gap == 0.0
    big = PointSet(np.random.default_rng(1).random((4001, 2)))
    assert big.min_gap == _tree_min_gap(big)


def test_far_points_keep_finite_arithmetic():
    near = np.array([[2.0, 0.5, 0.5], [0.5, 0.5, 0.5], [0.2, -0.3, 1.1]])
    carpet = SierpinskiCarpet3D()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = [[1e300, 1e300, 0.0], [-1e300, 0.5, 0.5], [0.5, 1.7e308, 1.7e308]]
        d = distances_to_set(np.vstack([far, near]), carpet)
        assert d[0] == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
        assert d[1] == pytest.approx(1e300, rel=1e-15)
        # past the float range the distance rounds to inf
        assert d[2] == math.inf
        # the other rows keep their bits
        assert np.array_equal(d[3:], distances_to_set(near, carpet))
        gasket = SierpinskiGasket()
        far = [[1.7e308, 1.7e308], [-1.7e308, 1e308], [1e308, -1.7e308], [1e308, 0.3], [-3e307, -4e307]]
        near = near[:, :2]
        d = distances_to_set(np.vstack([far, near]), gasket)
        assert d[:3].tolist() == [math.inf] * 3
        assert d[3:5] == pytest.approx([1e308, 5e307], rel=1e-15)
        assert np.array_equal(d[5:], distances_to_set(near, gasket))
        assert np.array_equal(d[5:], gasket_distances_descent(near))
        # a k-d tree squares the offsets: far rows are measured at 2^-600 scale
        ps = PointSet([[0.0, 0.0], [1.0, 1.0], [-1e300, 2e300]])
        far = [[1e200, 1e200], [1.7e308, -1.7e308], [-1e300, 1e300], [3e307, 4e307]]
        d = distances_to_set(np.vstack([far, near]), ps)
        assert d[0] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert d[1] == math.inf
        assert d[2] == pytest.approx(1e300, rel=1e-15)
        assert d[3] == pytest.approx(math.hypot(3e307 + 1e300, 4e307 - 2e300), rel=1e-15)
        assert np.array_equal(d[4:], scipy.spatial.cKDTree(np.asarray(ps.points)).query(near)[0])


def test_grid_blocked_equals_flat_bruteforce():
    ps = PointSet([[0.0, 0.0], [0.7, 0.2], [0.3, 0.9]])
    t, cell = 0.21, 0.02
    blocked = tube_volume(ps, t, method="grid", cell=cell)
    flat, _ = _flat_grid_volume(ps, t, cell)
    assert blocked.volume == pytest.approx(flat, abs=1e-12)


def test_grid_blocked_equals_flat_bruteforce_gasket():
    g = SierpinskiGasket()
    t, cell = 0.05, 1e-2
    blocked = tube_volume(g, t, method="grid", cell=cell)
    flat, _ = _flat_grid_volume(g, t, cell)
    assert blocked.volume == pytest.approx(flat, abs=1e-12)


@pytest.mark.parametrize(
    "set_, t, cell",
    [
        (SierpinskiGasket(), 0.05, 7e-3),
        (SierpinskiGasket(), 0.013, 3e-3),
        (SierpinskiCarpet3D(), 0.05, 0.021),
        (PointSet([[0.0, 0.0], [0.7, 0.2], [0.3, 0.9]]), 0.21, 0.013),
    ],
    ids=["gasket", "gasket-small-t", "carpet", "point-set"],
)
def test_grid_quadtree_equals_flat_count_exactly(set_, t, cell):
    lo, hi = set_.bounds()
    ncell = np.ceil((hi + t - (lo - t - cell * (math.sqrt(2.0) - 1.0))) / cell).astype(int) + 1
    # lattices that are not a power of two on any axis, so padding blocks occur
    assert all(m & (m - 1) for m in ncell.tolist())
    blocked = tube_volume(set_, t, method="grid", cell=cell)
    assert (blocked.volume, blocked.error_bound) == _flat_grid_volume(set_, t, cell)


def _axis_split_grid_tube(set_, t, cell, budget_rows=8_000_000):
    """The grid oracle's earlier refinement: blocks of any shape, split in halves axis by axis."""
    n_dim = set_.ambient_dim
    lo, hi = set_.bounds()
    lo = lo - t
    hi = hi + t
    origin = lo - cell * (math.sqrt(2.0) - 1.0)
    ncell = np.ceil((hi - origin) / cell).astype(np.int64) + 1
    margin = cell * math.sqrt(n_dim) / 2.0
    blo = np.zeros((1, n_dim), dtype=np.int64)
    bsz = ncell[None, :].copy()
    inside_cells = 0
    boundary_cells = 0
    rows_seen = 0
    while blo.shape[0]:
        rows_seen += blo.shape[0]
        if rows_seen > budget_rows:
            raise ResolutionTooCoarse("block budget exceeded")
        centers = origin + (blo + 0.5 * bsz) * cell
        rc = cell * np.linalg.norm(0.5 * (bsz - 1), axis=1)
        fine = rc == 0.0
        d = _reference_distances(centers, set_)
        all_in = d + rc < t - margin
        all_out = d - rc >= t + margin
        if all_in.any():
            inside_cells += int(np.prod(bsz[all_in].astype(object), axis=1).sum())
        undecided = ~(all_in | all_out)
        fine_cells = undecided & fine
        if fine_cells.any():
            df = d[fine_cells]
            inside_cells += int((df < t).sum())
            boundary_cells += int((np.abs(df - t) <= margin).sum())
        split = undecided & ~fine
        blo = blo[split]
        bsz = bsz[split]
        for ax in range(n_dim):
            need = bsz[:, ax] > 1
            if not need.any():
                continue
            h1 = bsz[need, ax] // 2
            left_lo, left_sz = blo.copy(), bsz.copy()
            left_sz[need, ax] = h1
            right_lo, right_sz = blo[need].copy(), bsz[need].copy()
            right_lo[:, ax] += h1
            right_sz[:, ax] -= h1
            blo = np.concatenate([left_lo, right_lo])
            bsz = np.concatenate([left_sz, right_sz])
    return inside_cells * cell**n_dim, boundary_cells * cell**n_dim


def test_grid_quadtree_equals_axis_split_on_readme_gasket_grid():
    g = SierpinskiGasket()
    for t in (0.01, 0.0268, 0.0517, 0.1):
        s = tube_volume(g, t, method="grid", cell=5e-4)
        assert (s.volume, s.error_bound) == _axis_split_grid_tube(g, t, 5e-4)


# the README gasket config's radii and grid cell: (t, volume, error_bound)
README_GASKET_GRID = [
    (0.01, 0.26877475, 0.0075899999999999995),
    (0.013894954943731374, 0.30890275, 0.006462),
    (0.019306977288832496, 0.35455475, 0.005143249999999999),
    (0.02682695795279726, 0.40833525, 0.00441),
    (0.037275937203149395, 0.47103675, 0.00347725),
    (0.0517947467923121, 0.5461805, 0.00315675),
    (0.07196856730011521, 0.6382365, 0.00271375),
    (0.1, 0.75445, 0.00264475),
]


def test_grid_pinned_on_readme_gasket_grid():
    assert np.geomspace(1e-2, 1e-1, 8).tolist() == [t for t, _, _ in README_GASKET_GRID]
    for t, volume, error_bound in README_GASKET_GRID:
        s = tube_volume(SierpinskiGasket(), t, method="grid", cell=5e-4)
        assert (s.volume, s.error_bound) == (volume, error_bound)


@pytest.mark.parametrize(
    "set_, t, cell, rows",
    [(TRIANGLE, 0.21, 5e-4, 49_367), (SierpinskiCarpet3D(), 0.05, 0.021, 59_362)],
    ids=["point-set", "carpet"],
)
def test_grid_budget_counts_whole_levels(set_, t, cell, rows, monkeypatch):
    # levels of more than one refinement chunk; the budget is the exact block count
    assert rows > geo._GRID_CHUNK
    monkeypatch.setattr(geo, "_GRID_BUDGET", rows)
    tube_volume(set_, t, method="grid", cell=cell)
    monkeypatch.setattr(geo, "_GRID_BUDGET", rows - 1)
    with pytest.raises(ResolutionTooCoarse):
        tube_volume(set_, t, method="grid", cell=cell)


def _grid_lattice(set_, t, cell):
    lo, hi = set_.bounds()
    return np.ceil((hi + t - (lo - t - cell * (math.sqrt(2.0) - 1.0))) / cell).astype(int) + 1


def _spy(monkeypatch, cls, name):
    """Record the points of every call of the method ``name`` of ``cls``."""
    calls, method = [], getattr(cls, name)

    def spy(self, pts, *args):
        calls.append(pts.copy())
        return method(self, pts, *args)

    monkeypatch.setattr(cls, name, spy)
    return calls


def test_grid_exact_everywhere_when_every_centre_is_near_a_flip(monkeypatch):
    # an infinite tolerance puts every centre near a flip of the comparisons, so each takes distances once
    g, t, cell = SierpinskiGasket(), 0.05, 7e-3
    monkeypatch.setattr(geo, "_GRID_NEAR_FLIP", math.inf)
    exact = _spy(monkeypatch, SierpinskiGasket, "distances")
    s = tube_volume(g, t, method="grid", cell=cell)
    centres = np.concatenate(exact)
    monkeypatch.undo()
    assert (s.volume, s.error_bound) == _flat_grid_volume(g, t, cell)
    nx, ny = _grid_lattice(g, t, cell)
    origin = g.bounds()[0] - t - cell * (math.sqrt(2.0) - 1.0)
    steps = np.round((centres - origin) / cell - 0.5).astype(int)
    assert len(centres) == nx * ny and np.unique(steps[:, 0] * ny + steps[:, 1]).size == nx * ny
    assert np.array_equal(centres, origin + (steps + 0.5) * cell)


def test_grid_exact_fallback_at_a_radius_on_a_centre(monkeypatch):
    # the cell centre (3.5, 2.5) cells from the origin -t - cell (sqrt2 - 1) lies below and left of
    # the vertex (0, 0), at distance |c| = t for t = A + B + sqrt(2 A B): the single-cell comparison
    # d < t sits on its flip, and that centre takes the exact distance
    g, cell = SierpinskiGasket(), 7e-3
    a, b = ((k - (math.sqrt(2.0) - 1.0)) * cell for k in (3.5, 2.5))
    t = a + b + math.sqrt(2.0 * a * b)
    c = g.bounds()[0] - t - cell * (math.sqrt(2.0) - 1.0) + (np.array([3, 2]) + 0.5) * cell
    assert (c < 0.0).all() and float(g.distances(c[None, :])[0]) == pytest.approx(t, rel=1e-15)
    exact = _spy(monkeypatch, SierpinskiGasket, "distances")
    s = tube_volume(g, t, method="grid", cell=cell)
    assert (s.volume, s.error_bound) == _flat_grid_volume(g, t, cell)
    assert any((p == c).all(axis=1).any() for p in exact)


def test_grid_opens_at_the_finest_level_that_fits_one_chunk(monkeypatch):
    ps, t, cell = TRIANGLE, 0.21, 3e-3
    ncell = _grid_lattice(ps, t, cell)
    blocks = lambda side: math.prod(-(-int(n) // side) for n in ncell)
    assert blocks(1) > blocks(2) > geo._GRID_CHUNK > blocks(4)
    calls = _spy(monkeypatch, PointSet, "distances")
    s = tube_volume(ps, t, method="grid", cell=cell)
    # the opening level is every block of side 4, in one chunk, each centred on its 4 x 4 cells
    assert len(calls[0]) == blocks(4)
    origin = ps.bounds()[0] - t - cell * (math.sqrt(2.0) - 1.0)
    steps = (calls[0] - origin) / cell - 2.0
    assert np.allclose(steps, 4.0 * np.round(steps / 4.0), atol=1e-6)
    monkeypatch.undo()
    assert (s.volume, s.error_bound) == _flat_grid_volume(ps, t, cell)


def test_grid_small_lattice_opens_at_single_cells(monkeypatch):
    ps, t, cell = TRIANGLE, 0.21, 0.02
    ncell = _grid_lattice(ps, t, cell)
    assert math.prod(ncell.tolist()) <= geo._GRID_CHUNK
    calls = _spy(monkeypatch, PointSet, "distances")
    s = tube_volume(ps, t, method="grid", cell=cell)
    # one level, every cell of the lattice
    assert [len(p) for p in calls] == [math.prod(ncell.tolist())]
    monkeypatch.undo()
    assert (s.volume, s.error_bound) == _flat_grid_volume(ps, t, cell)


@pytest.mark.parametrize("t", [0.0287, 0.0414, 0.091, 0.1148])
def test_gasket_grid_row_on_a_core_top_edge(t, monkeypatch):
    # the rows lie at y = -t + (j + 1.5 - sqrt2) cell and the big hole's core has its top edge at
    # sqrt3/4 - t: this cell puts row 40 on it at every t, where every centre of the edge is on the flip d = t
    cell = (SQRT3 / 4.0) / (40 + 1.5 - math.sqrt(2.0))
    g = SierpinskiGasket()
    y = g.bounds()[0][1] - t - cell * (math.sqrt(2.0) - 1.0) + 40.5 * cell
    assert abs(y - (SQRT3 / 4.0 - t)) < 1e-15
    exact = _spy(monkeypatch, SierpinskiGasket, "distances")
    s = tube_volume(g, t, method="grid", cell=cell)
    # that row, whole, took exact distances
    assert any((p[:, 1] == y).sum() == _grid_lattice(g, t, cell)[0] for p in exact)
    monkeypatch.undo()
    assert (s.volume, s.error_bound) == _flat_grid_volume(g, t, cell)


@pytest.mark.parametrize("t, cell", [(0.2488, 7e-3), (0.1204, 0.011), (0.1204, 0.013)])
def test_gasket_grid_row_on_the_outline_bottom_offset(t, cell, monkeypatch):
    # half-cell offsets put row 0 at y = -t, along the outline's offset below the bottom edge: on the
    # flip d = t; at these radii y rounds above -t, so the centres below the edge have d = -y < t
    monkeypatch.setattr(geo, "_GRID_OFFSET", 0.5)
    g = SierpinskiGasket()
    y = g.bounds()[0][1] - t - cell * 0.5 + 0.5 * cell
    assert -t < y < -t + 1e-16
    s = tube_volume(g, t, method="grid", cell=cell)
    assert (s.volume, s.error_bound) == _flat_grid_volume(g, t, cell)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(1e-4, 0.3), cell=st.floats(5e-3, 0.05))
# t a hair above the margin cell / sqrt2 and far below the cell, which take the block refinement, and a hair
# above the margin plus one cell, the thinnest tube that the rows count
@example(t=0.01 / math.sqrt(2.0) * (1.0 + 1e-9), cell=0.01)
@example(t=1e-6, cell=0.01)
@example(t=0.01 / math.sqrt(2.0) + 0.01 * (1.0 + 1e-9), cell=0.01)
def test_gasket_grid_row_count_equals_flat_count_property(t, cell):
    s = tube_volume(SierpinskiGasket(), t, method="grid", cell=cell)
    assert (s.volume, s.error_bound) == _flat_grid_volume(SierpinskiGasket(), t, cell)


def test_gasket_grid_budget_counts_rows_and_row_hole_pairs(monkeypatch):
    g, t, cell = SierpinskiGasket(), 0.01, 5e-4
    # the rows fit the budget, but the holes that they cross count too
    monkeypatch.setattr(geo, "_GRID_BUDGET", int(_grid_lattice(g, t, cell)[1]))
    with pytest.raises(ResolutionTooCoarse):
        tube_volume(g, t, method="grid", cell=cell)


def _row_count_and_exact_rows(t, cell, monkeypatch):
    """The gasket grid's ``(inside, boundary)`` cells at ``t`` and the rows that took exact distances."""
    g = SierpinskiGasket()
    exact = _spy(monkeypatch, SierpinskiGasket, "distances")
    s = tube_volume(g, t, method="grid", cell=cell)
    monkeypatch.undo()
    oy = g.bounds()[0][1] - t - cell * geo._GRID_OFFSET
    ys = np.concatenate([p[:, 1] for p in exact]) if exact else np.empty(0)
    rows = np.unique(np.round((ys - oy) / cell - 0.5).astype(int))
    return round(s.volume / cell**2), round(s.error_bound / cell**2), rows


def _assert_row_count_matches_six_flips(t, cell, monkeypatch):
    inside, boundary, rows = _row_count_and_exact_rows(t, cell, monkeypatch)
    ref_inside, ref_boundary, ref_rows = gasket_grid_counts_six_flips(t, cell)
    assert (inside, boundary) == (ref_inside, ref_boundary)
    # every row that the six radii flag takes exact distances
    assert set(ref_rows.tolist()) <= set(rows.tolist())


@settings(max_examples=25, deadline=None)
@given(t=st.floats(3e-3, 0.28), cell=st.floats(2e-4, 2e-3))
# rows 0, 8 and 21, within reach of the disc about (0, 0), have a centre near a flip
@example(t=0.008, cell=5e-4)
def test_gasket_row_count_at_three_flips_equals_six_flip_reference(t, cell):
    assume(t - cell * math.sqrt(2.0) / 2.0 >= cell)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_row_count_matches_six_flips(t, cell, monkeypatch)


@pytest.mark.parametrize("cell", [5e-4, 2.5e-4, 1e-3])
@pytest.mark.parametrize("t", [0.01, 0.0125, 0.025, 0.05, 0.1, 0.125, 1.0 / (4.0 * SQRT3), 0.2, 0.25])
def test_gasket_row_count_at_special_radii_equals_six_flip_reference(t, cell, monkeypatch):
    # dyadic radii, and the big hole's inradius, at which a core closes
    _assert_row_count_matches_six_flips(t, cell, monkeypatch)


def _radius_with_a_centre_on_an_end(end, cell, y):
    """A radius near 0.05 at which a lattice centre of the row near ``y`` lies on an interval end, and that row.

    The lattice moves with ``t``: the centre ``(i, j)`` is at ``(X - t, Y - t)``.  The ends lie on the band
    offset from the left edge, ``sqrt3 x = y - 2 t``, on the one from the right edge,
    ``sqrt3 x = sqrt3 + 2 t - y``, and on the big hole's core, ``|x - 1/2| = (y - 2 t) / sqrt3``.
    """
    off, t0 = cell * geo._GRID_OFFSET, 0.05
    x = {
        "band_left": (y - 2.0 * t0) / SQRT3,
        "band_right": 1.0 + (2.0 * t0 - y) / SQRT3,
        "core_left": 0.5 - (y - 2.0 * t0) / SQRT3,
        "core_right": 0.5 + (y - 2.0 * t0) / SQRT3,
    }[end]
    i, j = (round((v + t0 + off) / cell - 0.5) for v in (x, y))
    X, Y = (i + 0.5) * cell - off, (j + 0.5) * cell - off
    t = {
        "band_left": (Y - SQRT3 * X) / (3.0 - SQRT3),
        "band_right": (SQRT3 * X + Y - SQRT3) / (3.0 + SQRT3),
        "core_left": (Y + SQRT3 * (X - 0.5)) / (3.0 + SQRT3),
        "core_right": (Y - SQRT3 * (X - 0.5)) / (3.0 - SQRT3),
    }[end]
    return t, j


@pytest.mark.parametrize("cell", [5e-4, 7.3e-4])
@pytest.mark.parametrize("end, y", [("band_left", 0.4), ("band_right", 0.4), ("core_left", 0.3), ("core_right", 0.3)])
def test_gasket_row_with_a_centre_on_an_interval_end_takes_exact_distances(end, y, cell, monkeypatch):
    # the end moves across the centre within the tolerance about the flip t: the six radii flag the row,
    # and so must the bound on the ends' move
    t, j = _radius_with_a_centre_on_an_end(end, cell, y)
    assert abs(t - 0.05) < cell
    assert j in gasket_grid_counts_six_flips(t, cell)[2]
    _assert_row_count_matches_six_flips(t, cell, monkeypatch)


# (t, cell, volume, error_bound) of the gasket grid on the 48 radii of the benchmark's seed-1
# gasket configs, recorded with the row count at six radii
SEEDED_GASKET_GRID = [
    (0.01, 0.0005, 0.26877475, 0.0075899999999999995),
    (0.013894954943731374, 0.0005, 0.30890275, 0.006462),
    (0.019306977288832496, 0.0005, 0.35455475, 0.005143249999999999),
    (0.02682695795279726, 0.0005, 0.40833525, 0.00441),
    (0.037275937203149395, 0.0005, 0.47103675, 0.00347725),
    (0.0517947467923121, 0.0005, 0.5461805, 0.00315675),
    (0.07196856730011521, 0.0005, 0.6382365, 0.00271375),
    (0.1, 0.0005, 0.75445, 0.00264475),
    (0.003, 0.00025, 0.1627870625, 0.007860124999999999),
    (0.01068487069035907, 0.00025, 0.2762021875, 0.00362375),
    (0.03805548722323143, 0.00025, 0.475079875, 0.0017329374999999999),
    (0.13553932001294647, 0.00025, 0.8970504374999999, 0.0012844999999999998),
    (0.004, 0.0003, 0.18363833999999998, 0.007890389999999999),
    (0.006914293453427364, 0.0003, 0.23047991999999995, 0.0058134599999999995),
    (0.011951863490027111, 0.0003, 0.28941543, 0.00419535),
    (0.020659672871337992, 0.0003, 0.36450710999999997, 0.0030012299999999997),
    (0.03571176022106075, 0.0003, 0.4622435999999999, 0.00219969),
    (0.061730397476712016, 0.0003, 0.5931325799999999, 0.0017865899999999998),
    (0.10670552078767466, 0.0003, 0.7816581899999999, 0.0015826499999999997),
    (0.18444832095669397, 0.0003, 1.09336347, 0.0016384499999999996),
    (0.006, 0.0004, 0.21700352, 0.00846),
    (0.008153884984507543, 0.0004, 0.24700848, 0.00694544),
    (0.011080973390096257, 0.0004, 0.28026496, 0.00585728),
    (0.015058830423205579, 0.0004, 0.3194032, 0.0049640000000000005),
    (0.02046466187867021, 0.0004, 0.36302896, 0.00410832),
    (0.027811083200918813, 0.0004, 0.41457488000000003, 0.00356272),
    (0.037794728952476944, 0.0004, 0.47361776, 0.00292384),
    (0.051362312149855684, 0.0004, 0.54386864, 0.00266656),
    (0.06980039763471624, 0.0004, 0.62891936, 0.00231328),
    (0.0948574023643947, 0.0004, 0.73329696, 0.00219552),
    (0.12890939146807132, 0.0004, 0.8708752000000001, 0.00208976),
    (0.17518539190891852, 0.0004, 1.0551502400000001, 0.00214896),
    (0.008, 0.0005, 0.24529099999999998, 0.008787),
    (0.00969423319553544, 0.0005, 0.265372, 0.007689),
    (0.011747269656177648, 0.0005, 0.28755074999999997, 0.0070855),
    (0.01423509643222793, 0.0005, 0.31211025, 0.0063662499999999995),
    (0.017249793046869008, 0.0005, 0.33848025, 0.0054937499999999995),
    (0.020902939546384225, 0.0005, 0.3665785, 0.00498475),
    (0.025329746304353536, 0.0005, 0.398211, 0.0045544999999999995),
    (0.030694058432269383, 0.0005, 0.433156, 0.0040365),
    (0.037194420019976276, 0.0005, 0.47059275, 0.00348725),
    (0.045071422655792705, 0.0005, 0.5123067499999999, 0.00330775),
    (0.054616610209974166, 0.0005, 0.5599185, 0.00309975),
    (0.0661832694656439, 0.0005, 0.61330675, 0.0028469999999999997),
    (0.08019950598036395, 0.0005, 0.67269525, 0.00269625),
    (0.09718408914254836, 0.0005, 0.7429232499999999, 0.00266175),
    (0.11776565288044585, 0.0005, 0.8264342499999999, 0.0026067499999999997),
    (0.14270596268094016, 0.0005, 0.9253017499999999, 0.0025582499999999998),
]


def test_gasket_grid_pinned_on_seeded_radii():
    for t, cell, volume, error_bound in SEEDED_GASKET_GRID:
        s = tube_volume(SierpinskiGasket(), t, method="grid", cell=cell)
        assert (s.volume, s.error_bound) == (volume, error_bound)


def test_grid_lattice_past_int64_raises():
    # 1e19 cells per axis hung the axis-split refinement on a wrapped int64 size
    with pytest.raises(ResolutionTooCoarse):
        tube_volume(CantorLike(), 0.1, method="grid", cell=1e-19)


def test_grid_budget_raises(monkeypatch):
    monkeypatch.setattr(geo, "_GRID_BUDGET", 500)
    with pytest.raises(ResolutionTooCoarse):
        tube_volume(SierpinskiGasket(), 0.05, method="grid", cell=1e-4)


def test_mc_deterministic_for_seed():
    a = tube_volume(SierpinskiGasket(), 0.1, method="monte_carlo", mc_samples=50_000, seed=3)
    b = tube_volume(SierpinskiGasket(), 0.1, method="monte_carlo", mc_samples=50_000, seed=3)
    c = tube_volume(SierpinskiGasket(), 0.1, method="monte_carlo", mc_samples=50_000, seed=4)
    assert a.volume == b.volume
    assert a.volume != c.volume


def test_tube_volume_validation():
    with pytest.raises(ValueError):
        tube_volume(PointSet([[0.0]]), -0.1)
    with pytest.raises(ValueError):
        tube_volume(PointSet([[0.0]]), 0.1, method="nonsense")
    with pytest.raises(ValueError):
        sample_tube_curve(PointSet([[0.0]]), [0.2, 0.1])


def test_distances_reject_non_finite_points():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            distances_to_set([[0.5, bad]], SierpinskiGasket())
        with pytest.raises(ValueError):
            distances_to_set([[bad]], PointSet([[0.0]]))
    # True was taken as the coordinate 1.0
    for bad in ([[True, 0.2]], np.array([[True, False]])):
        with pytest.raises(ValueError):
            distances_to_set(bad, SierpinskiGasket())


def test_tube_volume_rejects_non_finite_t():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            tube_volume(SierpinskiGasket(), bad)


def test_grid_rejects_bad_cell():
    # True gave a grid of 1-unit cells, volume 2 and bound 4
    for bad in (math.nan, math.inf, 0.0, -1e-2, True, "0.01"):
        with pytest.raises(ValueError):
            tube_volume(SierpinskiGasket(), 0.05, method="grid", cell=bad)


def test_tube_radii_must_be_real_numbers():
    # True raised a bare numpy TypeError from the exact volumes, and a curve took "0.1" as 0.1
    g = SierpinskiGasket()
    for bad in (True, False, "0.1", None, 0.05j):
        for method in ("exact", "grid", "monte_carlo"):
            with pytest.raises(ValueError):
                tube_volume(g, bad, method, cell=0.01, mc_samples=1000)
        with pytest.raises(ValueError):
            sample_tube_curve(g, [0.05, bad], "grid", cell=0.01)
    assert tube_volume(g, np.float64(0.05), "exact") == tube_volume(g, 0.05, "exact")
    assert sample_tube_curve(g, [0.05, 1], "exact") == sample_tube_curve(g, [0.05, 1.0], "exact")


def test_monte_carlo_rejects_zero_samples():
    with pytest.raises(ValueError):
        tube_volume(SierpinskiGasket(), 0.05, method="monte_carlo", mc_samples=0)


def test_monte_carlo_rejects_non_integer_samples():
    # True gave a one-sample volume with error_bound = 0.0, and 2e4 a bare TypeError
    for bad in (True, 2e4, 2e4 + 0.5, math.nan):
        with pytest.raises(ValueError):
            tube_volume(SierpinskiGasket(), 0.05, method="monte_carlo", mc_samples=bad)
    a = tube_volume(SierpinskiGasket(), 0.05, method="monte_carlo", mc_samples=np.int64(2000), seed=3)
    assert a == tube_volume(SierpinskiGasket(), 0.05, method="monte_carlo", mc_samples=2000, seed=3)


# ---------------------------------------------------------------------------
# array-valued exact tube volumes
# ---------------------------------------------------------------------------

# The self-similar sets are checked against their true volumes (300-digit
# decimals, see references.py); the explicit string against the float loop
# of its gap sum, bit for bit.


def _string_tube_loop(set_, t):
    ls = np.asarray(set_.lengths)
    return float(2.0 * t + np.minimum(ls, 2.0 * t).sum())


def _point_sweep(set_, t):
    return union_measure_of_fattened_points(np.array([p[0] for p in set_.points]), t)


_LOOP_CASES = [
    (CantorLike(), cantor_volume),
    (CantorLike(ratio=0.21, scale=3.7), cantor_volume),
    (FractalStringBoundary.cantor_string(), string_volume),
    (FractalStringBoundary(base=5.5, multiplicity=3, scale=0.7), string_volume),
    (FractalStringBoundary(base=2.5, multiplicity=1, scale=2.0), string_volume),
    (FractalStringBoundary(lengths=tuple(np.sort(np.random.default_rng(5).random(300))[::-1])), _string_tube_loop),
    (SierpinskiGasket(), gasket_volume),
    (SierpinskiCarpet3D(), carpet_volume),
]


@pytest.mark.parametrize("set_, loop", _LOOP_CASES, ids=lambda v: type(v).__name__)
def test_exact_volumes_array_equals_scalar_loop(set_, loop):
    ts = np.exp(np.random.default_rng(11).uniform(math.log(1e-150), math.log(2.0), 400))
    got = tube_volumes(set_, ts)
    assert [tube_volume(set_, t, "exact").volume for t in ts[:40].tolist()] == got[:40].tolist()
    assert np.array_equal(tube_volumes(set_, ts.reshape(20, 20)), got.reshape(20, 20))
    want = [loop(set_, t) for t in ts.tolist()]
    if not isinstance(want[0], Decimal):
        assert np.array_equal(got, want)
        return
    # 8 ulp from t = 1e-6 up, 1e-13 relative below, down to t = 1e-150
    err = np.array([float(abs(Decimal(g) - w)) for g, w in zip(got.tolist(), want)])
    want = np.array([float(w) for w in want])
    large = ts >= 1e-6
    assert (err[large] <= 8.0 * np.spacing(want[large])).all()
    assert (err[~large] <= 1e-13 * want[~large]).all()


def test_tube_volumes_loops_over_other_sets(monkeypatch):
    measured = []
    measure = geo._grid_tube

    def counted(set_, t, *args):
        measured.append(t)
        return measure(set_, t, *args)

    monkeypatch.setattr(geo, "_grid_tube", counted)
    # 1D point sets take the array path, a repeated point included
    ts = np.array([0.01, 0.04, 0.2])
    for ps in (PointSet([[0.0], [0.3], [0.35]]), PointSet([[0.3], [0.0], [0.35], [0.3]])):
        vols = tube_volumes(ps, ts).tolist()
        assert not measured
        assert vols == [tube_volume(ps, t).volume for t in ts.tolist()]
        assert vols == pytest.approx([_point_sweep(ps, t) for t in ts.tolist()], rel=1e-14)
        measured.clear()
    cloud = PointCloud([[0.1, 0.2], [0.4, 0.9]])
    assert tube_volumes(cloud, [0.05]).tolist() == [tube_volume(cloud, 0.05).volume]
    assert measured == [0.05, 0.05]


_E1, _EC, _GRID, _MC = "exact_1d", "exact_closed", "grid_count", "monte_carlo"

# (set, radii, method tags of tube_volume at each radius).  The two-point
# sets have min_gap / 2 = 0.5: a radius at or below it takes the disjoint
# balls, one above it the grid (R^2, R^3) or Monte Carlo (R^4).
_DISPATCH_CASES = [
    (ALL_SETS[0], [0.01, 0.1, 0.3, 0.7], [_E1] * 4),
    (ALL_SETS[1], [0.01, 0.1, 0.3, 0.7], [_EC, _EC, _EC, _GRID]),
    (ALL_SETS[2], [0.01, 0.1, 0.3, 0.7], [_E1] * 4),
    (ALL_SETS[3], [0.01, 0.1, 0.3, 0.7], [_E1] * 4),
    (ALL_SETS[4], [0.01, 0.1, 0.3, 0.7], [_E1] * 4),
    (ALL_SETS[5], [0.01, 0.1, 0.3, 0.7], [_EC] * 4),
    (ALL_SETS[6], [0.01, 0.1, 0.3, 0.7], [_EC] * 4),
    (ALL_SETS[7], [0.01, 0.1, 0.3, 0.7], [_GRID] * 4),
    (PointSet([[0.0, 0.0], [1.0, 0.0]]), [0.1, 0.5, 0.6], [_EC, _EC, _GRID]),
    (PointSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), [0.1, 0.5, 0.6], [_EC, _EC, _GRID]),
    (PointSet([[0.0] * 4, [1.0, 0.0, 0.0, 0.0]]), [0.1, 0.5, 0.6], [_EC, _EC, _MC]),
    (PointSet([[0.0, 0.0]]), [0.1, 0.7, 5.0], [_EC] * 3),
    (PointCloud([[0.0, 0.0], [1.0, 0.0]]), [0.1, 0.6], [_GRID] * 2),
]


@pytest.mark.parametrize(
    "set_, ts, methods", _DISPATCH_CASES, ids=[f"{type(c[0]).__name__}-{c[0].ambient_dim}d-{i}" for i, c in enumerate(_DISPATCH_CASES)]
)
def test_tube_volume_dispatch_is_pinned(set_, ts, methods, monkeypatch):
    samples = [tube_volume(set_, t) for t in ts]
    assert [s.method.value for s in samples] == methods
    assert tube_volumes(set_, ts).tolist() == [s.volume for s in samples]
    # the auto curve over the same ascending radii (across exact_max for the
    # two-point sets) measures its exact radii in one exact_volumes call
    calls = []
    exact_volumes = type(set_).exact_volumes

    def counted(self, radii):
        calls.append(radii.tolist())
        return exact_volumes(self, radii)

    monkeypatch.setattr(type(set_), "exact_volumes", counted)
    assert sample_tube_curve(set_, ts) == samples
    exact = [s.t for s in samples if s.method.value in (_E1, _EC)]
    assert calls == ([exact] if exact else [])


def test_tube_volumes_rejects_bad_radii():
    bools = np.array([True, False])
    # a bool among floats was cast to 1.0
    for bad in ([0.1, math.nan], [math.inf], [0.0], [-1e-3], [True], bools, ["0.1"], [0.1j], [True, 0.1], [0.1, np.True_]):
        for set_ in (CantorLike(), PointSet([[0.0]])):
            with pytest.raises(ValueError):
                tube_volumes(set_, bad)
    assert tube_volumes(CantorLike(), []).shape == (0,)
    assert tube_volumes(CantorLike(), np.array([1, 2])).tolist() == tube_volumes(CantorLike(), [1.0, 2.0]).tolist()


def test_deep_cantor_levels_past_the_float_range_of_their_count():
    # 2^n with n > 1023 gap levels wider than 2t raised OverflowError
    c = CantorLike(ratio=0.4999)
    t = 1e-315
    n = 0
    while c.largest_gap * c.ratio**n > 2.0 * t:
        n += 1
    assert n > 1023
    want = math.ldexp(2.0 * t, n) + c.scale * (2.0 * c.ratio) ** n
    assert tube_volume(c, t).volume == want
    assert tube_volumes(c, [t, 1e-300]).tolist() == [want, tube_volume(c, 1e-300).volume]
    assert want <= tube_volume(c, 1e-300).volume
    s = FractalStringBoundary(base=2.01, multiplicity=2)
    v = tube_volumes(s, [1e-320, 1e-300, 1e-200])
    assert np.isfinite(v).all() and (np.diff(v) > 0).all()


@pytest.mark.parametrize("set_, t", [(SierpinskiCarpet3D(), 1e103), (SierpinskiGasket(), 1e160)], ids=["carpet", "gasket"])
def test_tube_volume_rejects_radius_past_float_volume(set_, t):
    # the carpet raised OverflowError from pow(t, 3); the gasket returned inf with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            tube_volume(set_, t)
        with pytest.raises(ValueError):
            tube_volumes(set_, [0.1, t])
        assert math.isfinite(tube_volume(set_, t * 1e-10).volume)


def test_exact_volumes_past_hole_count_overflow():
    # the hole counts 26^(k-1), 3^(k-1) and 2^(k-1) overflow a float at these
    # radii; the hole sums hold only bounded powers of the level ratios, and
    # the Cantor set's hull is too large to scale its subnormal radii by 2^64
    for set_, t, t_ok, reference in [
        (SierpinskiCarpet3D(), 1e-150, 1e-100, carpet_volume),
        (SierpinskiGasket(), 1e-196, 1e-150, gasket_volume),
        (CantorLike(scale=1e300), 1e-320, 1e-300, cantor_volume),
    ]:
        v = tube_volume(set_, t, "exact").volume
        assert math.isfinite(v) and v >= 0.0
        assert v <= tube_volume(set_, t_ok, "exact").volume
        # unscaled, the subnormal radius keeps only part of its digits
        assert v == pytest.approx(float(reference(set_, t)), rel=1e-4)
        assert np.isfinite(tube_volumes(set_, [5e-324, 1e-300, t, 0.1])).all()


@pytest.mark.parametrize(
    "set_",
    [
        SierpinskiGasket(),
        SierpinskiCarpet3D(),
        CantorLike(),
        FractalStringBoundary.cantor_string(),
        FractalStringBoundary(base=1.5, multiplicity=1),
    ],
    ids=["gasket", "carpet", "cantor", "cantor_string", "string_base_1.5"],
)
def test_level_tables_grown_in_place_give_the_bits_of_fresh_ones(set_):
    # a shallow table, grown twice (the second time through the 2^64 scaling
    # of subnormal radii), then read again by the shallow radii
    radii = [np.geomspace(floor, set_.default_delta, 300) for floor in (1e-3, 1e-200, 5e-324, 1e-3)]
    fresh = []
    for ts in radii:
        geo._level_table.cache_clear()
        fresh.append(set_.exact_volumes(ts).tobytes())
    geo._level_table.cache_clear()
    assert [set_.exact_volumes(ts).tobytes() for ts in radii] == fresh


def test_level_table_cache_stays_bounded():
    geo._level_table.cache_clear()
    ts = np.geomspace(1e-30, 0.1, 50)
    for i in range(1000):
        tube_volumes(CantorLike(scale=1.0 + i / 1000.0), ts)
    info = geo._level_table.cache_info()
    assert info.misses == 1000
    assert info.currsize <= info.maxsize == 16


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.floats(0.05, 0.45),
    scale=st.floats(0.1, 10.0),
    base=st.floats(2.0, 9.0),
    multiplicity=st.integers(1, 8),
    lo=st.floats(-60.0, 0.0),
)
def test_exact_volume_nondecreasing_in_t(ratio, scale, base, multiplicity, lo):
    # a grid plus both sides of every level jump; at a jump the two closed
    # forms agree only to rounding, so allow a decrease of 1e-14 relative
    sets = [
        (CantorLike(ratio=ratio, scale=scale), lambda n: (1.0 - 2.0 * ratio) * scale * ratio**n / 2.0),
        # the holes fill at their inradius
        (SierpinskiGasket(), lambda n: 2.0 ** -(n + 1) / (2.0 * SQRT3)),
        (SierpinskiCarpet3D(), lambda n: 3.0 ** -(n + 1) / 2.0),
    ]
    if multiplicity < base:
        string = FractalStringBoundary(base=base, multiplicity=multiplicity, scale=scale)
        sets.append((string, lambda n: scale * base ** -(n + 1) / 2.0))
    for set_, jump in sets:
        jumps = np.array([jump(n) for n in range(500)])
        ts = np.concatenate([np.exp(np.linspace(lo, lo + 3.0, 100)), jumps, np.nextafter(jumps, 0.0)])
        ts = np.sort(ts[ts > 0.0])
        vols = tube_volumes(set_, ts)
        assert (np.diff(vols) >= -1e-14 * vols[1:]).all()


def _polynomial_miss(set_, lo, hi, at) -> float:
    """Relative miss at ``at`` of the degree-N polynomial through N + 1 exact volumes inside ``(lo, hi)``."""
    n = set_.ambient_dim
    x = np.arange(1, n + 2) / (n + 3)
    vols = set_.exact_volumes(np.append(lo + (hi - lo) * x, at))
    xa = (at - lo) / (hi - lo)
    weights = [math.prod((xa - x[j]) / (x[i] - x[j]) for j in range(n + 1) if j != i) for i in range(n + 1)]
    return abs(float(np.dot(weights, vols[:-1])) - vols[-1]) / vols[-1]


@pytest.mark.parametrize(
    "set_",
    [
        PointSet([[0.0]]),
        PointSet([[0.0], [0.3], [1.0], [1.05]]),
        PointSet([[0.0, 0.0], [1.0, 0.5]]),
        PointCloud([[0.0], [0.4], [1.0]]),
        CantorLike(),
        CantorLike(ratio=0.2, scale=3.0),
        FractalStringBoundary.cantor_string(),
        FractalStringBoundary(base=5.0, multiplicity=3, scale=0.7),
        FractalStringBoundary(lengths=(0.5, 0.25, 0.25, 0.125)),
        SierpinskiGasket(),
        SierpinskiCarpet3D(),
    ],
    ids=repr,
)
def test_exact_volumes_are_one_polynomial_between_breakpoints(set_):
    # N + 1 samples inside an interval between breakpoints predict a further one
    # to rounding; samples below a breakpoint miss a radius above it
    breaks = set_.volume_breaks(1e-280)
    assert (breaks > 1e-280).all() and (np.diff(breaks) < 0).all()
    if breaks.size:
        edges = np.concatenate(([2.0 * breaks[0]], breaks, [0.5 * breaks[-1]]))
    else:
        edges = np.array([min(1.0, set_.exact_max), 1e-3])
    n = set_.ambient_dim
    for k in sorted({0, 1, 2, len(edges) // 2, len(edges) - 2} & set(range(len(edges) - 1))):
        hi, lo = edges[k], edges[k + 1]
        assert _polynomial_miss(set_, lo, hi, lo + (hi - lo) * (n + 2) / (n + 3)) <= 1e-12
        if k:
            assert _polynomial_miss(set_, lo, hi, hi + 0.5 * (edges[k - 1] - hi)) >= 1e-4


def test_hole_breakpoints_are_the_fill_radii():
    # the level-k gaps of a Cantor set fill at half their width, the gasket's
    # holes at their inradius and the carpet's at half their side
    ks = np.arange(40)
    for set_, fill in [
        (CantorLike(ratio=0.2, scale=3.0), 0.6 * 3.0 * 0.2**ks / 2.0),
        (SierpinskiGasket(), 2.0 ** -(ks + 1.0) / (2.0 * SQRT3)),
        (SierpinskiCarpet3D(), 3.0 ** -(ks + 1.0) / 2.0),
    ]:
        breaks = set_.volume_breaks(1e-280)
        np.testing.assert_allclose(breaks[:40], fill, rtol=1e-13)
        assert breaks[-1] * fill[1] / fill[0] <= 1e-280
    assert PointSet([[0.0], [0.3], [1.0]]).volume_breaks(0.2).tolist() == [0.35]
    assert PointSet([[0.0, 0.0], [1.0, 0.5]]).volume_breaks(1e-280).size == 0


# ---------------------------------------------------------------------------
# descriptors and serialization
# ---------------------------------------------------------------------------


def test_descriptor_validation():
    with pytest.raises(ValueError):
        CantorLike(ratio=0.5)
    with pytest.raises(ValueError):
        CantorLike(ratio=0.0)
    with pytest.raises(ValueError):
        FractalStringBoundary(lengths=(0.1, 0.2))  # increasing
    with pytest.raises(ValueError):
        FractalStringBoundary(lengths=(0.1, -0.2))
    with pytest.raises(ValueError):
        FractalStringBoundary(base=3.0, multiplicity=4)  # not summable
    with pytest.raises(ValueError):
        FractalStringBoundary()
    # these raised a bare TypeError, or were accepted: a fractional multiplicity
    # then failed the JSON round trip, and a bool was serialised as true
    for bad in (
        dict(base="3", multiplicity=2),
        dict(base=3.0, multiplicity=2, scale="1"),
        dict(lengths=0.5),
        dict(base=3.0, multiplicity=2.5),
        dict(base=3.0, multiplicity=True),
        dict(lengths=("0.5",)),
        dict(lengths=(True,)),
    ):
        with pytest.raises(ValueError):
            FractalStringBoundary(**bad)
    with pytest.raises(ValueError):
        PointSet([])
    with pytest.raises(ValueError):
        PointSet([[0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        # points without coordinates reached cKDTree, which raised IndexError
        PointSet([[]])
    with pytest.raises(ValueError):
        PointCloud([[0.0, 1.0]], ambient_dim=3)
    with pytest.raises(ValueError):
        PointSet([[math.inf]])


def test_cantor_rejects_infinite_scale():
    with pytest.raises(ValueError):
        CantorLike(scale=math.inf)
    # a string ratio raised a bare TypeError from the range comparison
    with pytest.raises(ValueError):
        CantorLike(ratio="0.1")
    with pytest.raises(ValueError):
        set_from_json({"variant": "cantor_like", "ratio": "0.1"})


def test_string_rejects_nan_base():
    with pytest.raises(ValueError):
        FractalStringBoundary(base=math.nan, multiplicity=2)


def test_string_rejects_infinite_length():
    with pytest.raises(ValueError):
        FractalStringBoundary(lengths=(math.inf, 1.0))


def test_string_boundary_points():
    s = FractalStringBoundary(lengths=(0.5, 0.3, 0.2))
    pts, tail = string_points(s)
    assert tail == 0.0
    assert list(pts) == pytest.approx([1.0, 0.5, 0.2])
    assert distances_to_set(np.append(pts, 0.0)[:, None], s).tolist() == [0.0] * 4
    cs = FractalStringBoundary.cantor_string()
    assert cs.total_length == pytest.approx(1.0)
    pts, tail = string_points(cs, min_length=0.01)
    assert pts[0] == pytest.approx(1.0)
    assert np.all(np.diff(pts) < 0)
    assert tail <= pts[-1] + 1e-12
    assert not distances_to_set(pts[:, None], cs).any()


def test_string_distance_points_built_once(monkeypatch):
    # the level table is built once per descriptor, from level_tail
    builds = []
    level_tail = FractalStringBoundary.level_tail

    def counted(self, n):
        builds.append(n)
        return level_tail(self, n)

    monkeypatch.setattr(FractalStringBoundary, "level_tail", counted)
    s = FractalStringBoundary.cantor_string()
    xs = np.linspace(-0.1, 1.1, 101)[:, None]
    first = distances_to_set(xs, s)
    table = len(builds)
    assert table > 0
    assert np.array_equal(distances_to_set(xs, s), first)
    assert len(builds) == table


_TABLE_STRINGS = [
    FractalStringBoundary.cantor_string(),
    FractalStringBoundary(base=2.01, multiplicity=2),
    FractalStringBoundary(base=5.5, multiplicity=3, scale=0.7),
    FractalStringBoundary(base=2.5, multiplicity=1, scale=2.0),
    FractalStringBoundary(base=9.0, multiplicity=1),
    # 709k levels: its distances find the levels near each query from a logarithm
    FractalStringBoundary(base=1.001, multiplicity=1, scale=0.01),
    FractalStringBoundary(base=7.0, multiplicity=6, scale=3.0),
    FractalStringBoundary(lengths=tuple(np.sort(np.random.default_rng(5).random(300))[::-1])),
]


def _covered_by_list(set_, x, min_length, max_count=2_000_000):
    """The list search's distances, and where its listed points alone decide them.

    That is above its segment's top by two gaps of the last listed level,
    where the segment cannot stand in for a listed point.
    """
    d, tail = string_distances_list(set_, x, min_length, max_count)
    gap = 0.0
    if set_.is_self_similar:
        n = 1
        while set_.scale * set_.base ** -(n + 1) > min_length and set_.level_tail(n) > tail:
            n += 1
        gap = set_.scale * set_.base**-n
    return d, x > tail + 2.0 * gap


@pytest.mark.parametrize("set_", _TABLE_STRINGS, ids=lambda s: f"{s.base}-{s.multiplicity}")
def test_string_distances_equal_list_search(set_):
    rng = np.random.default_rng(17)
    top = set_.total_length
    listed, _ = string_points(set_, 1e-12 * set_.scale)
    listed = np.sort(listed)
    spacing = np.diff(listed).min(initial=top)
    tails = np.array([set_.level_tail(n) for n in range(1, 60)]) if set_.is_self_similar else listed
    families = {
        "uniform": rng.uniform(-0.1 * top, 1.1 * top, 200_000),
        "skewed": top * rng.random(200_000) ** 8,
        "listed": rng.choice(listed, 200_000) + rng.normal(0.0, spacing, 200_000) * rng.integers(0, 2, 200_000),
        "levels": np.concatenate([tails, np.nextafter(tails, 0.0), np.nextafter(tails, np.inf)]),
    }
    for name, x in families.items():
        want, covered = _covered_by_list(set_, x, 1e-12 * set_.scale)
        got = distances_to_set(x[:, None], set_)
        assert covered.any(), name
        assert np.array_equal(got[covered], want[covered]), name
        if not set_.is_self_similar:
            assert np.array_equal(got, want), name


@settings(max_examples=40, deadline=None)
@given(
    base=st.floats(1.5, 12.0),
    multiplicity=st.integers(1, 11),
    scale=st.floats(1e-3, 1e3),
    u=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=50),
)
def test_string_distances_equal_list_search_property(base, multiplicity, scale, u):
    if multiplicity >= base:
        return
    s = FractalStringBoundary(base=base, multiplicity=multiplicity, scale=scale)
    x = np.array(u) * s.total_length
    # listed points and their neighbours, over the old list's reach (2000 points for speed)
    listed, _ = string_points(s, 1e-12 * scale, 2_000)
    x = np.concatenate([x, listed, np.nextafter(listed, 0.0), np.nextafter(listed, np.inf)])
    want, covered = _covered_by_list(s, x, 1e-12 * scale, 2_000)
    assert np.array_equal(distances_to_set(x[:, None], s)[covered], want[covered])


def _cantor_string_distance_exact(x):
    """Distance from a float to the Cantor string's points in exact rationals.

    Level ``n`` holds ``(2/3)^(n-1) - i 3^-n`` for ``i = 1 .. 2^(n-1)``, the
    top point is 1 and the points accumulate at 0.
    """
    x = Fraction(x)
    if x <= 0:
        return -x
    n = 1
    while Fraction(2, 3) ** n > x:
        n += 1
    # x lies in [(2/3)^n, (2/3)^(n-1)], spanned by level n and its neighbours
    best = min(abs(x - 1), abs(x - Fraction(2, 3) ** n))
    for level in (n - 1, n, n + 1):
        if level < 1:
            continue
        anchor, length = Fraction(2, 3) ** (level - 1), Fraction(1, 3**level)
        i = math.floor((anchor - x) / length)
        for k in (i, i + 1):
            k = min(max(k, 1), 2 ** (level - 1))
            best = min(best, abs(x - (anchor - k * length)))
    return best


def test_cantor_string_distances_below_the_old_list_match_exact_rationals():
    s = FractalStringBoundary.cantor_string()
    _, tail = string_points(s, 1e-12)
    rng = np.random.default_rng(23)
    # below the old list's tail, down to the table's floor segment at about 1e-9 and past it
    x = tail * np.exp(rng.uniform(math.log(1e-8), 0.0, 400))
    got = distances_to_set(x[:, None], s)
    want = np.array([float(_cantor_string_distance_exact(v)) for v in x.tolist()])
    # the float points carry the rounding of (2/3)**n, about n ulps at level n <= 51
    assert (np.abs(got - want) <= 64.0 * np.spacing(x)).all()
    assert (got > 0.0).mean() > 0.5


def test_string_mc_matches_exact_where_the_old_segment_stood():
    # the list search filled 90% of this string's hull with a segment, which
    # put Monte Carlo 8 half-widths off the exact volume at t = 1e-7
    s = FractalStringBoundary(base=2.01, multiplicity=2)
    t = 1e-7
    mc = tube_volume(s, t, method="monte_carlo", mc_samples=1_000_000, seed=1)
    exact = tube_volume(s, t).volume
    assert abs(mc.volume - exact) <= 3.0 * mc.error_bound
    assert 0.0 < distance_to_set([85.0], s) < 1e-10


@pytest.mark.parametrize(
    "base, multiplicity, scale",
    [
        (1.01, 1, 1.0), (1.01, 1, 1e200), (1.002, 1, 1e-200),
        (3.0, 2, 1.0), (3.0, 2, 1e200), (3.0, 2, 1e-200),
        (2.000000002, 2, 1.0), (10.0, 3, 1.0), (7.5, 7, 1.0), (1000.0, 999, 1.0),
    ],
    ids=[
        "1.01-1.0", "1.01-1e+200", "1.002-1e-200", "3-2-1", "3-2-1e200", "3-2-1e-200",
        "2.000000002-2-1", "10-3-1", "7.5-7-1", "1000-999-1",
    ],
)
def test_string_levels_near_the_queries_equal_the_whole_table(base, multiplicity, scale):
    # from 71k-124k levels of one point to a few levels of many: the rows
    # near the queries give the bits of the table of every level
    s = FractalStringBoundary(base=base, multiplicity=multiplicity, scale=scale)
    rng = np.random.default_rng(8)
    top = s.total_length
    x = np.concatenate([
        rng.uniform(-0.1 * top, 1.1 * top, 100_000),
        top * np.exp(-rng.uniform(0.0, 700.0, 100_000)),
        s.level_tail(rng.integers(0, s._end, 2_000)),
        [0.0, 5e-324, top, np.nextafter(top, 0.0)],
    ])
    table = (*s._rows(np.arange(s._end - 1, 0, -1)), s.level_tail(s._end - 1))
    assert np.array_equal(distances_to_set(x[:, None], s), geo._row_distances(x, *table))


def test_string_distances_of_no_points():
    # an empty chunk of queries has no levels near it
    for set_ in _TABLE_STRINGS:
        assert distances_to_set(np.empty((0, 1)), set_).shape == (0,)


def test_multiplicity_one_string_distances_stay_bounded_near_base_1():
    # 7.1M levels: a table of them took 1.6 GB; the rows near 20k queries take a few MiB
    import time
    import tracemalloc

    s = FractalStringBoundary(base=1.0001, multiplicity=1)
    rng = np.random.default_rng(2)
    x = s.total_length * np.concatenate([rng.random(10_000), rng.random(10_000) ** 40])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        got = distances_to_set(x[:, None], s)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0
    assert peak < 32 * 2**20
    want, covered = _covered_by_list(s, x, 1e-12, 50_000)
    assert covered.sum() > 10_000
    assert np.array_equal(got[covered], want[covered])


def test_json_round_trip():
    for set_ in ALL_SETS:
        encoded = set_to_json(set_)
        decoded = set_from_json(encoded)
        assert decoded == set_
    with pytest.raises(ValueError):
        set_from_json({"variant": "dodecahedron"})


# (bounding box lo, hi, diameter, default delta, t_valid_max, box dimension, JSON),
# one row per ALL_SETS entry, as computed before the descriptor protocol existed
PINNED_FACTS = [
    ([0.0], [0.0], 0.0, 1.0, math.inf, 0.0, {"variant": "point_set", "points": [[0.0]]}),
    (
        [0.0, 0.0], [1.0, 0.5], 1.118033988749895, 1.0, 0.5590169943749475, 0.0,
        {"variant": "point_set", "points": [[0.0, 0.0], [1.0, 0.5]]},
    ),
    (
        [0.0], [1.0], 1.0, 0.5, 0.16666666666666669, 0.6309297535714574,
        {"variant": "cantor_like", "ratio": 0.3333333333333333, "scale": 1.0},
    ),
    (
        [0.0], [1.0], 1.0, 0.3333333333333333, 0.16666666666666666, 0.6309297535714574,
        {"variant": "string_boundary", "base": 3.0, "multiplicity": 2, "scale": 1.0},
    ),
    (
        [0.0], [1.125], 1.125, 0.5, 0.0625, 0.0,
        {"variant": "string_boundary", "lengths": [0.5, 0.25, 0.25, 0.125]},
    ),
    (
        [0.0, 0.0], [1.0, 0.8660254037844386], 1.0, 0.5, 0.2886751345948129, 1.5849625007211563,
        {"variant": "sierpinski_gasket"},
    ),
    (
        [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.7320508075688772, 0.25, 0.5, 2.96564727304425,
        {"variant": "sierpinski_carpet_3d"},
    ),
    (
        [0.1, 0.2], [0.7, 0.9], 0.7615773105863908, 1.0, math.inf, 0.0,
        {"variant": "point_cloud", "points": [[0.1, 0.2], [0.4, 0.9], [0.7, 0.3]], "ambient_dim": 2},
    ),
]


@pytest.mark.parametrize("index", range(len(ALL_SETS)))
def test_descriptor_facts_pinned(index):
    set_ = ALL_SETS[index]
    lo, hi = set_.bounds()
    t_valid, dim = set_.t_valid_max, set_.box_dimension
    facts = (lo.tolist(), hi.tolist(), set_.diameter, default_delta(set_), t_valid, dim, set_to_json(set_))
    # repr tells 0.0 from 0 and keeps every float digit
    assert repr(facts) == repr(PINNED_FACTS[index])


def test_json_rejects_fractional_multiplicity():
    # a string or bool went through float(), and a missing field raised a bare TypeError
    for bad in (2.7, math.inf, math.nan, "2", True):
        with pytest.raises(ValueError):
            set_from_json({"variant": "string_boundary", "base": 3.0, "multiplicity": bad})
    for data in (
        {"variant": "string_boundary", "base": "3", "multiplicity": 2},
        {"variant": "string_boundary", "base": 3.0},
        {"variant": "string_boundary", "lengths": 0.5},
        {"variant": "point_set"},
    ):
        with pytest.raises(ValueError):
            set_from_json(data)
    again = set_from_json({"variant": "string_boundary", "base": 3.0, "multiplicity": 2.0})
    assert again == FractalStringBoundary.cantor_string()
