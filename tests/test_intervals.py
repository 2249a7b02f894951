import numpy as np
import pytest

from fractalzeta.geometry import PointSet, tube_volumes
from fractalzeta.intervals import gap_volumes
from references import fattened_length, union_measure_of_fattened_points


def test_fatten_degenerate_point():
    assert gap_volumes(np.array([1.0]), np.empty(0)).tolist() == [1.0]
    assert fattened_length([(0.0, 0.0)], 0.5) == 1.0


def test_fatten_two_points_disjoint():
    assert gap_volumes(np.array([0.8]), np.array([1.0])).tolist() == pytest.approx([1.6])
    assert fattened_length([(0.0, 0.0), (1.0, 1.0)], 0.4) == pytest.approx(1.6)


def test_fatten_two_points_merged():
    assert gap_volumes(np.array([1.2]), np.array([1.0])).tolist() == pytest.approx([2.2])
    assert fattened_length([(0.0, 0.0), (1.0, 1.0)], 0.6) == pytest.approx(2.2)


def test_merge_normalizes_overlaps():
    # overlapping, unsorted intervals: (-0.25, 2.25) and (2.75, 4.25)
    assert fattened_length([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)], 0.25) == pytest.approx(4.0)
    # a repeated point adds a zero gap; the order of the points does not matter
    ts = np.array([1e-3, 0.05, 0.3])
    repeated = tube_volumes(PointSet([[0.7], [0.0], [0.7], [0.2]]), ts)
    assert repeated.tolist() == tube_volumes(PointSet([[0.0], [0.2], [0.7]]), ts).tolist()


def test_fattened_measure_matches_overlap_accounting():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        pts = rng.uniform(-5.0, 5.0, size=rng.integers(1, 40))
        t = float(rng.uniform(0.01, 1.5))
        direct = union_measure_of_fattened_points(pts, t)
        assert tube_volumes(PointSet(pts[:, None]), [t])[0] == pytest.approx(direct, rel=1e-13)
        assert fattened_length(zip(pts, pts), t) == pytest.approx(direct, rel=1e-13)
