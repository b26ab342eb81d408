"""Neighbor index: exactness against a brute-force max-norm scan."""

import numpy as np
import pytest

from infonet import DataError, NeighborIndex
from infonet.errors import EstimatorError


def brute_kth_distance(points, query, k):
    """Distance to the k-th neighbor, exact zero-distance matches excluded."""
    d = np.max(np.abs(points - query), axis=1)
    d = np.sort(d[d > 0.0]) if np.any(d == 0.0) else np.sort(d)
    return d[k - 1]


def brute_range_count(points, query, radius):
    d = np.max(np.abs(points - query), axis=1)
    return int(np.sum(d < radius))


class TestHandGeometry:
    def test_collinear_middle_point(self):
        points = np.array([[0.0], [1.0], [2.0]])
        index = NeighborIndex(points)
        assert index.kth_distance(np.array([1.0]), 1) == 1.0

    def test_zero_radius_counts_nothing(self):
        points = np.array([[0.0], [1.0], [2.0]])
        index = NeighborIndex(points)
        assert index.range_count(np.array([1.0]), 0.0) == 0

    def test_strict_inequality_at_boundary(self):
        points = np.array([[0.0], [1.0], [2.0]])
        index = NeighborIndex(points)
        # neighbors at exactly distance 1 must not count
        assert index.range_count(np.array([1.0]), 1.0) == 1  # only the point itself
        assert index.range_count(np.array([1.0]), np.nextafter(1.0, 2.0)) == 3

    def test_empty_point_set_rejected(self):
        with pytest.raises(DataError):
            NeighborIndex(np.empty((0, 2)))

    def test_k_too_large(self):
        index = NeighborIndex(np.array([[0.0], [1.0]]))
        with pytest.raises(EstimatorError):
            index.member_kth_distance(2)


class TestBruteForceExactness:
    def test_random_configurations(self):
        rng = np.random.default_rng(30)
        for trial in range(100):
            n = int(rng.integers(10, 60))
            dim = int(rng.integers(1, 4))
            points = rng.normal(size=(n, dim))
            index = NeighborIndex(points)
            k = int(rng.integers(1, min(6, n - 1) + 1))
            for i in rng.integers(0, n, size=5):
                q = points[i]
                assert index.kth_distance(q, k) == brute_kth_distance(points, q, k)
                radius = float(rng.uniform(0, 2))
                assert index.range_count(q, radius) == brute_range_count(points, q, radius)

    def test_member_batch_matches_brute(self):
        rng = np.random.default_rng(31)
        points = rng.uniform(size=(200, 2))
        index = NeighborIndex(points)
        for k in (1, 3, 5):
            fast = index.member_kth_distance(k)
            slow = np.array([brute_kth_distance(points, p, k) for p in points])
            assert np.array_equal(fast, slow)

    def test_range_count_batch_matches_brute(self):
        rng = np.random.default_rng(32)
        points = rng.uniform(size=(150, 3))
        index = NeighborIndex(points)
        radii = rng.uniform(0.0, 0.5, size=150)
        fast = index.range_count(points, radii)
        slow = np.array(
            [brute_range_count(points, p, r) for p, r in zip(points, radii)]
        )
        assert np.array_equal(fast, slow)

    def test_external_queries(self):
        rng = np.random.default_rng(33)
        points = rng.normal(size=(80, 2))
        queries = rng.normal(size=(20, 2))
        index = NeighborIndex(points)
        for q in queries:
            assert index.kth_distance(q, 2) == brute_kth_distance(points, q, 2)
            r = float(rng.uniform(0, 1.5))
            assert index.range_count(q, r) == brute_range_count(points, q, r)
