"""Neighbor index: exactness against a brute-force max-norm scan."""

import numpy as np
import pytest

import infonet.neighbors
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


def brute_distances(points, queries):
    return np.max(np.abs(points[None, :, :] - queries[:, None, :]), axis=2)


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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_no_queries(self, dim):
        index = NeighborIndex(np.zeros((3, dim)))
        counts = index.range_count(np.empty((0, dim)), np.empty(0))
        assert counts.shape == (0,)

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


class TestBadQueries:
    @pytest.fixture
    def index(self):
        return NeighborIndex(np.random.default_rng(34).normal(size=(20, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_point(self, index, bad):
        q = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(DataError):
            index.range_count(q, 0.5)
        with pytest.raises(DataError):
            index.kth_distance(q, 2)

    def test_nan_radius(self, index):
        with pytest.raises(DataError):
            index.range_count(np.zeros(2), np.nan)
        with pytest.raises(DataError):
            index.range_count(np.zeros((3, 2)), np.array([0.5, np.nan, 0.5]))

    @pytest.mark.parametrize("width", [1, 3])
    def test_query_width_differs_from_dim(self, index, width):
        q = np.zeros((4, width))
        with pytest.raises(DataError):
            index.range_count(q, 0.5)
        with pytest.raises(DataError):
            index.kth_distance(q, 2)

    def test_k_out_of_range_for_external_queries(self, index):
        for k in (0, index.n):
            with pytest.raises(EstimatorError):
                index.kth_distance(np.zeros(2), k)


class TestTiesAreExact:
    """Integer-grid points tie exactly, so every band edge and window edge is hit."""

    @staticmethod
    def _radii(rng, dist):
        """Radii taken from the pairwise distances and their float neighbors."""
        picked = dist[np.arange(dist.shape[0]), rng.integers(0, dist.shape[1], dist.shape[0])]
        return (picked, np.nextafter(picked, np.inf), np.nextafter(picked, -np.inf))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_grid_points(self, dim):
        rng = np.random.default_rng(40 + dim)
        for n in (12, 90, 700):
            points = rng.integers(0, 5, size=(n, dim)) * 0.1 - 0.2
            index = NeighborIndex(points)
            dist = brute_distances(points, points)
            for radii in self._radii(rng, dist):
                expected = np.sum(dist < radii[:, None], axis=1)
                assert np.array_equal(index.range_count(points, radii), expected)
            ranked = np.sort(dist, axis=1)  # column 0 is self
            for k in (1, 4, 10):
                assert np.array_equal(index.member_kth_distance(k), ranked[:, k])

    @pytest.mark.parametrize("dim", [1, 3])
    def test_external_grid_queries(self, dim):
        rng = np.random.default_rng(50 + dim)
        points = rng.integers(0, 6, size=(700, dim)).astype(float)
        queries = rng.integers(-1, 7, size=(300, dim)) + rng.choice([0.0, 0.5], size=(300, dim))
        index = NeighborIndex(points)
        dist = brute_distances(points, queries)
        for radii in self._radii(rng, dist) + (np.zeros(300), np.full(300, np.inf)):
            expected = np.sum(dist < radii[:, None], axis=1)
            assert np.array_equal(index.range_count(queries, radii), expected)

    def test_large_offsets_round_the_window(self):
        # At 1e8 the spacing of floats is 1.5e-8, so q -+ r rounds visibly.
        rng = np.random.default_rng(55)
        for dim in (1, 2):
            points = 1e8 + rng.integers(0, 4, size=(300, dim)) * 3e-8
            index = NeighborIndex(points)
            dist = brute_distances(points, points)
            for radii in self._radii(rng, dist):
                expected = np.sum(dist < radii[:, None], axis=1)
                assert np.array_equal(index.range_count(points, radii), expected)

    @pytest.mark.parametrize("cells", [1, 64])
    def test_bands_wider_than_a_block(self, monkeypatch, cells):
        monkeypatch.setattr(infonet.neighbors, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(56)
        points = rng.integers(0, 4, size=(150, 2)).astype(float)
        index = NeighborIndex(points)
        dist = brute_distances(points, points)
        for radii in self._radii(rng, dist):
            expected = np.sum(dist < radii[:, None], axis=1)
            assert np.array_equal(index.range_count(points, radii), expected)
