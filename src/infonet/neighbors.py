"""Exact nearest-neighbor queries under the maximum (Chebyshev) norm.

Thin wrapper around ``scipy.spatial.cKDTree`` fixing the conventions the
k-nearest-neighbor estimators rely on: distances use the max norm, range
counts use strict inequality, and a query point that coincides exactly with a
stored point is not its own neighbor. Results are exact; the test suite
checks them against a brute-force scan.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, EstimatorError


class NeighborIndex:
    """Immutable spatial index over an (n, d) point set."""

    def __init__(self, points: np.ndarray):
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DataError("neighbor index requires a non-empty (n, d) point set")
        if not np.all(np.isfinite(pts)):
            raise DataError("points must be finite")
        self.points = pts
        self.n, self.dim = pts.shape
        self._tree = cKDTree(pts)

    def kth_distance(self, query: np.ndarray, k: int) -> np.ndarray | float:
        """Max-norm distance to the k-th nearest neighbor.

        A stored point at exactly zero distance from the query (the query
        itself, typically) is excluded from the count.
        """
        q = np.atleast_2d(np.asarray(query, dtype=np.float64))
        if not 1 <= k < self.n + 1:
            raise EstimatorError(f"k must satisfy 1 <= k <= n-1 for member queries, got k={k}, n={self.n}")
        if k + 1 > self.n:
            raise EstimatorError(f"k={k} too large for point set of size {self.n}")
        dist, _ = self._tree.query(q, k=k + 1, p=np.inf)
        # Column k is correct when the query coincides with a stored point
        # (self at distance 0 occupies column 0), column k-1 otherwise.
        out = np.where(dist[:, 0] == 0.0, dist[:, k], dist[:, k - 1])
        if np.ndim(query) == 1:
            return float(out[0])
        return out

    def member_kth_distance(self, k: int) -> np.ndarray:
        """kth-neighbor distance for every stored point, self excluded."""
        if not 1 <= k <= self.n - 1:
            raise EstimatorError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={self.n}")
        dist, _ = self._tree.query(self.points, k=k + 1, p=np.inf)
        return dist[:, k]

    def range_count(self, query: np.ndarray, radius) -> np.ndarray | int:
        """Number of stored points strictly closer than ``radius``.

        A stored point coinciding with the query counts (its distance 0 is
        strictly below any positive radius); callers working with member
        points subtract one for self.
        """
        q = np.atleast_2d(np.asarray(query, dtype=np.float64))
        r = np.broadcast_to(np.asarray(radius, dtype=np.float64), (q.shape[0],)).copy()
        counts = np.zeros(q.shape[0], dtype=np.int64)
        positive = r > 0.0
        if np.any(positive):
            # Strict inequality: d < r holds exactly when d <= pred(r) in floats.
            shrunk = np.nextafter(r[positive], -np.inf)
            got = self._tree.query_ball_point(
                q[positive], shrunk, p=np.inf, return_length=True
            )
            counts[positive] = np.asarray(got, dtype=np.int64)
        if np.ndim(query) == 1 and np.ndim(radius) == 0:
            return int(counts[0])
        return counts
