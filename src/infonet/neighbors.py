"""Exact nearest-neighbor queries under the maximum (Chebyshev) norm.

The k-nearest-neighbor estimators rely on three conventions fixed here:
distances use the max norm; a range count takes the strict inequality
``max_i |p_i - q_i| < r``, evaluated in floats exactly as written; and a query
point that coincides with a stored point is not its own k-th neighbor.

Range counts walk no tree. The index sorts its points by their first
coordinate once, on its first count:

- on a 1-D point set a count is two ``searchsorted`` calls on the sorted
  values, whose window edges are then re-checked directly, so rounding of
  ``q -+ r`` never moves a point across the strict boundary;
- on d >= 2 the queries are sorted too and scanned in blocks, each one
  Chebyshev ``cdist`` against only the band of stored points whose first
  coordinate can lie within the block's radii. A fixed number of cells, not
  rows, bounds each distance block.

At small n this is a dense scan in C; at large n the band keeps it close to
linear. k-th-neighbor distances use a ``scipy.spatial.cKDTree`` that is built
on first use, so an index that only counts never builds one. Results are
exact; the test suite checks them against a brute-force scan, ties included.

scipy is imported where it is called, not with this module: a program that
never takes a k-th distance or a count on d >= 2 points never loads it.

For callers that query one small point set many times with different
radii, :func:`chebyshev_matrix`, :func:`dense_kth_distance` and
:func:`dense_range_count` give the same distances, k-th distances and
counts from a full (n, n) distance matrix, under the same conventions;
:func:`sorted_range_count` gives the counts from its sorted rows.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DataError, EstimatorError

# Query-by-point cells of one Chebyshev distance block (512 KiB of float64).
_BLOCK_CELLS = 1 << 16


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n - 1:
        raise EstimatorError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")


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

    @cached_property
    def _sorted(self) -> np.ndarray:
        """The points in order of first coordinate."""
        return self.points[np.argsort(self.points[:, 0], kind="stable")]

    @cached_property
    def _keys(self) -> np.ndarray:
        return np.ascontiguousarray(self._sorted[:, 0])

    @cached_property
    def _tree(self):
        """A ``scipy.spatial.cKDTree`` over the points."""
        from scipy.spatial import cKDTree

        return cKDTree(self.points)

    def _queries(self, query) -> np.ndarray:
        q = np.atleast_2d(np.asarray(query, dtype=np.float64))
        if q.ndim != 2 or q.shape[1] != self.dim:
            raise DataError(
                f"query points must have width {self.dim}, got shape {np.shape(query)}"
            )
        if not np.all(np.isfinite(q)):
            raise DataError("query points must be finite")
        return q

    def kth_distance(self, query: np.ndarray, k: int) -> np.ndarray | float:
        """Max-norm distance to the k-th nearest neighbor.

        A stored point at exactly zero distance from the query (the query
        itself, typically) is excluded from the count.
        """
        q = self._queries(query)
        _check_k(k, self.n)
        dist, _ = self._tree.query(q, k=k + 1, p=np.inf)
        # Column k is correct when the query coincides with a stored point
        # (self at distance 0 occupies column 0), column k-1 otherwise.
        out = np.where(dist[:, 0] == 0.0, dist[:, k], dist[:, k - 1])
        if np.ndim(query) == 1:
            return float(out[0])
        return out

    def member_kth_distance(self, k: int) -> np.ndarray:
        """kth-neighbor distance for every stored point, self excluded."""
        _check_k(k, self.n)
        dist, _ = self._tree.query(self.points, k=k + 1, p=np.inf)
        return dist[:, k]

    def range_count(self, query: np.ndarray, radius) -> np.ndarray | int:
        """Number of stored points strictly closer than ``radius``.

        A stored point coinciding with the query counts (its distance 0 is
        strictly below any positive radius); callers working with member
        points subtract one for self. A radius <= 0 counts nothing.
        """
        q = self._queries(query)
        r = np.broadcast_to(np.asarray(radius, dtype=np.float64), (q.shape[0],))
        if np.any(np.isnan(r)):
            raise DataError("radius must not be NaN")
        if self.dim == 1:
            counts = self._count_sorted(q[:, 0], r)
        else:
            counts = self._count_banded(q, r)
        if np.ndim(query) == 1 and np.ndim(radius) == 0:
            return int(counts[0])
        return counts

    def _count_sorted(self, q: np.ndarray, r: np.ndarray) -> np.ndarray:
        keys = self._keys
        # Every float p with fl(|p - q|) < r lies in [fl(q - r), fl(q + r)], so
        # [lo, hi) holds every counted point; the points that pass form one
        # run of it. Its edge points can still fail once |p - q| is rounded:
        # drop whole runs of tied keys until both edge points pass.
        lo = np.searchsorted(keys, q - r, "left")
        hi = np.searchsorted(keys, q + r, "right")
        while True:
            i = np.flatnonzero(lo < hi)
            i = i[np.abs(keys[lo[i]] - q[i]) >= r[i]]
            if i.size == 0:
                break
            lo[i] = np.searchsorted(keys, keys[lo[i]], "right")
        while True:
            i = np.flatnonzero(lo < hi)
            i = i[np.abs(keys[hi[i] - 1] - q[i]) >= r[i]]
            if i.size == 0:
                break
            hi[i] = np.searchsorted(keys, keys[hi[i] - 1], "left")
        return np.maximum(hi - lo, 0)

    def _count_banded(self, q: np.ndarray, r: np.ndarray) -> np.ndarray:
        m = q.shape[0]
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        # Band of stored points whose first coordinate can pass the test; the
        # same [fl(q - r), fl(q + r)] bound as the 1-D count.
        lo = np.searchsorted(self._keys, q[:, 0] - r, "left")
        hi = np.searchsorted(self._keys, q[:, 0] + r, "right")
        if m * (hi.max() - lo.min()) <= _BLOCK_CELLS:
            # One block holds every query, so their order does not matter.
            return self._count_block(q, r, lo.min(), hi.max())
        # Queries run in order of first coordinate, so that the rows of a
        # block share one band.
        order = np.argsort(q[:, 0], kind="stable")
        q, r, lo, hi = q[order], r[order], lo[order], hi[order]
        counts = np.empty(m, dtype=np.int64)
        start = 0
        while start < m:
            # A block's band spans its first row's band, so no block holding
            # more rows than this fits in the cell budget.
            cap = min(m - start, _BLOCK_CELLS // max(hi[start] - lo[start], 1))
            span = np.maximum.accumulate(hi[start:start + cap]) - np.minimum.accumulate(
                lo[start:start + cap]
            )
            cells = np.arange(1, cap + 1) * span
            stop = start + max(int(np.searchsorted(cells, _BLOCK_CELLS, "right")), 1)
            counts[start:stop] = self._count_block(
                q[start:stop], r[start:stop], lo[start:stop].min(), hi[start:stop].max()
            )
            start = stop
        out = np.empty_like(counts)
        out[order] = counts
        return out

    def _count_block(self, q: np.ndarray, r: np.ndarray, a: int, b: int) -> np.ndarray:
        """Counts of one block of queries against the stored points a..b-1 in key order."""
        from scipy.spatial.distance import cdist

        counts = np.zeros(q.shape[0], dtype=np.int64)
        # A single row may hold a band wider than the budget: split it.
        step = max(_BLOCK_CELLS // q.shape[0], 1)
        for c in range(a, b, step):
            d = cdist(q, self._sorted[c:min(c + step, b)], "chebyshev")
            counts += np.sum(d < r[:, None], axis=1, dtype=np.int32)
        return counts


def chebyshev_matrix(points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(n, n) max-norm distances between the rows of an (n, d >= 1) point set.

    Each entry is ``max_i |p_i - q_i|``, exactly the value the index's
    queries compare, and the diagonal is exactly 0. Written into ``out``
    when given. One column takes one ``subtract`` and one ``abs``, the
    same float operations as ``cdist``'s, without its per-pair calls.
    """
    if points.shape[1] == 1:
        out = np.subtract(points, points.T, out=out)
        return np.abs(out, out=out)
    from scipy.spatial.distance import cdist

    return cdist(points, points, "chebyshev", out=out)


def dense_kth_distance(distances: np.ndarray, k: int) -> np.ndarray:
    """k-th-neighbor distance of every member from its rows of distances, self included.

    Partitions the rows of ``distances`` in place: the full (n, n) matrix, or
    any rows of it or of a subset of its columns. A member sits at distance
    0 from itself, so column ``k`` of its partitioned full row is its k-th
    neighbor, as in :meth:`NeighborIndex.member_kth_distance`.
    """
    _check_k(k, distances.shape[1])
    distances.partition(k, axis=1)
    return distances[:, k].copy()


def dense_range_count(distances: np.ndarray, radii: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Members strictly closer than each row's positive radius, self excluded.

    ``work`` is a boolean buffer of the matrix's shape.
    """
    np.less(distances, radii[:, np.newaxis], out=work)
    return np.count_nonzero(work, axis=1) - 1


def sorted_range_count(sorted_rows: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """:func:`dense_range_count` of many sets of radii against one fixed matrix.

    ``sorted_rows`` is the (n, n) distance matrix with each row sorted
    ascending, and row ``j`` of ``radii`` holds one positive radius per
    member. A left ``searchsorted`` of a radius in a sorted row counts the
    entries strictly below it, so one call per row counts it for every set.
    """
    counts = np.empty(radii.shape, dtype=np.int64)
    for i, row in enumerate(sorted_rows):
        counts[:, i] = np.searchsorted(row, radii[:, i], "left")
    return counts - 1
