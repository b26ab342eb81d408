"""k-nearest-neighbor MI and CMI for continuous data.

The conditional estimator (Frenzel & Pompe 2007) fixes the neighborhood
radius per point as the distance to its k-th neighbor in the joint space
(max norm) and counts strictly-closer neighbors in the (x,z), (y,z) and (z)
subspaces. Mutual information (Kraskov, Stoegbauer & Grassberger 2004) is
its empty-z case, in which the (z) count is every other point. Local values
are the per-point terms before averaging, so the local-average identity is
exact by construction.

A NaN or infinite input raises ``InvalidValueError`` (see
:mod:`~infonet.estimators.base`). Inputs are jittered with tiny uniform noise
to break ties; a zero k-th-neighbor distance after jittering means duplicate
points and raises ``DuplicatePointsError``. The noise comes from one
generator seeded by the settings, drawn for x, then y, then z, so calls
that differ only in x add the same noise to y and z.

``KnnEstimator.cmis``, behind every surrogate batch and candidate pool,
uses that: while an (n, n) matrix fits in the neighbor module's
``_BLOCK_CELLS``, it builds the (y,z) and (z) max-norm distance matrices
once, and per member only the (x) one (brute-force search at small n, as in
Wollstadt et al. 2014). Each member's work is where its x matters:

- Radii. Once per call, each point's L nearest (y,z) neighbors are found,
  L = 2·isqrt(n·k), with b_i the (L+1)-th smallest (y,z) distance of row i.
  A member's radius r_i is first taken over that prefix. Every point
  outside it has a joint distance max(d_x, d_yz) >= d_yz >= b_i, so when
  r_i <= b_i none of them is closer than r_i, and the full row's k-th
  distance is r_i exactly. Rows with r_i > b_i are redone on the full row.
  When L would reach n, every row is full.
- Counts. The (x,z) count compares the member's own dense matrix with the
  radii. The (y,z) and (z) matrices are the same for every member, so
  their rows are sorted once per call, and one left ``searchsorted`` per
  row counts the entries strictly below the radii of a chunk of members.

Its values are those of :func:`knn_cmi` bit for bit; above the bound it
calls :func:`knn_cmi` per member.

scipy (``digamma`` here, ``cdist`` and ``cKDTree`` in :mod:`infonet.neighbors`)
is imported on the first estimate, not with the module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DuplicatePointsError, EstimatorError
from ..neighbors import (
    _BLOCK_CELLS,
    NeighborIndex,
    chebyshev_matrix,
    dense_kth_distance,
    dense_range_count,
    sorted_range_count,
)
from ..seeding import rng_for
from .base import Estimator, InfoValue, SurrogateBatch, as_xyz, as_yz, members

_LN2 = math.log(2.0)

# Cells of one chunk's (members, n) radii and counts in a batch, 128 KiB of
# float64: at least 64 members while the dense bound holds n to 256.
_CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class KnnSettings:
    """Neighbor count, tie-breaking noise amplitude and noise seed."""

    k: int = 4
    noise_amplitude: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise EstimatorError(f"k must be >= 1, got {self.k}")
        if self.noise_amplitude < 0:
            raise EstimatorError("noise_amplitude must be >= 0")


def _noise(shapes, settings: KnnSettings) -> list:
    """Tie-breaking noise of each shape, drawn in order from one generator."""
    if settings.noise_amplitude == 0:
        return [0.0 for _ in shapes]
    rng = rng_for(settings.seed)
    amp = settings.noise_amplitude
    return [rng.uniform(-amp, amp, size=shape) for shape in shapes]


def _check_radii(radii: np.ndarray) -> None:
    if np.any(radii == 0.0):
        raise DuplicatePointsError("duplicate points after jitter; increase noise_amplitude")


def _local_cmi(k: int, n_xz, n_yz, n_z) -> np.ndarray:
    """Per-point CMI terms in bits from the (x,z), (y,z) and (z) neighbor counts."""
    from scipy.special import digamma

    terms = digamma(k) - digamma(n_xz + 1.0) - digamma(n_yz + 1.0)
    return (terms + digamma(n_z + 1.0)) / _LN2


def _marginal_counts(block: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Strictly-closer neighbor counts in a marginal space, less the point itself."""
    return NeighborIndex(block).range_count(block, radii) - 1


def knn_mi(x, y, settings: KnnSettings = KnnSettings()) -> InfoValue:
    """Mutual information in bits from k-nearest-neighbor statistics."""
    return knn_cmi(x, y, None, settings)


def knn_cmi(x, y, z=None, settings: KnnSettings = KnnSettings()) -> InfoValue:
    """Conditional mutual information in bits; an empty z gives the mutual information."""
    parts = as_xyz(x, y, z)
    x, y, z = (p + e for p, e in zip(parts, _noise([p.shape for p in parts], settings)))
    radii = NeighborIndex(np.concatenate([x, y, z], axis=1)).member_kth_distance(settings.k)
    _check_radii(radii)
    n_xz = _marginal_counts(np.concatenate([x, z], axis=1), radii)
    n_yz = _marginal_counts(np.concatenate([y, z], axis=1), radii)
    n_z = _marginal_counts(z, radii) if z.shape[1] else len(z) - 1
    local = _local_cmi(settings.k, n_xz, n_yz, n_z)
    return InfoValue(value=float(local.mean()), local=local)


def _prefix_length(n: int, k: int) -> int:
    """Nearest (y,z) neighbors of each point that a batch's radii are searched among first.

    With one x and one (y,z) column, about sqrt(n k) points lie within a
    point's k-th joint distance in (y,z); twice that covers nearly every
    row, and wider (y,z) need fewer. More than k whenever k < n. Every
    length gives the same values; this one is set by n and k alone.
    """
    return 2 * math.isqrt(n * k)


def _yz_prefix(d_yz: np.ndarray, k: int):
    """Each row's nearest (y,z) entries, their distances, the next distance and the sorted rows.

    The nearest entries are flat indices into an (n, n) matrix, one row of
    them per point. The columns of row i outside its prefix sit at a (y,z)
    distance of at least ``bound[i]``. When the prefix would reach n it is
    the full row, and the bound is infinite.
    """
    n = len(d_yz)
    order = np.argsort(d_yz, axis=1)
    sorted_yz = np.take_along_axis(d_yz, order, axis=1)
    size = min(_prefix_length(n, k), n)
    flat = order[:, :size] + n * np.arange(n)[:, np.newaxis]
    bound = sorted_yz[:, size] if size < n else np.full(n, np.inf)
    return flat, sorted_yz[:, :size], bound, sorted_yz


def _member_radii(d_x, d_yz, prefix, near_yz, bound, k: int) -> np.ndarray:
    """k-th joint neighbor distance of every point, from its (y,z) prefix where that decides it.

    Outside row i's prefix every joint distance is at least ``bound[i]``,
    since its (y,z) distance is. So when the prefix's k-th joint distance
    is at most ``bound[i]``, the full row holds no more distances below it
    than the prefix does and at least k + 1 at or below it: its k-th
    distance is the same. Rows whose prefix distance exceeds the bound are
    taken in full.
    """
    near = np.maximum(d_x.take(prefix), near_yz)
    radii = dense_kth_distance(near, k)
    far = np.flatnonzero(radii > bound)
    if far.size:
        radii[far] = dense_kth_distance(np.maximum(d_x[far], d_yz[far]), k)
    return radii


def _dense_cmis(xs: SurrogateBatch, y, z, settings: KnnSettings):
    """:func:`knn_cmi` value of each member of the batch ``xs`` from dense distance matrices.

    Every member is an (n, width) row permutation of the batch's checked
    columns, so y and z are checked once against n. The noise of y and z,
    and so the (y,z) and (z) matrices, are the same for every member; each
    member adds the same x noise and builds only its own (x) matrix. Its
    radii come from each point's (y,z) prefix (:func:`_member_radii`) and
    its (x,z) count from the dense matrix. The (y,z) and (z) counts of a
    chunk of members come from those matrices' sorted rows. Every distance,
    radius and count equals the one the neighbor index gives, so the values
    are bitwise those of ``knn_cmi``.
    """
    n, dx, k = len(xs.columns), xs.width, settings.k
    y, z = as_yz(y, z, n)
    noise_x, noise_y, noise_z = _noise([(n, dx), y.shape, z.shape], settings)
    y, z = y + noise_y, z + noise_z
    d_yz = chebyshev_matrix(np.concatenate([y, z], axis=1))
    prefix, near_yz, bound, sorted_yz = _yz_prefix(d_yz, k)
    d_z = sorted_z = None
    if z.shape[1]:
        d_z = chebyshev_matrix(z)
        sorted_z = np.sort(d_z, axis=1)
    d_x = np.empty((n, n))
    work = np.empty((n, n), dtype=bool)
    chunk = max(_CHUNK_CELLS // n, 1)
    radii = np.empty((chunk, n))
    n_xz = np.empty((chunk, n), dtype=np.int64)
    out = np.empty(len(xs), dtype=np.float64)
    remaining = members(xs)
    while block := list(itertools.islice(remaining, chunk)):
        for j, (_, x) in enumerate(block):
            chebyshev_matrix(x + noise_x, out=d_x)
            radii[j] = _member_radii(d_x, d_yz, prefix, near_yz, bound, k)
            _check_radii(radii[j])
            if d_z is not None:
                np.maximum(d_x, d_z, out=d_x)
            n_xz[j] = dense_range_count(d_x, radii[j], work)
        m = len(block)
        n_yz = sorted_range_count(sorted_yz, radii[:m])
        n_z = n - 1 if sorted_z is None else sorted_range_count(sorted_z, radii[:m])
        out[[i for i, _ in block]] = _local_cmi(k, n_xz[:m], n_yz, n_z).mean(axis=1)
    return out


class KnnEstimator(Estimator):
    """Adapter exposing the k-NN estimator behind the common API.

    ``cmis`` shares the (y, z) work across its members at small n; see the
    module docstring.
    """

    def __init__(self, settings: KnnSettings = KnnSettings()):
        self.settings = settings

    def cmi(self, x, y, z=None) -> InfoValue:
        return knn_cmi(x, y, z, self.settings)

    def cmi_value(self, x, y, z=None) -> float:
        return knn_cmi(x, y, z, self.settings).value

    def cmis(self, xs: SurrogateBatch, y, z=None) -> np.ndarray:
        # The default gives an empty batch no values, and anything but a batch an error.
        if isinstance(xs, SurrogateBatch) and len(xs) and len(xs.columns) ** 2 <= _BLOCK_CELLS:
            return _dense_cmis(xs, y, z, self.settings)
        return super().cmis(xs, y, z)
