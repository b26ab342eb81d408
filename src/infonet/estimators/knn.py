"""k-nearest-neighbor MI and CMI for continuous data.

Mutual information follows the counting scheme that fixes the neighborhood
radius per point as the distance to its k-th neighbor in the joint space
(max norm) and counts strictly-closer neighbors in each marginal; the
conditional variant replaces the marginals with the (x,z), (y,z) and (z)
subspaces. Local values are the per-point terms before averaging, so the
local-average identity is exact by construction.

Inputs are jittered with tiny uniform noise before estimation to break ties;
a zero k-th-neighbor distance after jittering means duplicate points and is
reported as a configuration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from ..errors import DuplicatePointsError, EstimatorError
from ..neighbors import NeighborIndex
from ..seeding import rng_for
from .base import Estimator, InfoValue, as_columns

_LN2 = math.log(2.0)


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


def _jitter(parts: list[np.ndarray], settings: KnnSettings) -> list[np.ndarray]:
    if settings.noise_amplitude == 0:
        return parts
    rng = rng_for(settings.seed)
    amp = settings.noise_amplitude
    return [p + rng.uniform(-amp, amp, size=p.shape) for p in parts]


def _marginal_counts(block: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Strictly-closer neighbor counts in a marginal space, self excluded."""
    index = NeighborIndex(block)
    counts = index.range_count(block, radii)
    return counts - 1  # each point sits strictly inside its own radius


def knn_mi(x, y, settings: KnnSettings = KnnSettings()) -> InfoValue:
    """Mutual information in bits from k-nearest-neighbor statistics."""
    x = as_columns(x)
    y = as_columns(y)
    n = x.shape[0]
    if y.shape[0] != n:
        raise EstimatorError("x and y must share the observation axis")
    if settings.k >= n:
        raise EstimatorError(f"k={settings.k} must be smaller than n={n}")
    x, y = _jitter([x, y], settings)
    joint = np.concatenate([x, y], axis=1)
    radii = NeighborIndex(joint).member_kth_distance(settings.k)
    if np.any(radii == 0.0):
        raise DuplicatePointsError(
            "duplicate points after jitter; increase noise_amplitude"
        )
    n_x = _marginal_counts(x, radii)
    n_y = _marginal_counts(y, radii)
    local = (
        digamma(settings.k)
        + digamma(n)
        - digamma(n_x + 1.0)
        - digamma(n_y + 1.0)
    ) / _LN2
    return InfoValue(value=float(local.mean()), local=local)


def knn_cmi(x, y, z=None, settings: KnnSettings = KnnSettings()) -> InfoValue:
    """Conditional mutual information in bits; empty z reduces to knn_mi."""
    if z is None or np.size(z) == 0:
        return knn_mi(x, y, settings)
    x = as_columns(x)
    y = as_columns(y)
    z = as_columns(z)
    n = x.shape[0]
    if y.shape[0] != n or z.shape[0] != n:
        raise EstimatorError("x, y, z must share the observation axis")
    if settings.k >= n:
        raise EstimatorError(f"k={settings.k} must be smaller than n={n}")
    x, y, z = _jitter([x, y, z], settings)
    joint = np.concatenate([x, y, z], axis=1)
    radii = NeighborIndex(joint).member_kth_distance(settings.k)
    if np.any(radii == 0.0):
        raise DuplicatePointsError(
            "duplicate points after jitter; increase noise_amplitude"
        )
    n_xz = _marginal_counts(np.concatenate([x, z], axis=1), radii)
    n_yz = _marginal_counts(np.concatenate([y, z], axis=1), radii)
    n_z = _marginal_counts(z, radii)
    local = (
        digamma(settings.k)
        - digamma(n_xz + 1.0)
        - digamma(n_yz + 1.0)
        + digamma(n_z + 1.0)
    ) / _LN2
    return InfoValue(value=float(local.mean()), local=local)


class KnnEstimator(Estimator):
    """Adapter exposing the k-NN estimator behind the common API."""

    name = "knn"

    def __init__(self, settings: KnnSettings = KnnSettings()):
        self.settings = settings

    def cmi(self, x, y, z=None) -> InfoValue:
        return knn_cmi(x, y, z, self.settings)

    def cmi_value(self, x, y, z=None) -> float:
        return knn_cmi(x, y, z, self.settings).value
