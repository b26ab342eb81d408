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
points and raises ``DuplicatePointsError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from ..errors import DuplicatePointsError, EstimatorError
from ..neighbors import NeighborIndex
from ..seeding import rng_for
from .base import Estimator, InfoValue, as_xyz

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


def _jitter(parts: tuple[np.ndarray, ...], settings: KnnSettings) -> list[np.ndarray]:
    if settings.noise_amplitude == 0:
        return list(parts)
    rng = rng_for(settings.seed)
    amp = settings.noise_amplitude
    return [p + rng.uniform(-amp, amp, size=p.shape) for p in parts]


def _marginal_counts(block: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Strictly-closer neighbor counts in a marginal space, less the point itself."""
    return NeighborIndex(block).range_count(block, radii) - 1


def knn_mi(x, y, settings: KnnSettings = KnnSettings()) -> InfoValue:
    """Mutual information in bits from k-nearest-neighbor statistics."""
    return knn_cmi(x, y, None, settings)


def knn_cmi(x, y, z=None, settings: KnnSettings = KnnSettings()) -> InfoValue:
    """Conditional mutual information in bits; an empty z gives the mutual information."""
    x, y, z = _jitter(as_xyz(x, y, z), settings)
    radii = NeighborIndex(np.concatenate([x, y, z], axis=1)).member_kth_distance(settings.k)
    if np.any(radii == 0.0):
        raise DuplicatePointsError("duplicate points after jitter; increase noise_amplitude")
    n_xz = _marginal_counts(np.concatenate([x, z], axis=1), radii)
    n_yz = _marginal_counts(np.concatenate([y, z], axis=1), radii)
    n_z = _marginal_counts(z, radii) if z.shape[1] else len(z) - 1
    terms = digamma(settings.k) - digamma(n_xz + 1.0) - digamma(n_yz + 1.0)
    local = (terms + digamma(n_z + 1.0)) / _LN2
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
