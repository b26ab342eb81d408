"""Synthetic multivariate time series with known coupling structure.

Two generators: a linear autoregressive system with unit-variance Gaussian
innovations (stability-checked through the companion matrix) and a network of
logistic maps at full chaos with linear coupling, optionally binarized for
discrete analyses. Both discard a burn-in prefix and write their topology
alongside the data so inferred networks can be scored automatically.

Each replication's time loop steps on Python float lists, one list of process
values per time step, because indexing numpy scalars costs several times more
per step. Every step is a fixed sequence of IEEE double operations, so a spec
gives the same data bit for bit; the test suite pins their digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, KIND_CONTINUOUS, KIND_DISCRETE
from .errors import DataError, UnstableProcessError
from .seeding import PHASE_GENERATE, rng_for

GENERATOR_GAUSSIAN_AR = "gaussian_ar"
GENERATOR_LOGISTIC = "logistic_map_network"
GENERATORS = (GENERATOR_GAUSSIAN_AR, GENERATOR_LOGISTIC)


@dataclass(frozen=True)
class Coupling:
    """One directed coupling: target draws on source at the given lag."""

    source: int
    target: int
    lag: int
    coefficient: float

    def __post_init__(self):
        if self.lag < 1:
            raise DataError(f"coupling lag must be >= 1, got {self.lag}")


@dataclass(frozen=True)
class GroundTruthSpec:
    """Topology plus generator parameters for one synthetic dataset."""

    n_processes: int
    n_samples: int
    topology: tuple[Coupling, ...] = field(default_factory=tuple)
    generator: str = GENERATOR_GAUSSIAN_AR
    noise_scale: float = 1.0
    n_replications: int = 1
    binarize: bool = False
    burn_in: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n_processes < 1 or self.n_samples < 1 or self.n_replications < 1:
            raise DataError("process, sample and replication counts must be >= 1")
        if self.generator not in GENERATORS:
            raise DataError(f"unknown generator {self.generator!r}")
        topology = tuple(
            c if isinstance(c, Coupling) else Coupling(*c) for c in self.topology
        )
        object.__setattr__(self, "topology", topology)
        for c in topology:
            if not (0 <= c.source < self.n_processes and 0 <= c.target < self.n_processes):
                raise DataError(f"coupling {c} references an unknown process")
        if self.generator == GENERATOR_GAUSSIAN_AR:
            radius = companion_spectral_radius(self)
            if radius >= 1.0:
                raise UnstableProcessError(
                    f"companion spectral radius {radius:.4f} >= 1; system diverges"
                )
        else:
            drive = np.zeros(self.n_processes)
            for c in topology:
                if c.coefficient < 0:
                    raise DataError("logistic map couplings must be non-negative")
                drive[c.target] += c.coefficient
            if drive.max() >= 1.0:
                raise UnstableProcessError(
                    "total coupling into a logistic-map node must stay below 1"
                )


def companion_spectral_radius(spec: GroundTruthSpec) -> float:
    """Spectral radius of the stacked-lag companion matrix of the AR system."""
    if not spec.topology:
        return 0.0
    max_lag = max(c.lag for c in spec.topology)
    p = spec.n_processes
    size = p * max_lag
    companion = np.zeros((size, size))
    for c in spec.topology:
        companion[c.target, (c.lag - 1) * p + c.source] += c.coefficient
    if max_lag > 1:
        companion[p:, : p * (max_lag - 1)] = np.eye(p * (max_lag - 1))
    eigenvalues = np.linalg.eigvals(companion)
    return float(np.abs(eigenvalues).max())


def _generate_ar_replication(spec: GroundTruthSpec, rng: np.random.Generator) -> np.ndarray:
    max_lag = max((c.lag for c in spec.topology), default=1)
    total = spec.n_samples + spec.burn_in + max_lag
    innovations = rng.normal(scale=spec.noise_scale, size=(spec.n_processes, total))
    # One list of process values per time step; each step adds its couplings
    # to its own innovations in place.
    x = innovations.T.tolist()
    couplings = [(c.target, c.source, c.lag, c.coefficient) for c in spec.topology]
    for t in range(max_lag, total):
        step = x[t]
        for target, source, lag, coeff in couplings:
            step[target] += coeff * x[t - lag][source]
    return np.array(x[total - spec.n_samples :]).T


def _generate_logistic_replication(spec: GroundTruthSpec, rng: np.random.Generator) -> np.ndarray:
    max_lag = max((c.lag for c in spec.topology), default=1)
    total = spec.n_samples + spec.burn_in + max_lag
    x = rng.uniform(0.05, 0.95, size=(spec.n_processes, max_lag)).T.tolist()
    self_weight = [1.0] * spec.n_processes
    for c in spec.topology:
        self_weight[c.target] -= c.coefficient
    couplings = [(c.target, c.source, c.lag, c.coefficient) for c in spec.topology]
    for t in range(max_lag, total):
        mixed = [w * v for w, v in zip(self_weight, x[t - 1])]
        for target, source, lag, coeff in couplings:
            mixed[target] += coeff * x[t - lag][source]
        clipped = [min(max(m, 1e-12), 1.0 - 1e-12) for m in mixed]
        x.append([4.0 * m * (1.0 - m) for m in clipped])
    return np.array(x[total - spec.n_samples :]).T


def generate_dataset(spec: GroundTruthSpec) -> Dataset:
    """Generate all replications; deterministic under the spec seed."""
    values = np.empty((spec.n_processes, spec.n_samples, spec.n_replications))
    for r in range(spec.n_replications):
        rng = rng_for(spec.seed, PHASE_GENERATE, r)
        if spec.generator == GENERATOR_GAUSSIAN_AR:
            values[:, :, r] = _generate_ar_replication(spec, rng)
        else:
            values[:, :, r] = _generate_logistic_replication(spec, rng)
    if spec.generator == GENERATOR_LOGISTIC and spec.binarize:
        return Dataset(
            values=(values > 0.5).astype(np.float64),
            kind=KIND_DISCRETE,
            alphabet_size=2,
        )
    return Dataset(values=values, kind=KIND_CONTINUOUS)


def ground_truth_links(spec: GroundTruthSpec) -> list[dict]:
    """Topology in the same link schema the network export uses."""
    return [
        {
            "source": c.source,
            "target": c.target,
            "lag": c.lag,
            "coefficient": c.coefficient,
        }
        for c in spec.topology
    ]
