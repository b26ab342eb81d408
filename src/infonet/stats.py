"""Surrogate generation and the permutation tests that gate inference.

Every p-value uses the count formula (c + 1) / (n_permutations + 1) with ties
counted as exceedances, so p is never zero and the tests stay valid under the
null. Surrogates are deterministic functions of (policy seed, draw index):
within one permutation draw, every column shares the same per-replication
offsets, which keeps results independent of evaluation order and makes the
joint (omnibus) surrogation a special case of the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientPermutationsError,
    InsufficientReplicationsError,
    InsufficientSamplesError,
    StatsError,
)
from .estimators.base import Estimator
from .seeding import rng_for

CIRCULAR_SHIFT = "circular_shift"
REPLICATION_SHUFFLE = "replication_shuffle"

_METHODS = (CIRCULAR_SHIFT, REPLICATION_SHUFFLE)


@dataclass(frozen=True)
class SurrogatePolicy:
    """How to destroy source-target alignment while preserving marginals."""

    method: str = CIRCULAR_SHIFT
    min_shift: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise StatsError(f"unknown surrogate method {self.method!r}")
        if self.min_shift < 1:
            raise StatsError("min_shift must be >= 1")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one permutation test; statistic in bits."""

    statistic: float
    p_value: float
    significant: bool
    n_permutations: int
    alpha: float


@dataclass(frozen=True)
class MinStatOutcome:
    """Prune-step outcome: the weakest selected variable and its test."""

    weakest: int
    result: TestResult


def _replication_blocks(rep_ids: np.ndarray) -> list[tuple[int, int]]:
    ids = np.asarray(rep_ids)
    if ids.ndim != 1 or ids.size == 0:
        raise StatsError("replication ids must be a non-empty 1-D array")
    boundaries = np.flatnonzero(np.diff(ids) != 0) + 1
    edges = np.concatenate([[0], boundaries, [ids.size]])
    return [(int(edges[i]), int(edges[i + 1])) for i in range(len(edges) - 1)]


def surrogate_indices(
    rep_ids: np.ndarray, policy: SurrogatePolicy, draw_index: int
) -> np.ndarray:
    """Gather indices realizing one surrogate draw over realization rows."""
    blocks = _replication_blocks(rep_ids)
    rng = rng_for(policy.seed, draw_index)
    n = int(np.asarray(rep_ids).size)
    idx = np.empty(n, dtype=np.int64)
    if policy.method == CIRCULAR_SHIFT:
        for start, stop in blocks:
            length = stop - start
            if length < 2 * policy.min_shift:
                raise InsufficientSamplesError(
                    f"replication of {length} rows too short for min_shift {policy.min_shift}"
                )
            offset = policy.min_shift + int(
                rng.integers(0, length - 2 * policy.min_shift + 1)
            )
            idx[start:stop] = start + (np.arange(length) - offset) % length
    else:
        if len(blocks) < 2:
            raise InsufficientReplicationsError(
                "replication_shuffle needs at least 2 replications"
            )
        lengths = {stop - start for start, stop in blocks}
        if len(lengths) != 1:
            raise StatsError("replication_shuffle requires equal-length replications")
        order = rng.permutation(len(blocks))
        pos = 0
        for b in order:
            start, stop = blocks[b]
            idx[pos : pos + (stop - start)] = np.arange(start, stop)
            pos += stop - start
    return idx


def surrogate_index_matrix(
    rep_ids: np.ndarray, policy: SurrogatePolicy, n_perm: int
) -> np.ndarray:
    """Gather indices for draws 0..n_perm-1, stacked as (n_perm, n)."""
    return np.stack(
        [surrogate_indices(rep_ids, policy, d) for d in range(n_perm)], axis=0
    )


def check_permutation_count(n_perm: int, alpha: float) -> None:
    """Reject configurations whose smallest achievable p-value cannot beat alpha."""
    if n_perm < 1:
        raise InsufficientPermutationsError("n_permutations must be >= 1")
    if 1.0 / (n_perm + 1) >= alpha:
        raise InsufficientPermutationsError(
            f"{n_perm} permutations cannot reject at alpha={alpha}: "
            f"minimum p-value is {1.0 / (n_perm + 1):.4g}"
        )


def permutation_pvalue(observed: float, null_values: np.ndarray) -> float:
    """(c + 1) / (n + 1) with c the number of null values >= observed."""
    null_values = np.asarray(null_values)
    c = int(np.sum(null_values >= observed))
    return (c + 1) / (null_values.size + 1)


def _surrogate_cmis(
    columns: np.ndarray,
    index_matrix: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
    estimator: Estimator,
) -> np.ndarray:
    """CMI of each surrogate of an (n, d) column block against fixed (y, z).

    All d columns share each draw's gather indices. One estimator call
    gathers at most 200 * n cells: a single column's 200 draws (the default
    permutation count of the max and min tests) in one call, and bounded
    memory for any block width. At 256 * n cells, peak RSS of perfbench's
    gauss_net workload (2 threads, 2-vCPU VM) rose from about 97 to 112 MB.
    """
    n_perm = index_matrix.shape[0]
    step = max(1, 200 // columns.shape[1])
    out = np.empty(n_perm, dtype=np.float64)
    for start in range(0, n_perm, step):
        idx = index_matrix[start : start + step]
        batch = np.take(columns, idx, axis=0)  # (draws, n, d)
        out[start : start + idx.shape[0]] = estimator.cmi_surrogate_batch(batch, y, z)
    return out


def max_statistic_test(
    candidate_columns: np.ndarray,
    observed_cmis: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
    rep_ids: np.ndarray,
    estimator: Estimator,
    policy: SurrogatePolicy,
    n_perm: int,
    alpha: float,
    observed_statistic: float | None = None,
) -> TestResult:
    """Family-wise gate across candidates via the maximum statistic.

    The null statistic of each permutation is the maximum, over all
    candidates, of the CMI recomputed with that candidate's column
    surrogated. The observed statistic defaults to the largest observed CMI;
    sequential re-tests override it with the variable under test.
    """
    candidate_columns = np.atleast_2d(np.asarray(candidate_columns, dtype=np.float64))
    observed_cmis = np.asarray(observed_cmis, dtype=np.float64)
    if candidate_columns.shape[1] != observed_cmis.size or observed_cmis.size == 0:
        raise StatsError("need one observed CMI per candidate column")
    check_permutation_count(n_perm, alpha)
    index_matrix = surrogate_index_matrix(rep_ids, policy, n_perm)
    null_max = np.full(n_perm, -np.inf)
    for j in range(candidate_columns.shape[1]):
        vals = _surrogate_cmis(candidate_columns[:, j : j + 1], index_matrix, y, z, estimator)
        np.maximum(null_max, vals, out=null_max)
    statistic = (
        float(observed_cmis.max()) if observed_statistic is None else float(observed_statistic)
    )
    p = permutation_pvalue(statistic, null_max)
    return TestResult(statistic, p, p < alpha, n_perm, alpha)


def min_statistic_test(
    selected_columns: np.ndarray,
    y: np.ndarray,
    z_base: np.ndarray | None,
    rep_ids: np.ndarray,
    estimator: Estimator,
    policy: SurrogatePolicy,
    n_perm: int,
    alpha: float,
) -> MinStatOutcome:
    """Prune gate: test the weakest selected variable against a minimum null.

    Each selected variable's CMI is conditioned on all the others (plus the
    fixed base conditioning); the null per permutation is the minimum over
    the selected variables of their surrogate CMIs under the same
    conditioning.
    """
    selected_columns = np.atleast_2d(np.asarray(selected_columns, dtype=np.float64))
    m = selected_columns.shape[1]
    if m == 0:
        raise StatsError("min-statistic test needs at least one selected variable")
    check_permutation_count(n_perm, alpha)
    base = (
        np.asarray(z_base, dtype=np.float64)
        if z_base is not None and np.size(z_base)
        else np.empty((selected_columns.shape[0], 0))
    )

    def conditioning(j: int) -> np.ndarray:
        others = np.delete(selected_columns, j, axis=1)
        return np.concatenate([base, others], axis=1)

    observed = np.array(
        [
            estimator.cmi_value(selected_columns[:, j : j + 1], y, conditioning(j))
            for j in range(m)
        ]
    )
    weakest = int(np.argmin(observed))
    index_matrix = surrogate_index_matrix(rep_ids, policy, n_perm)
    null_min = np.full(n_perm, np.inf)
    for j in range(m):
        vals = _surrogate_cmis(
            selected_columns[:, j : j + 1], index_matrix, y, conditioning(j), estimator
        )
        np.minimum(null_min, vals, out=null_min)
    p = permutation_pvalue(float(observed[weakest]), null_min)
    result = TestResult(float(observed[weakest]), p, p < alpha, n_perm, alpha)
    return MinStatOutcome(weakest=weakest, result=result)


def omnibus_test(
    source_columns: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
    rep_ids: np.ndarray,
    estimator: Estimator,
    policy: SurrogatePolicy,
    n_perm: int,
    alpha: float,
) -> TestResult:
    """Joint gate: all selected source variables together against the target.

    The null surrogates every source column jointly: all columns share one
    set of per-replication offsets per permutation. An empty source set is
    vacuously non-significant with p = 1.
    """
    source_columns = np.asarray(source_columns, dtype=np.float64)
    if source_columns.ndim == 1:
        source_columns = source_columns[:, np.newaxis]
    if source_columns.shape[1] == 0:
        return TestResult(0.0, 1.0, False, n_perm, alpha)
    check_permutation_count(n_perm, alpha)
    observed = estimator.cmi_value(source_columns, y, z)
    index_matrix = surrogate_index_matrix(rep_ids, policy, n_perm)
    null = _surrogate_cmis(source_columns, index_matrix, y, z, estimator)
    p = permutation_pvalue(observed, null)
    return TestResult(float(observed), p, p < alpha, n_perm, alpha)


def fdr_correct(p_values, alpha: float = 0.05, m: int | None = None) -> np.ndarray:
    """Benjamini-Hochberg significance mask.

    ``m`` is the total number of tests performed, which may exceed the number
    of p-values actually collected (links that never produced a candidate are
    still part of the tested family).
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if p.min() < 0.0 or p.max() > 1.0:
        raise StatsError("p-values must lie in [0, 1]")
    if m is None:
        m = p.size
    if m < p.size:
        raise StatsError(f"total test count m={m} smaller than the {p.size} p-values given")
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    thresholds = (np.arange(1, p.size + 1) / m) * alpha
    passing = np.flatnonzero(ranked <= thresholds)
    mask = np.zeros(p.size, dtype=bool)
    if passing.size:
        mask[order[: passing[-1] + 1]] = True
    return mask
