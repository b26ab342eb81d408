"""Surrogate generation and the permutation tests that gate inference.

Every p-value uses the count formula (c + 1) / (n_permutations + 1) with ties
counted as exceedances, so p is never zero and the tests stay valid under the
null; a non-finite statistic or null value raises instead of counting as a
miss. A test draws all of its surrogates from one generator seeded by the
policy seed, so results stay independent of evaluation order and thread
count. Draw ``i`` takes the ``i``-th offsets (or block order) from that
stream, so the first k draws of an n-draw test equal the draws of a k-draw
test. Within one draw, every column shares the same per-replication offsets,
which makes the joint (omnibus) surrogation a special case of the same
machinery.

The three tests share one null: a test checks its arguments and builds its
surrogates once, before any estimate, as (n_permutations, blocks) draws,
never as an (n_permutations, n) index matrix: one :func:`surrogate_indices`
call draws every right rotation of a circular shift, or every block order of
a replication shuffle. The estimator gets them as a :class:`SurrogateBatch`
holding a column block, the draws, the blocks and the method, with every
draw in one ``Estimator.cmi_surrogate_batch`` call. A max test makes one
call for its whole pool: every candidate column is one candidate of the
batch, since all share (y, z). A min test makes one call per selected
variable, whose conditioning differs, and the omnibus test one call for its
joint block. The default estimator gathers each draw's rows once and calls
its scalar estimate per member; the kNN one does too, but at small n shares
the (y, z) neighbor distances across every member; the Gaussian one computes
every member's cross-covariance from the draws without gathering rows. A
pool's observed CMIs are the members of its unshifted batch (rotation 0).
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
from .estimators.base import (
    CIRCULAR_SHIFT,
    REPLICATION_SHUFFLE,
    SURROGATE_METHODS,
    Estimator,
    SurrogateBatch,
    as_columns,
    as_yz,
    gather_indices,
    replication_blocks,
)
from .seeding import rng_for


@dataclass(frozen=True)
class SurrogatePolicy:
    """How to destroy source-target alignment while preserving marginals."""

    method: str = CIRCULAR_SHIFT
    min_shift: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.method not in SURROGATE_METHODS:
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


def surrogate_indices(
    blocks: list[tuple[int, int]], policy: SurrogatePolicy, n_perm: int
) -> np.ndarray:
    """A test's ``n_perm`` draws of :class:`SurrogateBatch`, as (n_perm, blocks).

    ``blocks`` are the replication blocks of the rows, from
    :func:`replication_blocks`; a rotation lies in [min_shift, length - min_shift].
    """
    lengths = np.array([stop - start for start, stop in blocks])
    if policy.method == CIRCULAR_SHIFT:
        short = lengths[lengths < 2 * policy.min_shift]
        if short.size:
            raise InsufficientSamplesError(
                f"replication of {short[0]} rows too short for min_shift {policy.min_shift}"
            )
        return policy.min_shift + rng_for(policy.seed).integers(
            0, lengths - 2 * policy.min_shift + 1, size=(n_perm, lengths.size)
        )
    if len(blocks) < 2:
        raise InsufficientReplicationsError("replication_shuffle needs at least 2 replications")
    if np.any(lengths != lengths[0]):
        raise StatsError("replication_shuffle requires equal-length replications")
    return rng_for(policy.seed).permuted(np.tile(np.arange(lengths.size), (n_perm, 1)), axis=1)


def surrogate_index_matrix(
    rep_ids: np.ndarray, policy: SurrogatePolicy, n_perm: int
) -> np.ndarray:
    """Gather indices of draws 0..n_perm-1, as (n_perm, n); permutation tests never build it."""
    blocks = replication_blocks(rep_ids)
    return gather_indices(surrogate_indices(blocks, policy, n_perm), blocks, policy.method)


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
    """(c + 1) / (n + 1) with c the number of null values >= observed.

    A NaN or infinite statistic or null value raises ``StatsError``: a NaN
    compares False, so it would otherwise count as a miss and push p down.
    """
    null_values = np.asarray(null_values, dtype=np.float64)
    if not np.isfinite(observed):
        raise StatsError(f"observed statistic is {observed}, not finite")
    bad = null_values[~np.isfinite(null_values)]
    if bad.size:
        raise StatsError(f"{bad.size} null values are not finite, such as {bad[0]}")
    c = int(np.sum(null_values >= observed))
    return (c + 1) / (null_values.size + 1)


def _surrogate_null(columns, y, z, rep_ids, estimator, policy, n_perm, alpha):
    """Check a test's arguments and draw its surrogates once, before any estimate.

    Every argument must have one row per observation. Returns the test's
    null: a function of a column block, its conditioning and its candidate
    width that gives the block's surrogate CMIs under the test's draws,
    shaped (candidates, n_perm).
    """
    n = columns.shape[0]
    for name, arg in (("rep_ids", rep_ids), ("y", y), ("z", z)):
        if arg is not None and np.size(arg) and np.shape(arg)[0] != n:
            raise StatsError(f"{name} has {np.shape(arg)[0]} rows, the columns have {n}")
    check_permutation_count(n_perm, alpha)
    blocks = replication_blocks(rep_ids)
    draws = surrogate_indices(blocks, policy, n_perm)

    def null(block: np.ndarray, z, width: int | None = None) -> np.ndarray:
        batch = SurrogateBatch(block, draws, tuple(blocks), policy.method, width)
        return estimator.cmi_surrogate_batch(batch, y, z).reshape(-1, n_perm)

    return null


def _result(statistic: float, null: np.ndarray, alpha: float) -> TestResult:
    """The test's outcome for a statistic against its 1-D null values."""
    p = permutation_pvalue(statistic, null)
    return TestResult(float(statistic), p, p < alpha, null.size, alpha)


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
    candidate_columns = as_columns(candidate_columns)
    observed_cmis = np.asarray(observed_cmis, dtype=np.float64)
    if candidate_columns.shape[1] != observed_cmis.size or observed_cmis.size == 0:
        raise StatsError("need one observed CMI per candidate column")
    null = _surrogate_null(candidate_columns, y, z, rep_ids, estimator, policy, n_perm, alpha)
    statistic = observed_cmis.max() if observed_statistic is None else observed_statistic
    return _result(statistic, null(candidate_columns, z, width=1).max(axis=0), alpha)


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
    selected_columns = as_columns(selected_columns)
    m = selected_columns.shape[1]
    if m == 0:
        raise StatsError("min-statistic test needs at least one selected variable")
    null = _surrogate_null(selected_columns, y, z_base, rep_ids, estimator, policy, n_perm, alpha)
    base = as_yz(y, z_base, selected_columns.shape[0])[1]
    columns = [selected_columns[:, j : j + 1] for j in range(m)]
    conditioning = [
        np.concatenate([base, np.delete(selected_columns, j, axis=1)], axis=1) for j in range(m)
    ]
    observed = np.array([estimator.cmi_value(x, y, z) for x, z in zip(columns, conditioning)])
    weakest = int(np.argmin(observed))
    nulls = [null(x, z) for x, z in zip(columns, conditioning)]
    result = _result(observed[weakest], np.concatenate(nulls).min(axis=0), alpha)
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
    source_columns = as_columns(source_columns)
    if source_columns.shape[1] == 0:
        return TestResult(0.0, 1.0, False, n_perm, alpha)
    null = _surrogate_null(source_columns, y, z, rep_ids, estimator, policy, n_perm, alpha)
    observed = estimator.cmi_value(source_columns, y, z)
    return _result(observed, null(source_columns, z)[0], alpha)


def fdr_correct(p_values, alpha: float = 0.05, m: int | None = None) -> np.ndarray:
    """Benjamini-Hochberg significance mask.

    ``m`` is the total number of tests performed, which may exceed the number
    of p-values actually collected (links that never produced a candidate are
    still part of the tested family).
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    bad = p[~((p >= 0.0) & (p <= 1.0))]
    if bad.size:
        raise StatsError(f"p-values must lie in [0, 1], got {bad[0]}")
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
