"""Plug-in (maximum-likelihood) entropy, MI and CMI for discrete data.

Counts are sparse (symbol tuples are packed into mixed-radix integer keys)
so the greedy loop can grow conditioning sets without allocating dense joint
tables. No bias correction is applied; the surrogate tests absorb estimator
bias under the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, EstimatorError, StateSpaceTooLargeError
from .base import Estimator, InfoValue, as_columns, as_xyz

_LN2 = math.log(2.0)

DEFAULT_STATE_CAP = 10_000_000


@dataclass(frozen=True)
class JointCounts:
    """Sparse joint histogram over symbol tuples."""

    alphabet_sizes: tuple[int, ...]
    counts: dict
    total: int
    row_keys: np.ndarray | None = field(default=None, compare=False)
    key_counts: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.total < 1:
            raise DataError("joint counts must cover at least one observation")
        if sum(self.counts.values()) != self.total:
            raise DataError("count total does not match the sum of counts")


def _encode_columns(cols: np.ndarray, alphabet_sizes: tuple[int, ...], cap: int) -> np.ndarray:
    """Pack integer columns into one mixed-radix key per row."""
    states = 1
    for a in alphabet_sizes:
        states *= int(a)
        if states > cap:
            raise StateSpaceTooLargeError(
                f"joint state space exceeds cap of {cap} states"
            )
    keys = np.zeros(cols.shape[0], dtype=np.int64)
    for j, a in enumerate(alphabet_sizes):
        col = cols[:, j]
        if col.min() < 0 or col.max() >= a:
            raise DataError(f"column {j} holds symbols outside [0, {a})")
        keys = keys * int(a) + col
    return keys


def _as_int_columns(x) -> np.ndarray:
    arr = as_columns(x)
    rounded = np.rint(arr)
    if not np.array_equal(arr, rounded):
        raise DataError("discrete estimator requires integer-valued data")
    return rounded.astype(np.int64)


def counts_from_columns(
    cols,
    alphabet_sizes,
    state_cap: int = DEFAULT_STATE_CAP,
) -> JointCounts:
    """Build a JointCounts from integer columns, retaining per-row keys."""
    icols = _as_int_columns(cols)
    sizes = tuple(int(a) for a in alphabet_sizes)
    if len(sizes) != icols.shape[1]:
        raise DataError("one alphabet size required per column")
    keys = _encode_columns(icols, sizes, state_cap)
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    mapping = {}
    for key, count in zip(uniq.tolist(), counts.tolist()):
        symbol = []
        rem = key
        for a in reversed(sizes):
            symbol.append(rem % a)
            rem //= a
        mapping[tuple(reversed(symbol))] = count
    return JointCounts(
        alphabet_sizes=sizes,
        counts=mapping,
        total=icols.shape[0],
        row_keys=inverse,
        key_counts=counts,
    )


def plugin_entropy(counts: JointCounts) -> InfoValue:
    """Plug-in Shannon entropy in bits with per-observation local values."""
    if counts.key_counts is not None:
        freq = counts.key_counts.astype(np.float64)
    else:
        freq = np.asarray(list(counts.counts.values()), dtype=np.float64)
    probs = freq / counts.total
    value = float(-(probs * np.log2(probs)).sum())
    local = None
    if counts.row_keys is not None:
        local = -np.log2(probs[counts.row_keys])
    return InfoValue(value=value, local=local)


def _group_log_probs(parts: list[np.ndarray], alphabet_size: int, cap: int) -> np.ndarray:
    """log2 empirical probability of each row's symbol tuple over the joined parts."""
    cols = np.concatenate(parts, axis=1)
    if cols.shape[1] == 0:
        return np.zeros(cols.shape[0])
    keys = _encode_columns(cols, (alphabet_size,) * cols.shape[1], cap)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return np.log2(counts[inverse] / cols.shape[0])


def plugin_cmi(
    x,
    y,
    z=None,
    alphabet_size: int = 2,
    state_cap: int = DEFAULT_STATE_CAP,
) -> InfoValue:
    """Plug-in conditional mutual information in bits; empty z gives MI.

    CMI = H(X,Z) + H(Y,Z) - H(Z) - H(X,Y,Z). Local values are the
    per-observation log-ratios; their mean equals the entropy combination
    exactly.
    """
    xi, yi, zi = (_as_int_columns(cols) for cols in as_xyz(x, y, z))
    a = int(alphabet_size)
    # The full joint is the largest space, so its encoding is the cap check.
    lp_xyz = _group_log_probs([xi, yi, zi], a, state_cap)
    lp_xz = _group_log_probs([xi, zi], a, state_cap)
    lp_yz = _group_log_probs([yi, zi], a, state_cap)
    lp_z = _group_log_probs([zi], a, state_cap)
    local = lp_xyz + lp_z - lp_xz - lp_yz
    return InfoValue(value=float(local.mean()), local=local)


class DiscreteEstimator(Estimator):
    """Adapter exposing the plug-in estimator behind the common API."""

    name = "discrete"

    def __init__(self, alphabet_size: int, state_cap: int = DEFAULT_STATE_CAP):
        if alphabet_size < 1:
            raise EstimatorError("alphabet_size must be >= 1")
        self.alphabet_size = int(alphabet_size)
        self.state_cap = int(state_cap)

    def cmi(self, x, y, z=None) -> InfoValue:
        return plugin_cmi(x, y, z, self.alphabet_size, self.state_cap)
