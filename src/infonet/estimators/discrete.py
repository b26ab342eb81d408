"""Plug-in (maximum-likelihood) entropy, MI and CMI for discrete data.

Counts are sparse (symbol tuples are packed into mixed-radix integer keys)
so the greedy loop can grow conditioning sets without allocating dense joint
tables. ``_encode_columns`` is the one checked encoder: it rejects a state
space over the cap and symbols outside their alphabet. The CMI encodes x, y
and z once each and composes the keys of the xyz, xz, yz and z groupings
from those three, with z as the last digits. No bias correction is applied;
the surrogate tests absorb estimator bias under the null.
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


def _check_state_space(alphabet_sizes: tuple[int, ...], cap: int) -> None:
    if math.prod(map(int, alphabet_sizes)) > cap:
        raise StateSpaceTooLargeError(f"joint state space exceeds cap of {cap} states")


def _encode_columns(cols: np.ndarray, alphabet_sizes: tuple[int, ...], cap: int) -> np.ndarray:
    """Pack integer columns into one mixed-radix key per row, first column most significant."""
    _check_state_space(alphabet_sizes, cap)
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
    # A leading unit axis keeps one (empty) symbol per key when there are no columns.
    symbols = np.stack(np.unravel_index(uniq, (1, *sizes)), axis=1)[:, 1:]
    return JointCounts(
        alphabet_sizes=sizes,
        counts=dict(zip(map(tuple, symbols.tolist()), counts.tolist())),
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


def _log_probs(keys: np.ndarray) -> np.ndarray:
    """log2 empirical probability of each row's key."""
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return np.log2(counts[inverse] / keys.size)


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
    parts = [_as_int_columns(cols) for cols in as_xyz(x, y, z)]
    a = int(alphabet_size)
    # The full joint is the largest space, so checking it covers every grouping.
    _check_state_space((a,) * sum(p.shape[1] for p in parts), state_cap)
    kx, ky, kz = (_encode_columns(p, (a,) * p.shape[1], state_cap) for p in parts)
    # Composed keys equal the encodings of the concatenated columns.
    sy, sz = (a ** p.shape[1] for p in parts[1:])
    local = (
        _log_probs((kx * sy + ky) * sz + kz)
        + _log_probs(kz)
        - _log_probs(kx * sz + kz)
        - _log_probs(ky * sz + kz)
    )
    return InfoValue(value=float(local.mean()), local=local)


class DiscreteEstimator(Estimator):
    """Adapter exposing the plug-in estimator behind the common API."""

    def __init__(self, alphabet_size: int, state_cap: int = DEFAULT_STATE_CAP):
        if alphabet_size < 1:
            raise EstimatorError("alphabet_size must be >= 1")
        self.alphabet_size = int(alphabet_size)
        self.state_cap = int(state_cap)

    def cmi(self, x, y, z=None) -> InfoValue:
        return plugin_cmi(x, y, z, self.alphabet_size, self.state_cap)
