"""Shared estimator surface: the input contract, the InfoValue result, the
surrogate batch and the batch protocol.

Every estimator reads (x, y, z) through :func:`as_xyz`, or (y, z) through
:func:`as_yz`: each becomes 2-D (observations, variables) float columns, and
an absent or empty z an (n, 0) block. Input of more than two dimensions
raises ``DataError``, a NaN or infinite value ``InvalidValueError``, and
arguments whose row counts differ ``EstimatorError``.

Replications are (start, stop) row blocks that tile a table, as ``embed``
reports them, checked by :func:`check_blocks` for the permutation tests, a
:class:`SurrogateBatch` and ``group_cmis`` alike; :func:`check_groups`
checks the block ids of ``group_cmis``' groups.
"""

from __future__ import annotations

import operator
import reprlib
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, EstimatorError, InvalidValueError, StatsError

CIRCULAR_SHIFT = "circular_shift"
REPLICATION_SHUFFLE = "replication_shuffle"

SURROGATE_METHODS = (CIRCULAR_SHIFT, REPLICATION_SHUFFLE)


@dataclass(frozen=True)
class InfoValue:
    """An information estimate in bits, optionally with per-observation values.

    When ``local`` is present its mean equals ``value`` (within float error);
    the estimators compute locals from per-observation terms, not by
    construction from the global value.
    """

    value: float
    local: np.ndarray | None = None


def as_columns(x) -> np.ndarray:
    """Coerce input to a 2-D (observations, variables) array of finite floats."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise DataError(f"expected 1-D or 2-D data, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = np.count_nonzero(~np.isfinite(arr))
        raise InvalidValueError(f"{bad} NaN or infinite values in data of shape {arr.shape}")
    return arr


def as_yz(y, z, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, z) as columns of n rows each; an absent or empty z becomes (n, 0)."""
    y = as_columns(y)
    z = as_columns(z) if z is not None and np.size(z) else np.empty((n, 0))
    for name, arg in (("y", y), ("z", z)):
        if arg.shape[0] != n:
            raise EstimatorError(f"{name} has {arg.shape[0]} rows, x has {n}")
    return y, z


def as_xyz(x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z) as columns sharing x's row count; see :func:`as_yz`."""
    x = as_columns(x)
    return (x, *as_yz(y, z, x.shape[0]))


def check_blocks(blocks, n: int | None = None) -> tuple[tuple[int, int], ...]:
    """``blocks`` as a tuple of int (start, stop) pairs that tile rows 0..n in order.

    ``n`` defaults to the last stop. Anything else raises ``StatsError``
    naming ``blocks``: a value that is not a sequence of integer pairs, such
    as an array of per-row replication ids, or pairs with a gap, an overlap,
    an empty block, a negative start or a stop past n, which would otherwise
    skip, repeat or silently wrap rows in a row gather.
    """
    try:
        pairs = tuple((operator.index(start), operator.index(stop)) for start, stop in blocks)
    except (TypeError, ValueError):
        raise StatsError(
            f"blocks must be integer (start, stop) pairs, got {reprlib.repr(blocks)}"
        ) from None
    edges = [0, *(stop for _, stop in pairs)]
    n = edges[-1] if n is None else n
    if not pairs or pairs != tuple(zip(edges, edges[1:])) or edges[-1] != n or any(
        start >= stop for start, stop in pairs
    ):
        raise StatsError(f"blocks {pairs} do not tile rows 0..{n}")
    return pairs


def check_groups(groups, n_blocks: int) -> None:
    """Raise ``StatsError`` naming the first group that is empty or holds a
    block id that is not an integer in 0..n_blocks-1.

    An id may repeat within a group: its block then counts once per repeat,
    on every ``group_cmis`` path. Valid groups take one vectorized pass.
    """

    def in_range(ids: np.ndarray) -> bool:
        return ids.dtype.kind in "iu" and bool(((ids >= 0) & (ids < n_blocks)).all())

    if all(map(len, groups)) and in_range(np.concatenate([*groups, np.empty(0, np.intp)])):
        return
    for g, ids in enumerate(map(np.asarray, groups)):
        if not (ids.size and in_range(ids)):
            raise StatsError(
                f"group {g} {ids.tolist()} must hold one or more integer block ids "
                f"in 0..{n_blocks - 1}"
            )


def gather_indices(draws: np.ndarray, blocks, method: str) -> np.ndarray:
    """(k, n) gather indices of the (k, blocks) draws of a :class:`SurrogateBatch`."""
    starts, stops = np.array(blocks).T
    lengths = stops - starts
    if method == REPLICATION_SHUFFLE:
        rows = draws[:, :, np.newaxis] * lengths[0] + np.arange(lengths[0])
        return rows.reshape(len(draws), -1)
    # A rotation r makes row j read row j - r, wrapped back into its block.
    # Built in place, so the peak is one matrix.
    idx = np.repeat(draws, lengths, axis=1)
    np.subtract(np.arange(stops[-1]), idx, out=idx)
    np.add(idx, np.repeat(lengths, lengths), out=idx, where=idx < np.repeat(starts, lengths))
    return idx


@dataclass(frozen=True)
class SurrogateBatch:
    """The surrogate draws of one permutation test for an (n, d) column block.

    ``columns`` are read through :func:`as_columns`. ``blocks`` are the
    (start, stop) rows of the replications, and row ``i`` of the integer
    (draws, blocks) ``draws`` describes draw ``i``: under ``CIRCULAR_SHIFT``
    the right rotation in [0, length) of each block, under
    ``REPLICATION_SHUFFLE`` the source block of each of the equal-length
    blocks, a permutation of the block ids. Every draw is therefore a row
    permutation of ``columns``; :func:`gather_indices` gives its rows, and
    an estimator may use the rotations or block orders without gathering.

    The block holds one or more candidates of ``width`` columns each (by
    default one candidate of the full width), and every candidate shares the
    test's draws. Member ``i`` is candidate ``i // draws`` under draw
    ``i % draws``, so ``len`` counts candidates times draws and the members
    of one candidate are consecutive. Rotation 0 is the observed alignment:
    its gather indices are the identity.
    """

    columns: np.ndarray
    draws: np.ndarray
    blocks: tuple[tuple[int, int], ...]
    method: str
    width: int | None = None

    def __post_init__(self):
        if self.method not in SURROGATE_METHODS:
            raise StatsError(f"unknown surrogate method {self.method!r}")
        object.__setattr__(self, "columns", as_columns(self.columns))
        total = self.columns.shape[1]
        if self.width is None:
            object.__setattr__(self, "width", total)
        if self.width < 1 or total % self.width:
            raise StatsError(f"{total} columns do not split into candidates of width {self.width}")
        object.__setattr__(self, "blocks", check_blocks(self.blocks, self.columns.shape[0]))
        object.__setattr__(self, "draws", _checked_draws(self.draws, self.blocks, self.method))

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.columns.shape[1] // self.width

    def __len__(self) -> int:
        return self.n_candidates * self.n_draws


def members(xs: SurrogateBatch):
    """(index, member) for every member of a :class:`SurrogateBatch`.

    The batch is read draw by draw: each draw's rows are gathered once, for
    all candidates' columns, and every candidate's member is sliced from
    them. Any other argument raises ``EstimatorError``.
    """
    if not isinstance(xs, SurrogateBatch):
        raise EstimatorError(f"members come from a SurrogateBatch, not {type(xs).__name__}")
    for draw in range(xs.n_draws):
        rows = gather_indices(xs.draws[draw : draw + 1], xs.blocks, xs.method)[0]
        gathered = xs.columns[rows]
        for candidate in range(xs.n_candidates):
            first = candidate * xs.width
            yield candidate * xs.n_draws + draw, gathered[:, first : first + xs.width]


def _checked_draws(draws, blocks, method: str) -> np.ndarray:
    """``draws`` as an array if each draw permutes rows within blocks; else ``StatsError``.

    Unchecked, the Gaussian kernel would wrap a rotation out of range, while
    the gathered rows would leave the block.
    """
    draws = np.asarray(draws)
    lengths = np.array([stop - start for start, stop in blocks])
    if draws.ndim != 2 or draws.shape[1] != lengths.size or draws.dtype.kind not in "iu":
        raise StatsError(
            f"draws of shape {draws.shape} and type {draws.dtype}, not int (draws, {lengths.size})"
        )
    if method == CIRCULAR_SHIFT:
        bad = np.argwhere((draws < 0) | (draws >= lengths))
        if bad.size:
            i, b = bad[0]
            raise StatsError(
                f"rotation {draws[i, b]} of draw {i} lies outside [0, {lengths[b]}) of block {b}"
            )
    elif np.any(lengths != lengths[0]):
        raise StatsError(f"replication shuffle of blocks of unequal lengths {lengths.tolist()}")
    else:
        ids = np.arange(lengths.size)
        bad = np.flatnonzero((np.sort(draws, axis=1) != ids).any(axis=1))
        if bad.size:
            raise StatsError(
                f"draw {bad[0]} orders blocks {draws[bad[0]].tolist()}, "
                f"not a permutation of 0..{lengths.size - 1}"
            )
    return draws


class Estimator:
    """Common driver interface used by inference and the permutation tests.

    Concrete estimators implement ``cmi`` (full result with locals) and may
    override ``cmi_value`` (scalar fast path). ``cmis`` evaluates the same
    conditional mutual information for every member of a
    :class:`SurrogateBatch` against one fixed (y, z), and ``group_cmis`` for
    many unions of the same replication blocks of one (x, y, z) table; the
    defaults loop over ``cmi_value``, so they equal the scalar path exactly.

    ``cmi_surrogate_batch`` (the draws of one permutation test) and
    ``candidates_cmi`` (the unshifted batch of a candidate matrix, whose one
    draw is rotation 0) hand their batch to ``cmis``. An estimator that
    shares the (y, z) work across members overrides ``cmis`` alone, as the
    kNN one does at small n. An override of the two adapters may use more
    structure: the Gaussian surrogate one never gathers rows and shares the
    (y, z) work across every candidate.
    """

    def cmi(self, x, y, z=None) -> InfoValue:
        raise NotImplementedError

    def cmi_value(self, x, y, z=None) -> float:
        return self.cmi(x, y, z).value

    def cmis(self, xs: SurrogateBatch, y, z=None) -> np.ndarray:
        """CMI of each member of the batch ``xs`` against one fixed (y, z).

        Returns one value per member, in the batch's member order. Members
        are read through :func:`members`, so each draw is gathered once.
        """
        out = np.empty(len(xs), dtype=np.float64)
        for i, x in members(xs):
            out[i] = self.cmi_value(x, y, z)
        return out

    def cmi_surrogate_batch(self, x_batch: SurrogateBatch, y, z=None) -> np.ndarray:
        return self.cmis(x_batch, y, z)

    def candidates_cmi(self, columns: np.ndarray, y, z=None) -> np.ndarray:
        """CMI of each column of an (n, m) candidate matrix against (y, z), unshifted."""
        rotation_0, block = np.zeros((1, 1), dtype=np.intp), ((0, len(columns)),)
        return self.cmis(SurrogateBatch(columns, rotation_0, block, CIRCULAR_SHIFT, 1), y, z)

    def group_cmis(self, x, y, z, blocks, groups) -> np.ndarray:
        """CMI of each group of replication blocks of one (x, y, z) table.

        ``blocks`` are the (start, stop) rows of the replications, which must
        tile the table as in a :class:`SurrogateBatch`, and each entry of
        ``groups`` is a sequence of block ids; returns one value per group.
        :func:`check_groups` checks the ids; a repeated id counts its block
        once per repeat.
        The default gathers a group's rows block by block in the given order
        and calls ``cmi_value``. That order is kept because an estimator may
        depend on it: kNN jitter is added row by row.
        """
        x, y, z = as_xyz(x, y, z)
        blocks = check_blocks(blocks, len(x))
        check_groups(groups, len(blocks))
        out = np.empty(len(groups), dtype=np.float64)
        for g, ids in enumerate(groups):
            rows = np.concatenate([np.arange(*blocks[i]) for i in ids])
            out[g] = self.cmi_value(x[rows], y[rows], z[rows])
        return out
