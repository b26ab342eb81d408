"""Shared estimator surface: the input contract, the InfoValue result, the
surrogate batch and the batch protocol.

Every estimator reads (x, y, z) through :func:`as_xyz`, or (y, z) through
:func:`as_yz`: each becomes 2-D (observations, variables) float columns, and
an absent or empty z an (n, 0) block. Input of more than two dimensions
raises ``DataError``, a NaN or infinite value ``InvalidValueError``, and
arguments whose row counts differ ``EstimatorError``.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SurrogateBatch:
    """The surrogate draws of one permutation test for an (n, d) column block.

    ``columns`` are read through :func:`as_columns`. Row ``i`` of the
    (draws, n) ``index_matrix`` gathers draw ``i`` from ``columns``. ``blocks`` are
    the (start, stop) rows of the replications, and each draw either rotates
    every block right by its own offset (``CIRCULAR_SHIFT``) or reorders whole
    equal-length blocks (``REPLICATION_SHUFFLE``). Every draw is therefore a
    row permutation of ``columns``, and its structure can be read off the
    block-start columns of the index matrix without gathering any rows.

    The block holds one or more candidates of ``width`` columns each (by
    default one candidate of the full width), and every candidate shares the
    test's draws. Member ``i`` is candidate ``i // draws`` under draw
    ``i % draws``, so ``len`` counts candidates times draws and the members
    of one candidate are consecutive.
    """

    columns: np.ndarray
    index_matrix: np.ndarray
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
        n = self.columns.shape[0]
        if np.ndim(self.index_matrix) != 2 or np.shape(self.index_matrix)[1] != n:
            raise StatsError(
                f"index matrix of shape {np.shape(self.index_matrix)} does not gather {n} rows"
            )
        starts, stops = [start for start, _ in self.blocks], [stop for _, stop in self.blocks]
        if not stops or starts != [0, *stops[:-1]] or stops[-1] != n or any(
            start >= stop for start, stop in self.blocks
        ):
            raise StatsError(f"blocks {self.blocks} do not tile rows 0..{n}")

    @property
    def n_draws(self) -> int:
        return self.index_matrix.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.columns.shape[1] // self.width

    def __len__(self) -> int:
        return self.n_candidates * self.n_draws

    def __getitem__(self, i: int) -> np.ndarray:
        candidate, draw = divmod(i, self.n_draws)
        first = candidate * self.width
        return self.columns[self.index_matrix[draw], first : first + self.width]

    def _starts(self) -> np.ndarray:
        return self.index_matrix[:, [start for start, _ in self.blocks]]

    def rotations(self) -> np.ndarray:
        """(draws, blocks) right rotation of each block: its first row came from stop - r."""
        return np.array([stop for _, stop in self.blocks]) - self._starts()

    def block_orders(self) -> np.ndarray:
        """(draws, blocks) source block of each block under a replication shuffle."""
        start, stop = self.blocks[0]
        return self._starts() // (stop - start)


class Estimator:
    """Common driver interface used by inference and the permutation tests.

    Concrete estimators implement ``cmi`` (full result with locals) and may
    override ``cmi_value`` (scalar fast path). ``cmis`` evaluates the same
    conditional mutual information for many replacement first arguments of
    one width against one fixed (y, z), and ``group_cmis`` for many unions
    of replication blocks; the defaults loop over ``cmi_value``, so they
    equal the scalar path exactly.

    ``candidates_cmi`` (one member per column of a candidate matrix) and
    ``cmi_surrogate_batch`` (one per member of a :class:`SurrogateBatch`, the
    draws of one permutation test for one or more equal-width candidates, in
    the batch's candidate-major member order) hand their members to ``cmis``.
    An estimator that shares the (y, z) work across members overrides
    ``cmis`` alone, as the kNN one does at small n. An override of the two
    adapters may use more structure: the Gaussian surrogate one never
    gathers rows and shares the (y, z) work across every candidate.
    """

    name = "base"

    def cmi(self, x, y, z=None) -> InfoValue:
        raise NotImplementedError

    def cmi_value(self, x, y, z=None) -> float:
        return self.cmi(x, y, z).value

    def cmis(self, xs, y, z=None) -> np.ndarray:
        """CMI of each member of ``xs`` against one fixed (y, z).

        ``xs`` is a sequence (``len`` and integer indexing) of x arguments
        of one shape, such as a :class:`SurrogateBatch`; returns one value
        per member, in order.
        """
        out = np.empty(len(xs), dtype=np.float64)
        for i in range(len(xs)):
            out[i] = self.cmi_value(xs[i], y, z)
        return out

    def cmi_surrogate_batch(self, x_batch: SurrogateBatch, y, z=None) -> np.ndarray:
        return self.cmis(x_batch, y, z)

    def candidates_cmi(self, columns: np.ndarray, y, z=None) -> np.ndarray:
        """CMI of each column of an (n, m) candidate matrix against (y, z)."""
        return self.cmis(as_columns(columns).T[:, :, np.newaxis], y, z)

    def group_cmis(self, blocks, groups) -> np.ndarray:
        """CMI of each group of (x, y, z) blocks, pooled in the order given.

        ``blocks`` is a list of per-replication ``(x, y, z)`` arrays and each
        entry of ``groups`` a sequence of block ids; returns one value per
        group. The default concatenates a group's blocks in the given order
        and calls ``cmi_value``. That order is kept because an estimator may
        depend on it: kNN jitter is added row by row.
        """
        out = np.empty(len(groups), dtype=np.float64)
        for g, members in enumerate(groups):
            x, y, z = (
                np.concatenate([blocks[i][k] for i in members], axis=0) for k in range(3)
            )
            out[g] = self.cmi_value(x, y, z)
        return out
