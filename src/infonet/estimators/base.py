"""Shared estimator surface: the InfoValue result and the batch protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Coerce input to a 2-D (observations, variables) float array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D data, got shape {arr.shape}")
    return arr


class Estimator:
    """Common driver interface used by inference and the permutation tests.

    Concrete estimators implement ``cmi`` (full result with locals) and may
    override ``cmi_value`` (scalar fast path). ``cmi_surrogate_batch`` evaluates the
    same conditional mutual information for a stack of replacement
    first-argument columns, and ``group_cmis`` for many unions of
    replication blocks; the defaults loop, the Gaussian estimator
    vectorizes both.

    Contract of ``cmi_surrogate_batch``: members are row permutations of
    member 0 (the permutation tests gather every member from one column
    block with one circular shift or replication shuffle per draw). An
    implementation may rely on it, as the Gaussian one does by taking the
    mean and covariance of x from member 0; the default loop and the kNN
    estimator do not.
    """

    name = "base"

    def cmi(self, x, y, z=None) -> InfoValue:
        raise NotImplementedError

    def cmi_value(self, x, y, z=None) -> float:
        return self.cmi(x, y, z).value

    def cmi_surrogate_batch(self, x_batch: np.ndarray, y, z=None) -> np.ndarray:
        out = np.empty(x_batch.shape[0], dtype=np.float64)
        for i in range(x_batch.shape[0]):
            out[i] = self.cmi_value(x_batch[i], y, z)
        return out

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

    def candidates_cmi(self, columns: np.ndarray, y, z=None) -> np.ndarray:
        """CMI of each column of an (n, m) candidate matrix against (y, z)."""
        columns = np.atleast_2d(np.asarray(columns, dtype=np.float64))
        out = np.empty(columns.shape[1], dtype=np.float64)
        for j in range(columns.shape[1]):
            out[j] = self.cmi_value(columns[:, j : j + 1], y, z)
        return out
