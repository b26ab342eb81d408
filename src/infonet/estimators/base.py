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

    Concrete estimators implement ``cmi`` (full result with locals) and
    ``cmi_value`` (scalar fast path). ``cmi_surrogate_batch`` evaluates the
    same conditional mutual information for a stack of replacement
    first-argument columns; the default loops, the Gaussian estimator
    vectorizes it.
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

    def candidates_cmi(self, columns: np.ndarray, y, z=None) -> np.ndarray:
        """CMI of each column of an (n, m) candidate matrix against (y, z)."""
        columns = np.atleast_2d(np.asarray(columns, dtype=np.float64))
        out = np.empty(columns.shape[1], dtype=np.float64)
        for j in range(columns.shape[1]):
            out[j] = self.cmi_value(columns[:, j : j + 1], y, z)
        return out
