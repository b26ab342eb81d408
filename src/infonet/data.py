"""Time-series container, candidate-variable addressing and embedding.

The canonical layout is a 3-axis array indexed (process, sample, replication).
Every module in the package indexes in this order. A ``VariableRef`` names one
candidate past variable as a (process, lag) pair; ``embed`` turns a set of
them into the flat observation table the estimators consume.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    InsufficientSamplesError,
    InvalidValueError,
)

KIND_CONTINUOUS = "continuous"
KIND_DISCRETE = "discrete"

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class VariableRef:
    """One candidate past variable: ``lag`` samples behind the present."""

    process: int
    lag: int

    def __post_init__(self):
        if self.process < 0:
            raise DataError(f"process index must be >= 0, got {self.process}")
        if self.lag < 1:
            raise DataError(f"lag must be >= 1, got {self.lag}")

    def sort_key(self) -> tuple[int, int]:
        return (self.process, self.lag)


@dataclass(frozen=True)
class Dataset:
    """Immutable (process, sample, replication) block of 64-bit reals.

    Discrete data is stored in the same float array but validated to hold
    integers in ``[0, alphabet_size)``.
    """

    values: np.ndarray
    kind: str = KIND_CONTINUOUS
    alphabet_size: int | None = None
    normalized: bool = False
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if arr.ndim != 3:
            raise DataError(
                f"values must be 3-axis (process, sample, replication), got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise DataError(f"all axis lengths must be >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidValueError("dataset contains NaN or infinite entries")
        if self.kind not in (KIND_CONTINUOUS, KIND_DISCRETE):
            raise DataError(f"unknown kind {self.kind!r}")
        if self.kind == KIND_DISCRETE:
            if self.alphabet_size is None or self.alphabet_size < 1:
                raise DataError("discrete data requires a positive alphabet_size")
            if not np.array_equal(arr, np.rint(arr)):
                raise InvalidValueError("discrete data must be integer-valued")
            if arr.min() < 0 or arr.max() >= self.alphabet_size:
                raise InvalidValueError(
                    f"discrete values must lie in [0, {self.alphabet_size})"
                )
        if self.normalized:
            means = arr.mean(axis=1)
            sds = arr.std(axis=1, ddof=1) if arr.shape[1] > 1 else np.zeros_like(means)
            constant = sds < 1e-300
            off = (np.abs(means) > _NORM_TOL) | (~constant & (np.abs(sds - 1.0) > _NORM_TOL))
            if np.any(off):
                raise DataError("normalized flag set but series are not standardized")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_processes(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    @property
    def n_replications(self) -> int:
        return self.values.shape[2]

    def series(self, process: int, replication: int) -> np.ndarray:
        """One (process, replication) sample vector, read-only view."""
        return self.values[process, :, replication]


def normalize(dataset: Dataset) -> Dataset:
    """Z-score every (process, replication) series; idempotent.

    Constant series are mapped to zeros and recorded in ``warnings`` rather
    than rejected. A series is constant when all its values are equal, not
    only when its deviation vanishes: the rounded mean of n copies of c need
    not equal c, which leaves a deviation of order eps * |c|. Raises on
    discrete data.
    """
    if dataset.kind != KIND_CONTINUOUS:
        raise DataError("normalize applies to continuous data only")
    # (process, replication, sample): each series is one contiguous row, and
    # its mean and deviation along that row equal those of the series alone.
    series = np.ascontiguousarray(dataset.values.transpose(0, 2, 1))
    mean = series.mean(axis=2, keepdims=True)
    if dataset.n_samples > 1:
        sd = series.std(axis=2, ddof=1, keepdims=True)
    else:
        sd = np.zeros_like(mean)
    constant = (series == series[:, :, :1]).all(axis=2, keepdims=True) | (sd < 1e-300)
    scored = np.divide(series - mean, sd, out=np.zeros_like(series), where=~constant)
    warnings = list(dataset.warnings)
    for p, r in np.argwhere(constant[:, :, 0]):
        msg = f"constant series: process {p}, replication {r}"
        if msg not in warnings:
            warnings.append(msg)
    return Dataset(
        values=scored.transpose(0, 2, 1),
        kind=dataset.kind,
        alphabet_size=dataset.alphabet_size,
        normalized=True,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class Realization:
    """Flat observation table produced by :func:`embed`.

    ``present`` holds the target's current sample, ``lagged`` one column per
    requested ``VariableRef`` (same order). Rows are grouped by replication and never
    straddle replication boundaries.
    """

    present: np.ndarray
    lagged: np.ndarray
    replication_of_row: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.present.shape[0]


def embed(
    dataset: Dataset,
    target: int,
    variables: Sequence[VariableRef],
    max_lag: int | None = None,
) -> Realization:
    """Extract the target's present plus each variable's lagged value.

    The current-sample range is ``[max_lag, n_samples)`` within every
    replication, so all embeddings sharing a ``max_lag`` share observations.
    """
    if not 0 <= target < dataset.n_processes:
        raise DataError(f"target process {target} out of range")
    variables = tuple(variables)
    for v in variables:
        if v.process >= dataset.n_processes:
            raise DataError(f"variable process {v.process} out of range")
    lag_needed = max((v.lag for v in variables), default=0)
    if max_lag is None:
        max_lag = max(lag_needed, 1) if variables else max(lag_needed, 0)
    if lag_needed > max_lag:
        raise DataError(f"variable lag {lag_needed} exceeds max_lag {max_lag}")
    t_len = dataset.n_samples
    n_valid = t_len - max_lag
    if n_valid < 1:
        raise InsufficientSamplesError(
            f"max_lag {max_lag} leaves no valid samples in replications of length {t_len}"
        )
    n_rep = dataset.n_replications
    rows = n_rep * n_valid
    present = np.empty(rows, dtype=np.float64)
    lagged = np.empty((rows, len(variables)), dtype=np.float64)
    rep_of_row = np.empty(rows, dtype=np.int64)
    for r in range(n_rep):
        sl = slice(r * n_valid, (r + 1) * n_valid)
        present[sl] = dataset.values[target, max_lag:t_len, r]
        for j, v in enumerate(variables):
            lagged[sl, j] = dataset.values[v.process, max_lag - v.lag : t_len - v.lag, r]
        rep_of_row[sl] = r
    return Realization(
        present=present,
        lagged=lagged,
        replication_of_row=rep_of_row,
    )


def _parse_csv_file(path: Path) -> tuple[list[str] | None, np.ndarray]:
    """Read one CSV file into (header or None, float matrix)."""
    if not path.exists():
        raise DataError(f"file not found: {path}")
    rows: list[list[str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row and any(cell.strip() for cell in row):
                rows.append([cell.strip() for cell in row])
    if not rows:
        raise DataError(f"empty file: {path}")
    header: list[str] | None = None
    first = rows[0]
    if not all(_is_number(cell) for cell in first):
        header = first
        rows = rows[1:]
        if not rows:
            raise DataError(f"file contains only a header: {path}")
    width = len(rows[0])
    data = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"ragged row {i + 1} in {path}: {len(row)} != {width} cells")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise InvalidValueError(f"non-numeric cell {cell!r} at row {i + 1} of {path}")
            if not np.isfinite(value):
                raise InvalidValueError(f"non-finite value {cell!r} at row {i + 1} of {path}")
            data[i, j] = value
    return header, data


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return np.isfinite(float(cell))


def load_csv(
    paths: str | Path | Iterable[str | Path],
    kind: str = KIND_CONTINUOUS,
    alphabet_size: int | None = None,
    replication_mode: str = "auto",
) -> Dataset:
    """Load the generic CSV data format.

    Columns are processes, rows are samples. Replications come either from
    multiple files (one replication each) or from a leading replication-id
    column named ``rep``. ``replication_mode`` is one of ``auto``, ``single``,
    ``per_file`` or ``rep_column``; ``auto`` picks ``per_file`` for a list of
    paths and ``rep_column`` when a ``rep`` header column is present.
    """
    if isinstance(paths, (str, Path)):
        path_list = [Path(paths)]
    else:
        path_list = [Path(p) for p in paths]
    if not path_list:
        raise DataError("no input files given")
    if replication_mode not in ("auto", "single", "per_file", "rep_column"):
        raise DataError(f"unknown replication_mode {replication_mode!r}")

    if len(path_list) > 1:
        if replication_mode not in ("auto", "per_file"):
            raise DataError("multiple files require replication_mode per_file")
        blocks = [_parse_csv_file(p)[1] for p in path_list]
        shapes = {b.shape for b in blocks}
        if len(shapes) != 1:
            raise DataError(f"replication files disagree in shape: {sorted(shapes)}")
    else:
        header, data = _parse_csv_file(path_list[0])
        lowered = [h.lower() for h in header or []]
        rep_col = lowered.index("rep") if "rep" in lowered else None
        if replication_mode == "rep_column" or (replication_mode == "auto" and rep_col is not None):
            rep_col = rep_col or 0  # without a 'rep' header, the ids are column 0
            rep_ids = data[:, rep_col]
            if not np.array_equal(rep_ids, np.rint(rep_ids)):
                raise InvalidValueError("replication-id column must hold integers")
            series = np.delete(data, rep_col, axis=1)
            blocks = [series[rep_ids == u] for u in np.unique(rep_ids)]
            if len({b.shape[0] for b in blocks}) != 1:
                raise DataError("replications must have equal length")
        else:
            blocks = [data]
    # Each block is one replication's (samples, processes) rows.
    values = np.stack(blocks, axis=2).transpose(1, 0, 2)
    return Dataset(values=values, kind=kind, alphabet_size=alphabet_size)


def save_csv(dataset: Dataset, path: str | Path, replication: int = 0) -> None:
    """Write one replication as a headerless CSV (columns = processes)."""
    block = dataset.values[:, :, replication].T
    if dataset.kind == KIND_DISCRETE:
        lines = [",".join(str(int(v)) for v in row) for row in block]
    else:
        lines = [",".join(format(v, ".17g") for v in row) for row in block]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
