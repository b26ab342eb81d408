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
    than rejected. Raises on discrete data.
    """
    if dataset.kind != KIND_CONTINUOUS:
        raise DataError("normalize applies to continuous data only")
    values = np.array(dataset.values, dtype=np.float64)
    warnings = list(dataset.warnings)
    for p in range(dataset.n_processes):
        for r in range(dataset.n_replications):
            series = values[p, :, r]
            mean = series.mean()
            sd = series.std(ddof=1) if series.size > 1 else 0.0
            if sd < 1e-300:
                values[p, :, r] = 0.0
                msg = f"constant series: process {p}, replication {r}"
                if msg not in warnings:
                    warnings.append(msg)
            else:
                values[p, :, r] = (series - mean) / sd
    return Dataset(
        values=values,
        kind=dataset.kind,
        alphabet_size=dataset.alphabet_size,
        normalized=True,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class Realization:
    """Flat observation table produced by :func:`embed`.

    ``present`` holds the target's current sample, ``lagged`` one column per
    ``VariableRef`` (same order). Rows are grouped by replication and never
    straddle replication boundaries.
    """

    present: np.ndarray
    lagged: np.ndarray
    variables: tuple[VariableRef, ...]
    replication_of_row: np.ndarray
    max_lag: int

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
        variables=variables,
        replication_of_row=rep_of_row,
        max_lag=max_lag,
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
        if replication_mode in ("auto", "per_file"):
            blocks = []
            for p in path_list:
                _, data = _parse_csv_file(p)
                blocks.append(data)
            shapes = {b.shape for b in blocks}
            if len(shapes) != 1:
                raise DataError(f"replication files disagree in shape: {sorted(shapes)}")
            stacked = np.stack(blocks, axis=2)  # (samples, processes, reps)
            values = np.transpose(stacked, (1, 0, 2))
            return Dataset(values=values, kind=kind, alphabet_size=alphabet_size)
        raise DataError("multiple files require replication_mode per_file")

    header, data = _parse_csv_file(path_list[0])
    rep_col = None
    if header is not None:
        lowered = [h.lower() for h in header]
        if "rep" in lowered:
            rep_col = lowered.index("rep")
    use_rep_col = replication_mode == "rep_column" or (
        replication_mode == "auto" and rep_col is not None
    )
    if use_rep_col:
        if rep_col is None:
            rep_col = 0
        rep_ids = data[:, rep_col]
        if not np.array_equal(rep_ids, np.rint(rep_ids)):
            raise InvalidValueError("replication-id column must hold integers")
        series = np.delete(data, rep_col, axis=1)
        uniq = np.unique(rep_ids)
        blocks = [series[rep_ids == u] for u in uniq]
        lengths = {b.shape[0] for b in blocks}
        if len(lengths) != 1:
            raise DataError("replications must have equal length")
        stacked = np.stack(blocks, axis=2)
        values = np.transpose(stacked, (1, 0, 2))
        return Dataset(values=values, kind=kind, alphabet_size=alphabet_size)

    values = data.T[:, :, np.newaxis]
    return Dataset(values=values, kind=kind, alphabet_size=alphabet_size)


def save_csv(dataset: Dataset, path: str | Path, replication: int = 0) -> None:
    """Write one replication as a headerless CSV (columns = processes)."""
    block = dataset.values[:, :, replication].T
    if dataset.kind == KIND_DISCRETE:
        lines = [",".join(str(int(v)) for v in row) for row in block]
    else:
        lines = [",".join(format(v, ".17g") for v in row) for row in block]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
