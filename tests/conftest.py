"""Shared test plumbing: acceptance criteria get one printed line each, and
the estimator tests build replication blocks and surrogate batches one way."""

from __future__ import annotations

import numpy as np

from infonet.estimators.base import SurrogateBatch, gather_indices
from infonet.stats import surrogate_indices

_CRITERION_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion for the summary."""
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES.append((number, f"[criterion {number:2d}] {status} - {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


def blocks_of(lengths) -> tuple[tuple[int, int], ...]:
    """The (start, stop) rows of consecutive replications of the given lengths."""
    stops = np.cumsum(lengths).tolist()
    return tuple(zip([0, *stops[:-1]], stops))


def surrogate_batch(x, blocks, policy, n_perm, width=None) -> SurrogateBatch:
    """The draws of one permutation test for column block x, as the tests build them."""
    draws = surrogate_indices(blocks, policy, n_perm)
    return SurrogateBatch(x, draws, blocks, policy.method, width)


def batch_members(batch: SurrogateBatch) -> list[np.ndarray]:
    """Every member of a batch in member order, each gathered on its own.

    Member ``i`` is candidate ``i // n_draws`` under draw ``i % n_draws``; its
    rows come straight from ``gather_indices``, so these references do not
    depend on how ``members`` reads the batch.
    """
    rows = gather_indices(batch.draws, batch.blocks, batch.method)
    return [
        batch.columns[rows[draw], candidate * batch.width : (candidate + 1) * batch.width]
        for candidate in range(batch.n_candidates)
        for draw in range(batch.n_draws)
    ]
