"""Shared test plumbing: acceptance criteria get one printed line each, and
the estimator tests build surrogate batches one way."""

from __future__ import annotations

from infonet.estimators.base import SurrogateBatch
from infonet.stats import replication_blocks, surrogate_indices

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


def surrogate_batch(x, rep_ids, policy, n_perm, width=None) -> SurrogateBatch:
    """The draws of one permutation test for column block x, as the tests build them."""
    blocks = replication_blocks(rep_ids)
    draws = surrogate_indices(blocks, policy, n_perm)
    return SurrogateBatch(x, draws, tuple(blocks), policy.method, width)
