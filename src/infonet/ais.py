"""Active information storage: how much a process's past tells about its present.

The informative past is built with the same greedy self-embedding used during
network inference (:func:`~infonet.inference.select_target_past` on a
:class:`~infonet.inference.TargetWorkspace` holding only the target's own
lags); the storage value is the joint mutual information between
the selected past variables and the present sample. Significance comes from
jointly surrogating the past columns, and "no storage detected" is a
first-class outcome: an empty embedding reports 0 bits with p = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, VariableRef
from .estimators import InfoValue
from .inference import InferenceSettings, TargetWorkspace, select_target_past
from .seeding import PHASE_OMNIBUS
from .stats import TestResult, omnibus_test


@dataclass(frozen=True)
class StorageResult:
    """Active information storage for one process."""

    process: int
    value_bits: float
    selected_embedding: tuple[VariableRef, ...]
    test: TestResult
    local: np.ndarray | None


def ais_estimate(dataset: Dataset, process: int, settings: InferenceSettings) -> StorageResult:
    """Greedy self-embedding plus joint past-present information, with locals."""
    ws = TargetWorkspace(dataset, process, settings, include_sources=False)
    embedding = sorted(select_target_past(ws), key=VariableRef.sort_key)
    past_cols = ws.columns(embedding)
    if embedding:
        info = ws.estimator.cmi(past_cols, ws.y, None)
    else:
        info = InfoValue(0.0, np.zeros(ws.n_rows))
    test = omnibus_test(
        past_cols,
        ws.y,
        None,
        ws.blocks,
        ws.estimator,
        ws.policy(PHASE_OMNIBUS, 0),
        settings.n_perm_omnibus,
        settings.alpha_omnibus,
    )
    return StorageResult(
        process=process,
        value_bits=info.value,
        selected_embedding=tuple(embedding),
        test=test,
        local=info.local,
    )
