"""Checks on the benchmark's tracing: run with ``python3 -m pytest perfbench``.

A refactor that moves or renames a traced function must fail here, not leave
a layer reading zero; and the count metrics must repeat exactly at a fixed
seed, so that a later change may claim a gain on a count.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
import infonet  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

CONFIG = json.loads(run.CONFIG.read_text(encoding="utf-8"))
_passes: dict[str, list[dict]] = {}


def traced_passes(name: str) -> list[dict]:
    """Per-layer metrics of two traced passes of one workload at the default seed."""
    if name not in _passes:
        runner = worker.Runner(workloads.WORKLOADS[name], run.DEFAULT_SEED)
        _passes[name] = [runner.traced_iteration(0) for _ in range(2)]
        assert not any(runner.failures), runner.failures
    return _passes[name]


def test_config_names_match_the_code():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    for w in CONFIG["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_wrappers_sit_where_callers_look_them_up():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for module, attr in (
            (infonet.inference, "max_statistic_test"),
            (infonet.inference, "min_statistic_test"),
            (infonet.inference, "omnibus_test"),
            (infonet.inference, "embed"),
            (infonet.inference, "normalize"),
            (infonet.ais, "omnibus_test"),
            (infonet.compare, "embed"),
            (infonet.compare, "normalize"),
            (infonet.stats, "surrogate_index_matrix"),
            (infonet.estimators.gaussian, "gaussian_cmi_batch"),
            (infonet, "infer_network"),
            (infonet, "ais_estimate"),
            (infonet, "compare_networks"),
        ):
            assert hasattr(getattr(module, attr), "__wrapped__"), f"{module.__name__}.{attr}"
    finally:
        uninstall()
    assert not hasattr(infonet.inference.max_statistic_test, "__wrapped__")
    assert not hasattr(infonet.neighbors.NeighborIndex.range_count, "__wrapped__")


def test_install_fails_loudly_on_a_moved_name(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("infonet.stats", "no_such_test", "stats.x", None),)
    )
    with pytest.raises(AttributeError):
        tracing.install(tracing.Tracer())
    assert not hasattr(infonet.inference.max_statistic_test, "__wrapped__")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_predicted_layers_are_active_and_idle_ones_read_zero(name):
    metrics = traced_passes(name)[0]
    # The overhead needs an untraced iteration beside the traced one.
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in CONFIG["per_layer"]}
    for metric, expected in workloads.WORKLOADS[name].predictions.items():
        if expected == "zero":
            assert metrics[metric] == 0, f"{name}: {metric} = {metrics[metric]}"
        else:
            assert metrics[metric] > 0, f"{name}: {metric} reads zero"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(name):
    first, second = traced_passes(name)
    assert {m for m in first if m.endswith(".calls")} <= set(tracing.COUNTS)
    assert {m: first[m] for m in tracing.COUNTS} == {m: second[m] for m in tracing.COUNTS}
