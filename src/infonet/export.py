"""Canonical result serialization: JSON, DOT and dense CSV adjacency.

The JSON writer is deliberately byte-stable: keys are sorted and floats
printed with 17 significant digits (enough to round-trip doubles exactly), so
identical analyses produce identical files whatever the thread count.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .data import VariableRef
from .errors import DataError
from .inference import (
    InferenceSettings,
    Link,
    NetworkResult,
    SelectedSource,
    TargetResult,
)
from .stats import TestResult


def _format_float(value: float) -> str:
    if not np.isfinite(value):
        raise DataError(f"cannot serialize non-finite float {value!r}")
    return format(float(value), ".17g")


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{pad}  {json.dumps(str(k))}: {canonical_json(obj[k], indent + 2).lstrip()}'
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{pad}  {canonical_json(v, indent + 2).lstrip()}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise DataError(f"cannot serialize {type(obj).__name__}")


def _variable_to_dict(v: VariableRef) -> dict:
    return {"process": v.process, "lag": v.lag}


def _test_to_dict(t: TestResult) -> dict:
    return {
        "statistic_bits": t.statistic,
        "p_value": t.p_value,
        "significant": t.significant,
        "n_permutations": t.n_permutations,
        "alpha": t.alpha,
    }


def _test_from_dict(d: dict) -> TestResult:
    return TestResult(
        statistic=float(d["statistic_bits"]),
        p_value=float(d["p_value"]),
        significant=bool(d["significant"]),
        n_permutations=int(d["n_permutations"]),
        alpha=float(d["alpha"]),
    )


def network_to_dict(net: NetworkResult) -> dict:
    """Canonical result schema for one network inference run.

    ``runtime_seconds`` stays 0.0, so that identical settings and seed give
    byte-identical files.
    """
    return {
        "settings": net.settings.to_dict(),
        "targets": [
            {
                "target": tr.target,
                "selected_target_past": [
                    _variable_to_dict(v) for v in tr.selected_target_past
                ],
                "selected_sources": [
                    {
                        "process": s.variable.process,
                        "lag": s.variable.lag,
                        "cmi_bits": s.cmi_bits,
                        "p_value": s.p_value,
                    }
                    for s in tr.selected_sources
                ],
                "omnibus": _test_to_dict(tr.omnibus),
                "per_source_delay": {
                    str(p): d for p, d in sorted(tr.per_source_delay.items())
                },
            }
            for tr in net.targets
        ],
        "links": [
            {
                "source": l.source,
                "target": l.target,
                "weight_bits": l.weight_bits,
                "delay": l.delay,
                "p_value": l.p_value,
                "fdr_significant": l.fdr_significant,
            }
            for l in net.links
        ],
        "n_links_tested": net.n_links_tested,
        "runtime_seconds": 0.0,
        "seed": net.settings.seed,
    }


def network_from_dict(d: dict) -> NetworkResult:
    """Inverse of network_to_dict; exact on 17-significant-digit floats."""
    settings = InferenceSettings.from_dict(d["settings"])
    if d["seed"] != settings.seed:
        raise DataError(f"seed {d['seed']} differs from the settings seed {settings.seed}")
    targets = tuple(
        TargetResult(
            target=int(tr["target"]),
            selected_target_past=tuple(
                VariableRef(int(v["process"]), int(v["lag"]))
                for v in tr["selected_target_past"]
            ),
            selected_sources=tuple(
                SelectedSource(
                    variable=VariableRef(int(s["process"]), int(s["lag"])),
                    cmi_bits=float(s["cmi_bits"]),
                    p_value=float(s["p_value"]),
                )
                for s in tr["selected_sources"]
            ),
            omnibus=_test_from_dict(tr["omnibus"]),
            per_source_delay={
                int(p): int(delay) for p, delay in tr["per_source_delay"].items()
            },
        )
        for tr in d["targets"]
    )
    links = tuple(
        Link(
            source=int(l["source"]),
            target=int(l["target"]),
            weight_bits=float(l["weight_bits"]),
            delay=int(l["delay"]),
            p_value=float(l["p_value"]),
            fdr_significant=bool(l["fdr_significant"]),
        )
        for l in d["links"]
    )
    return NetworkResult(
        targets=targets,
        links=links,
        n_links_tested=int(d["n_links_tested"]),
        settings=settings,
    )


def network_to_json(net: NetworkResult) -> str:
    return canonical_json(network_to_dict(net)) + "\n"


def network_from_json(text: str) -> NetworkResult:
    return network_from_dict(json.loads(text))


def _n_processes(net: NetworkResult) -> int:
    processes = [tr.target for tr in net.targets]
    for link in net.links:
        processes.append(link.source)
        processes.append(link.target)
    return max(processes, default=-1) + 1


def to_dot(net: NetworkResult) -> str:
    """DOT digraph with one edge per FDR-surviving link."""
    lines = ["digraph information_transfer {"]
    for p in range(_n_processes(net)):
        lines.append(f"  p{p};")
    for link in net.adjacency:
        label = f"w={link.weight_bits:.3f}, d={link.delay}"
        lines.append(f'  p{link.source} -> p{link.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_csv_adjacency(net: NetworkResult) -> str:
    """Dense weight matrix (rows = sources, columns = targets); zeros elsewhere."""
    n = _n_processes(net)
    weights = np.zeros((n, n))
    for link in net.adjacency:
        weights[link.source, link.target] = link.weight_bits
    lines = [",".join(_format_float(v) for v in row) for row in weights]
    return "\n".join(lines) + "\n"
