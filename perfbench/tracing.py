"""Span tracing of the infonet layers, installed from outside the library.

``install`` replaces each traced function or method with a wrapper that
records one span per call: name, start, end, parent span and thread. A
function is replaced at every module-level name in ``infonet`` that is bound
to it, so callers that imported it by name (``from .stats import
max_statistic_test``) see the wrapper too. ``layer_metrics`` turns the spans
of one traced pass into the per-layer metrics of ``BENCHMARK.json``; every
``.s`` metric is self time: a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import json
import sys
import threading
import time


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    counts: dict | None


def _n_columns(a):
    return {"cmis": a["columns"].shape[1]}


def _n_batch(a):
    return {"cmis": len(a["x_batch"])}


def _n_queries(a):
    query = a["query"]
    return {"points": 1 if getattr(query, "ndim", 2) == 1 else len(query)}


def _n_members(a):
    return {"points": a["self"].n}


def _n_compare(a):
    links = len(a["links"])
    return {"links": links, "draws": links * a["n_perm"]}


# (module, function or Class.method, span name, counts from the bound
# arguments).
# The span name's first component is the layer. Estimator methods are listed
# on every class that defines them, because a subclass override hides the
# base-class wrapper.
TARGETS = (
    ("infonet.inference", "infer_network", "inference.infer_network", None),
    ("infonet.inference", "infer_target", "inference.infer_target", None),
    ("infonet.stats", "max_statistic_test", "stats.max_test", None),
    ("infonet.stats", "min_statistic_test", "stats.min_test", None),
    ("infonet.stats", "omnibus_test", "stats.omnibus_test", None),
    ("infonet.stats", "surrogate_index_matrix", "stats.surrogate_index_matrix", None),
    ("infonet.stats", "surrogate_indices", "stats.surrogate_indices", None),
    ("infonet.stats", "fdr_correct", "stats.fdr_correct", None),
    ("infonet.estimators.base", "Estimator.cmi_value", "estimator.cmi_value", None),
    ("infonet.estimators.base", "Estimator.candidates_cmi", "estimator.candidates_cmi", _n_columns),
    ("infonet.estimators.base", "Estimator.cmi_surrogate_batch", "estimator.surrogate_batch", _n_batch),
    ("infonet.estimators.gaussian", "GaussianEstimator.cmi", "estimator.cmi", None),
    ("infonet.estimators.gaussian", "GaussianEstimator.cmi_value", "estimator.cmi_value", None),
    ("infonet.estimators.gaussian", "GaussianEstimator.candidates_cmi", "estimator.candidates_cmi", _n_columns),
    ("infonet.estimators.gaussian", "GaussianEstimator.cmi_surrogate_batch", "estimator.surrogate_batch", _n_batch),
    ("infonet.estimators.gaussian", "gaussian_cmi", "estimator.gaussian_cmi", None),
    ("infonet.estimators.gaussian", "gaussian_cmi_batch", "estimator.gaussian_batch", None),
    ("infonet.estimators.knn", "KnnEstimator.cmi", "estimator.cmi", None),
    ("infonet.estimators.knn", "KnnEstimator.cmi_value", "estimator.cmi_value", None),
    ("infonet.estimators.knn", "knn_cmi", "estimator.knn_cmi", None),
    ("infonet.estimators.knn", "knn_mi", "estimator.knn_mi", None),
    ("infonet.neighbors", "NeighborIndex.__init__", "neighbors.build", None),
    ("infonet.neighbors", "NeighborIndex.range_count", "neighbors.range_count", _n_queries),
    ("infonet.neighbors", "NeighborIndex.member_kth_distance", "neighbors.kth", _n_members),
    ("infonet.neighbors", "NeighborIndex.kth_distance", "neighbors.kth", _n_queries),
    ("infonet.data", "embed", "data.embed", None),
    ("infonet.data", "normalize", "data.normalize", None),
    ("infonet.ais", "ais_estimate", "ais.ais_estimate", None),
    ("infonet.compare", "compare_networks", "compare.compare_networks", _n_compare),
    ("infonet.compare", "union_link_structures", "compare.union_link_structures", None),
    ("infonet.generate", "generate_dataset", "generate.generate_dataset", None),
)

# Work counts: exact functions of the inputs, so they repeat at a fixed seed.
COUNTS = (
    "stats.max_test.calls",
    "stats.min_test.calls",
    "stats.omnibus_test.calls",
    "stats.surrogate_draws",
    "estimator.surrogate.calls",
    "estimator.surrogate_cmis",
    "estimator.observed.calls",
    "estimator.observed_cmis",
    "estimator.gaussian_batch.calls",
    "neighbors.builds",
    "neighbors.range_count.calls",
    "neighbors.kth.calls",
    "neighbors.points_queried",
    "data.embed.calls",
    "data.normalize.calls",
    "ais.calls",
    "compare.links",
    "compare.draws",
)

_OBSERVED = ("estimator.candidates_cmi", "estimator.cmi_value", "estimator.cmi")
_SURROGATE = "estimator.surrogate_batch"


class Tracer:
    """Collects spans in memory; thread-safe for the library's worker threads.

    Create it on the main thread: spans opened on other threads with nothing
    open on their own stack take the main thread's innermost open span as
    parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # The library's only threads are infer_network's workers, started
        # while the main thread waits inside the span it has open.
        if threading.current_thread() is not self._main and self._main_stack:
            return self._main_stack[-1]
        return None

    def wrap(self, fn, name: str, counts=None):
        signature = inspect.signature(fn) if counts else None

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            extra = {} if counts else None  # filled once the call has returned
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent, name, threading.get_ident(), start, end, extra)
                )
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra.update(counts(bound.arguments))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals.

    Raises if a target no longer exists where it is listed, so a refactor
    that moves a name fails here instead of silently reading zero.
    """
    undo: list[tuple[object, str, object]] = []

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    try:
        for module_name, qualname, span_name, counts in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                if attr not in vars(owner):
                    raise AttributeError(f"{module_name}.{qualname} is not defined on {class_name}")
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, span_name, counts))
                continue
            original = getattr(module, qualname)
            wrapper = tracer.wrap(original, span_name, counts)
            for m in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "infonet"]:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, attr, original))
                        setattr(m, attr, wrapper)
    except BaseException:
        uninstall()
        raise
    return uninstall


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    by_id = {s.id: s for s in spans}
    self_s = _self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def calls(name):
        return float(len(named(name)))

    def self_sum(prefixes):
        return float(sum(self_s[s.id] for s in spans if s.name.startswith(prefixes)))

    def count_sum(names, key):
        return float(sum(s.counts.get(key, 0) for s in spans if s.name in names))

    # Estimator spans belong to their outermost estimator ancestor: a
    # surrogate batch or an observed evaluation (the base class computes
    # both by calling cmi_value, so nested calls are not new work).
    def root_of(s):
        root = s
        while root.parent is not None and by_id[root.parent].name.startswith("estimator."):
            root = by_id[root.parent]
        return root

    roots = {}
    for s in spans:
        if s.name.startswith("estimator."):
            roots[s.id] = root_of(s)
    batch_roots = [s for s in spans if s.name == _SURROGATE and roots[s.id] is s]
    observed_roots = [s for s in spans if s.name in _OBSERVED and roots[s.id] is s]
    surrogate_s = float(sum(self_s[i] for i, r in roots.items() if r.name == _SURROGATE))
    observed_s = float(sum(self_s[i] for i, r in roots.items() if r.name in _OBSERVED))
    surrogate_cmis = float(sum(s.counts.get("cmis", 0) for s in batch_roots))
    batch_wall = sum(s.end - s.start for s in batch_roots)
    observed_cmis = float(
        sum(1 if s.counts is None else s.counts.get("cmis", 0) for s in observed_roots)
    )

    targets = named("inference.infer_target")
    networks = named("inference.infer_network")
    target_total = sum(s.end - s.start for s in targets)
    network_total = sum(s.end - s.start for s in networks)

    return {
        "inference.target_s_max": max((s.end - s.start for s in targets), default=0.0),
        "inference.parallel_eff": target_total / (threads * network_total) if network_total else 0.0,
        "stats.max_test.calls": calls("stats.max_test"),
        "stats.max_test.s": self_sum(("stats.max_test",)),
        "stats.min_test.calls": calls("stats.min_test"),
        "stats.min_test.s": self_sum(("stats.min_test",)),
        "stats.omnibus_test.calls": calls("stats.omnibus_test"),
        "stats.omnibus_test.s": self_sum(("stats.omnibus_test",)),
        "stats.surrogates.s": self_sum(("stats.surrogate_index_matrix", "stats.surrogate_indices")),
        "stats.surrogate_draws": calls("stats.surrogate_indices"),
        "estimator.surrogate.calls": float(len(batch_roots)),
        "estimator.surrogate_cmis": surrogate_cmis,
        "estimator.surrogate.s": surrogate_s,
        "estimator.surrogate_cmis_per_s": surrogate_cmis / batch_wall if batch_wall else 0.0,
        "estimator.observed.calls": float(len(observed_roots)),
        "estimator.observed_cmis": observed_cmis,
        "estimator.observed.s": observed_s,
        "estimator.gaussian_batch.calls": calls("estimator.gaussian_batch"),
        "neighbors.builds": calls("neighbors.build"),
        "neighbors.build.s": self_sum(("neighbors.build",)),
        "neighbors.range_count.calls": calls("neighbors.range_count"),
        "neighbors.range_count.s": self_sum(("neighbors.range_count",)),
        "neighbors.kth.calls": calls("neighbors.kth"),
        "neighbors.kth.s": self_sum(("neighbors.kth",)),
        "neighbors.points_queried": count_sum(("neighbors.range_count", "neighbors.kth"), "points"),
        "data.embed.calls": calls("data.embed"),
        "data.embed.s": self_sum(("data.embed",)),
        "data.normalize.calls": calls("data.normalize"),
        "data.normalize.s": self_sum(("data.normalize",)),
        "ais.calls": calls("ais.ais_estimate"),
        "ais.s": self_sum(("ais.",)),
        "compare.links": count_sum(("compare.compare_networks",), "links"),
        "compare.draws": count_sum(("compare.compare_networks",), "draws"),
        "compare.s": self_sum(("compare.",)),
        "generate.s": self_sum(("generate.",)),
    }
