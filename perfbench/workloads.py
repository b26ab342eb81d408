"""The benchmark's workloads: inputs made from a seed, one timed iteration, checks.

Every workload runs ``infer_network``; ``gauss_reps`` adds ``ais_estimate``
and ``compare_networks`` over its two conditions. Inputs come from
``GroundTruthSpec``s whose seeds, like the ``InferenceSettings`` seed, are
derived from the workload seed and the iteration index, so that a run's
median spans several datasets instead of resting on the false detections
of one. Networks are scored against the generator's ground truth. No golden
digests or estimator values are stored: the random streams of the library
may change on purpose.

No process is both driven by another process and driving one: a circularly
shifted surrogate of a process that the target drives can realign that
coupling, which makes detection, and the work done, depend on the seed.

Each workload is sized so that one iteration takes a few seconds on a
2-core machine: a run's median then rests on ten or more iterations, not
on the one or two that a host's slow spell can move.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The library under test is the one in this checkout, never an installed copy.
SRC = Path(__file__).resolve().parents[1] / "src"
if not (SRC / "infonet" / "__init__.py").is_file():
    raise ImportError(f"no infonet sources under {SRC}")
sys.path.insert(0, str(SRC))

import infonet  # noqa: E402

if Path(infonet.__file__).resolve().parent != (SRC / "infonet").resolve():
    raise ImportError(f"imported infonet from {infonet.__file__}, not from {SRC}")

GAUSS_NET_TOPOLOGY = (
    (0, 4, 1, 0.4),
    (1, 4, 2, 0.4),
    (1, 5, 3, 0.4),
    (2, 5, 1, 0.4),
    (2, 6, 2, 0.4),
    (3, 6, 3, 0.4),
    (3, 7, 1, 0.4),
    (0, 7, 2, 0.4),
)

LOCAL_TOLERANCE = 1e-10

# Each false selection at a gate adds a greedy step, a longer prune and, in
# compare_networks, a whole link, so the work of an iteration depends on the
# dataset. Gates at 1% instead of the default 5% keep that work nearly fixed
# across seeds; the code paths are the default ones.
STRICT_GATES = dict(alpha_max=0.01, alpha_min=0.01, alpha_omnibus=0.01)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    conditions: dict  # condition name -> GroundTruthSpec keyword arguments
    settings: dict  # InferenceSettings keyword arguments, seed excluded
    # Public calls besides infer_network: "ais" on every process of the
    # first condition, "compare" between the two conditions.
    analyses: tuple = ()
    # Metric name -> "nonzero" or "zero" on a traced pass of this workload.
    predictions: dict = field(default_factory=dict)


_ALWAYS = {
    "stats.max_test.calls": "nonzero",
    "stats.min_test.calls": "nonzero",
    "stats.omnibus_test.calls": "nonzero",
    "stats.surrogate_draws": "nonzero",
    "estimator.surrogate.calls": "nonzero",
    "estimator.observed.calls": "nonzero",
    "data.embed.calls": "nonzero",
}
_NO_NEIGHBORS = {
    "neighbors.builds": "zero",
    "neighbors.range_count.calls": "zero",
    "neighbors.kth.calls": "zero",
    "neighbors.points_queried": "zero",
}
_ONLY_INFER = {"ais.calls": "zero", "compare.links": "zero", "compare.draws": "zero"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gauss_net",
            why="Gaussian batch kernel, surrogate indices and max test at 2 threads on an 8-process network; kNN and plug-in do no work",
            threads=2,
            conditions={"net": dict(n_processes=8, n_samples=1500, topology=GAUSS_NET_TOPOLOGY)},
            settings=dict(estimator="gaussian", **STRICT_GATES),
            predictions={
                **_ALWAYS,
                **_NO_NEIGHBORS,
                **_ONLY_INFER,
                "estimator.gaussian_batch.calls": "nonzero",
                "data.normalize.calls": "nonzero",
            },
        ),
        Workload(
            name="knn_net",
            why="kNN estimator on a 3-process fan-in: neighbor searches dominate and the Gaussian kernel is never called",
            threads=1,
            conditions={
                "net": dict(
                    n_processes=3, n_samples=200, topology=((0, 2, 1, 2.0), (1, 2, 2, 2.0))
                )
            },
            # BH over 6 tested links needs p <= 1/60 on both true links, so
            # the sequential test needs more than 60 permutations, and a
            # single surrogate above the observed CMI of one link drops both.
            # At 200 samples, couplings of 1.0 let that happen in about one
            # iteration in fifteen; at 2.0 it did not happen in 60.
            settings=dict(
                estimator="knn",
                max_lag_sources=2,
                max_lag_target=1,
                n_perm_max=20,
                n_perm_min=20,
                n_perm_omnibus=20,
                n_perm_seq=80,
            ),
            predictions={
                **_ALWAYS,
                **_ONLY_INFER,
                "estimator.gaussian_batch.calls": "zero",
                "neighbors.builds": "nonzero",
                "neighbors.range_count.calls": "nonzero",
                "neighbors.kth.calls": "nonzero",
                "neighbors.points_queried": "nonzero",
                "data.normalize.calls": "nonzero",
            },
        ),
        Workload(
            name="gauss_reps",
            why="24 replications per condition select trial shuffles; scalar Gaussian CMIs in compare_networks and AIS locals",
            threads=1,
            conditions={
                cond: dict(
                    n_processes=3,
                    n_samples=100,
                    n_replications=24,
                    topology=((0, 0, 1, 0.5), (1, 0, 1, 0.4), (1, 2, 2, coupling)),
                )
                # The changed coupling drives a sink, so no other link's
                # information differs between the conditions. The common
                # source, process 1, is white, so no process has storage that
                # fades over lags into a borderline selection.
                for cond, coupling in (("A", 0.4), ("B", 0.15))
            },
            settings=dict(estimator="gaussian", **STRICT_GATES),
            analyses=("ais", "compare"),
            predictions={
                **_ALWAYS,
                **_NO_NEIGHBORS,
                "estimator.gaussian_batch.calls": "nonzero",
                "data.normalize.calls": "nonzero",
                "ais.calls": "nonzero",
                "compare.links": "nonzero",
                "compare.draws": "nonzero",
            },
        ),
    )
}

COMPARE_PERMUTATIONS = 500
# At most one false link per true link before an iteration counts as failed:
# a false link at the FDR level is a statistical outcome, a flood of them is not.
MIN_PRECISION = 0.5


@dataclass(frozen=True)
class Inputs:
    """One iteration's inputs: settings, ground-truth specs and their datasets."""

    cfg: object
    spec_of: dict
    data: dict


def sub_seed(seed: int, index: int, stream: int) -> int:
    """Independent 63-bit seed for one input stream of one iteration."""
    state = np.random.SeedSequence([seed, index, stream]).generate_state(1, np.uint64)
    return int(state[0] >> 1)


def make_inputs(workload: Workload, seed: int, index: int) -> Inputs:
    """Inputs of iteration ``index``; the same (seed, index) gives the same inputs."""
    spec_of = {
        cond: infonet.GroundTruthSpec(seed=sub_seed(seed, index, k), **kwargs)
        for k, (cond, kwargs) in enumerate(sorted(workload.conditions.items()), start=1)
    }
    cfg = infonet.InferenceSettings(seed=sub_seed(seed, index, 0), **workload.settings)
    data = {cond: infonet.generate_dataset(spec) for cond, spec in spec_of.items()}
    return Inputs(cfg, spec_of, data)


def _true_links(spec) -> dict:
    # Self-couplings (source == target) drive a process's own storage, not a
    # network link, so they are left out of precision and recall.
    return {(c.source, c.target): c.lag for c in spec.topology if c.source != c.target}


def score(networks: dict, spec_of: dict) -> dict:
    """Precision, recall and delay hits pooled over the workload's networks."""
    found = true = hits = found_true = 0
    for cond, net in networks.items():
        truth = _true_links(spec_of[cond])
        links = {(l.source, l.target): l.delay for l in net.adjacency}
        found += len(links)
        true += len(truth)
        found_true += sum(1 for e in links if e in truth)
        hits += sum(1 for e, lag in truth.items() if links.get(e) == lag)
    return {
        "precision": found_true / found if found else 0.0,
        "recall": found_true / true,
        "delay_hits": hits / true,
    }


def _changed_links(spec_a, spec_b) -> set:
    def strength(spec):
        out = {}
        for c in spec.topology:
            out[(c.source, c.target)] = out.get((c.source, c.target), 0.0) + c.coefficient
        return out

    a, b = strength(spec_a), strength(spec_b)
    return {e for e in set(a) | set(b) if a.get(e, 0.0) != b.get(e, 0.0)}


def run_iteration(workload: Workload, inputs: Inputs) -> dict:
    """One timed pass over the workload's public calls, then its checks.

    Returns the wall times of the calls, the accuracy scores, the canonical
    network JSON and the list of failed checks.
    """
    cfg, spec_of, data = inputs.cfg, inputs.spec_of, inputs.data
    times = {"infer_s": 0.0, "ais_s": 0.0, "compare_s": 0.0}
    networks = {}
    for cond in sorted(data):
        t0 = time.perf_counter()
        networks[cond] = infonet.infer_network(data[cond], cfg, threads=workload.threads)
        times["infer_s"] += time.perf_counter() - t0
    storage = []
    first = sorted(data)[0]
    if "ais" in workload.analyses:
        t0 = time.perf_counter()
        storage = [
            infonet.ais_estimate(data[first], p, cfg) for p in range(data[first].n_processes)
        ]
        times["ais_s"] = time.perf_counter() - t0
    comparison = None
    if "compare" in workload.analyses:
        a, b = sorted(data)
        t0 = time.perf_counter()
        links = infonet.union_link_structures(networks[a], networks[b])
        comparison = infonet.compare_networks(
            data[a], data[b], links, cfg, n_perm=COMPARE_PERMUTATIONS, seed=cfg.seed
        )
        times["compare_s"] = time.perf_counter() - t0
    times["iter_s"] = sum(times.values())

    failures = []
    accuracy = score(networks, spec_of)
    if accuracy["recall"] < 1.0:
        failures.append(f"recall {accuracy['recall']:.3f} < 1")
    if accuracy["delay_hits"] < 1.0:
        failures.append(f"delay_hits {accuracy['delay_hits']:.3f} < 1")
    if accuracy["precision"] < MIN_PRECISION:
        failures.append(f"precision {accuracy['precision']:.3f} < {MIN_PRECISION}")
    self_coupled = {c.source for c in spec_of[first].topology if c.source == c.target}
    for s in storage:
        if s.local is None or abs(float(np.mean(s.local)) - s.value_bits) > LOCAL_TOLERANCE:
            failures.append(f"AIS locals of process {s.process} do not average to value_bits")
        if s.process in self_coupled and not s.test.significant:
            failures.append(f"storage of the self-coupled process {s.process} is not significant")
    if comparison is not None:
        changed = _changed_links(spec_of[a], spec_of[b])
        flagged = {(l.source, l.target) for l in comparison.links if l.fdr_significant}
        agree = sum(
            1 for l in comparison.links if l.fdr_significant == ((l.source, l.target) in changed)
        )
        accuracy["compare_correct"] = agree / len(comparison.links) if comparison.links else 0.0
        # An unchanged link flagged at the FDR level is a statistical outcome
        # (compare.correct counts it); missing the changed one is a failure.
        if not changed <= flagged:
            failures.append(f"compare flagged {sorted(flagged)}, changed {sorted(changed)}")
    canonical = {cond: infonet.network_to_json(net) for cond, net in networks.items()}
    return {"times": times, "accuracy": accuracy, "canonical": canonical, "failures": failures}
