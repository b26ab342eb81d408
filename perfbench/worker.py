"""One workload in its own process: set up, run timed iterations, report JSON.

Started by ``run.py`` with the BLAS thread counts pinned in its environment.
It prints ``ready`` once imports and data generation are done, so the parent
can time set-up, and prints one JSON object as its last line. An untimed
warm-up iteration runs before the timed ones. With ``--setup-only`` it exits
after ``ready``. With ``--trace 1`` it runs each timed iteration untraced
and then traced and reports the per-layer metrics; the spans of the first
traced iteration are written under ``traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import workloads  # first: puts this checkout's src/ on the path
import infonet  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_threads": {k: os.environ.get(k) for k in PINNED},
    }


class Runner:
    """Runs checked iterations of one workload and keeps their outcomes.

    Iteration ``i`` runs on the inputs made from (seed, i). The inputs of
    iteration 0 are made on construction: they are the set-up.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.first = workloads.make_inputs(workload, seed, 0)
        self.failures: list[list[str]] = []  # one list per attempted iteration
        self.reference = None

    def run_single_threaded(self):
        """Networks of iteration 0 at 1 thread; the timed run must match them byte for byte."""
        self.reference = {
            c: infonet.network_to_json(infonet.infer_network(d, self.first.cfg, threads=1))
            for c, d in self.first.data.items()
        }

    def iteration(self, index: int, inputs=None):
        try:
            if inputs is None and index == 0:
                inputs = self.first
            elif inputs is None:
                inputs = workloads.make_inputs(self.workload, self.seed, index)
            out = workloads.run_iteration(self.workload, inputs)
        except Exception as exc:  # a failed iteration is counted, not fatal
            self.failures.append([f"{type(exc).__name__}: {exc}"])
            return None
        if index == 0 and self.reference is not None and out["canonical"] != self.reference:
            out["failures"].append("network JSON at 2 threads differs from the 1-thread run")
        self.failures.append(out["failures"])
        return out

    def traced_iteration(self, index: int, untraced=None, trace_path: Path | None = None):
        """Make the inputs and run iteration ``index`` with every layer traced.

        ``untraced`` is the output of the same iteration untraced, for the
        tracing overhead. Returns the per-layer metrics.
        """
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            out = self.iteration(index, workloads.make_inputs(self.workload, self.seed, index))
        finally:
            uninstall()
        if trace_path is not None:
            trace_path.parent.mkdir(exist_ok=True)
            tracer.write(trace_path)
        metrics = tracing.layer_metrics(tracer.spans, self.workload.threads)
        if out is not None:
            metrics["ais.wall_s"] = out["times"]["ais_s"]
            metrics["compare.wall_s"] = out["times"]["compare_s"]
            metrics["compare.correct"] = out["accuracy"].get("compare_correct", 0.0)
            if untraced is not None:
                metrics["trace.overhead_s"] = out["times"]["iter_s"] - untraced["times"]["iter_s"]
        return metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    runner = Runner(workloads.WORKLOADS[args.workload], args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if runner.workload.threads > 1:
        runner.run_single_threaded()

    # Iteration 0 warms up caches and lazy imports; it is checked but not
    # timed. Timed iterations start at 1.
    runner.iteration(0)
    untraced, traced = [], []
    path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    start = last = time.perf_counter()
    step = 0.0
    # Start another iteration only if one as long as the last still ends
    # within the window, so that a run measures at most --seconds.
    while not untraced or last - start + step <= args.seconds:
        index = len(untraced) + 1
        out = runner.iteration(index)
        untraced.append(out)
        if args.trace:
            traced.append(runner.traced_iteration(index, out, path if index == 1 else None))
        now = time.perf_counter()
        step, last = now - last, now

    ok = [r for r in untraced if r is not None]
    if args.trace:
        # Counts come from the first timed iteration so that they repeat at a
        # fixed seed however many iterations fit in the run; times are medians.
        names = sorted({k for m in traced for k in m})
        metrics = {
            k: traced[0][k] if k in tracing.COUNTS else _median([m[k] for m in traced if k in m])
            for k in names
        }
    else:
        metrics = {
            key: _median([r["times"][key] for r in ok])
            for key in ("infer_s", "iter_s")
        }
        for key in ("precision", "recall", "delay_hits"):
            metrics[key] = _median([r["accuracy"][key] for r in ok])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for f in runner.failures if f)
    report = {
        "environment": environment(),
        "attempted": len(runner.failures),
        "failed": failed,
        "failures": [f for fs in runner.failures for f in fs],
        "iterations": len(untraced),
        "metrics": metrics,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
