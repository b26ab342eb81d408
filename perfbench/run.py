"""Time-to-network benchmark of infonet.

    python3 perfbench/run.py --workload gauss_net --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py            # every workload at the default seed, as a table

Each workload runs in its own child process (``worker.py``), one at a time,
with OpenBLAS, OpenMP and MKL pinned to one thread before numpy loads, so
that peak memory and set-up time belong to that workload and the only
threads are the ones the workload asks ``infer_network`` for. Set-up time is
the median over several children of the time from process start to the end
of data generation. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The worker's environment (nproc, versions, pinned thread
counts) and every failed check are printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = HERE.parent / "BENCHMARK.json"
DEFAULT_SEED = 1
SETUP_PROBES = 6  # set-up-only children; with the measuring child, 7 samples
DEADLINE_S = 170.0  # the whole invocation, so that it ends within 180 s
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run worker.py; returns (seconds from start to 'ready', later stdout lines)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **THREAD_PINS)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "ready":
        raise ChildFailed(f"worker {' '.join(args)} exited with code {code}")
    return ready, rest


def run_workload(config: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the worker report plus the result line."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            ready, _ = _child(base + ["--setup-only"], deadline)
            setups.append(ready)
    ready, lines = _child(
        base + ["--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    setups.append(ready)
    report = json.loads(lines[-1])
    measured = dict(report["metrics"])
    attempted, failed = report["attempted"], report["failed"]
    measured["setup_s"] = statistics.median(setups)
    measured["pass_rate"] = (attempted - failed) / attempted
    wanted = config["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    report["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report["setup_samples"] = len(setups)
    return report


def print_report(name: str, seed: int, report: dict) -> None:
    env = report["environment"]
    print(
        f"# {name} seed={seed} nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} pinned={env['pinned_threads']}"
    )
    samples = report["iterations"]
    for metric, entry in report["result"]["metrics"].items():
        n = {"setup_s": report["setup_samples"], "pass_rate": report["attempted"]}.get(metric, samples)
        print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']:6s} n={n}")
    for failure in report["failures"]:
        print(f"  FAILED CHECK: {failure}")


def main(argv=None) -> int:
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, help="one workload; default: all, as a table")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if args.workload:
            report = run_workload(config, args.workload, args.seed, args.seconds, args.trace)
            print_report(args.workload, args.seed, report)
            print(json.dumps(report["result"]))
            return 0
        ok = True
        for name in names:
            report = run_workload(config, name, args.seed, args.seconds, args.trace)
            print_report(name, args.seed, report)
            ok = ok and report["result"]["correct"]
        return 0 if ok else 1
    except (ChildFailed, KeyError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
