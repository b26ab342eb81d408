"""Config-driven command line: generate, infer, ais, pid, compare, export.

Configuration is JSON with flat keys; unknown keys are rejected before any
computation. Results go to the output path or stdout; progress goes to
stderr. Exit codes: 0 success, 2 configuration error, 3 data or estimation
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .ais import ais_estimate
from .compare import compare_networks, union_link_structures
from .data import load_csv, save_csv
from .errors import ConfigError, InferenceError, InfonetError
from .export import (
    canonical_json,
    network_from_json,
    network_to_json,
    to_csv_adjacency,
    to_dot,
)
from .generate import Coupling, GroundTruthSpec, generate_dataset, ground_truth_links
from .inference import InferenceSettings, infer_network, prepare_dataset
from .pid import pid_from_data

_SETTINGS_KEYS = {f.name for f in dataclasses.fields(InferenceSettings)}
_DATA_KEYS = {"input", "kind", "alphabet_size", "replication_mode"}

_GENERATE_KEYS = {
    "n_processes",
    "n_samples",
    "n_replications",
    "generator",
    "topology",
    "noise_scale",
    "binarize",
    "burn_in",
    "seed",
    "output_prefix",
}
_INFER_KEYS = _DATA_KEYS | {"output", "threads"} | _SETTINGS_KEYS
_AIS_KEYS = _DATA_KEYS | {"output", "process"} | _SETTINGS_KEYS
_PID_KEYS = {"input", "alphabet_sizes", "output"}
_COMPARE_KEYS = (
    _DATA_KEYS - {"input"}
) | {
    "input_a",
    "input_b",
    "networks",
    "output",
    "n_perm",
    "alpha",
    "alpha_fdr",
} | _SETTINGS_KEYS


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set[str], command: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key for {command!r}: {unknown[0]}")


def _build_settings(cfg: dict, seed_override: int | None) -> InferenceSettings:
    settings_dict = {k: cfg[k] for k in cfg if k in _SETTINGS_KEYS}
    if seed_override is not None:
        settings_dict["seed"] = seed_override
    try:
        return InferenceSettings(**settings_dict)
    except (InferenceError, TypeError) as err:
        raise ConfigError(f"bad settings: {err}")


def _load_dataset(cfg: dict, command: str, key: str = "input"):
    if key not in cfg:
        raise ConfigError(f"{command!r} requires an {key!r} path in the config")
    return load_csv(
        cfg[key],
        kind=cfg.get("kind", "continuous"),
        alphabet_size=cfg.get("alphabet_size"),
        replication_mode=cfg.get("replication_mode", "auto"),
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
        _log(f"wrote {output}")
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    cfg = _load_config(args)
    _check_keys(cfg, _GENERATE_KEYS, "generate")
    for key in ("n_processes", "n_samples"):
        if key not in cfg:
            raise ConfigError(f"'generate' requires config key {key!r}")
    try:
        topology = tuple(Coupling(*entry) for entry in cfg.get("topology", []))
    except TypeError as err:
        raise ConfigError(f"bad topology entry: {err}")
    spec = GroundTruthSpec(
        n_processes=int(cfg["n_processes"]),
        n_samples=int(cfg["n_samples"]),
        topology=topology,
        generator=cfg.get("generator", "gaussian_ar"),
        noise_scale=float(cfg.get("noise_scale", 1.0)),
        n_replications=int(cfg.get("n_replications", 1)),
        binarize=bool(cfg.get("binarize", False)),
        burn_in=int(cfg.get("burn_in", 1000)),
        seed=args.seed if args.seed is not None else int(cfg.get("seed", 0)),
    )
    dataset = generate_dataset(spec)
    prefix = cfg.get("output_prefix", "generated")
    if args.output:
        prefix = args.output
    paths = []
    for r in range(dataset.n_replications):
        path = f"{prefix}_rep{r}.csv"
        save_csv(dataset, path, replication=r)
        paths.append(path)
    truth = {
        "generator": spec.generator,
        "n_processes": spec.n_processes,
        "n_samples": spec.n_samples,
        "n_replications": spec.n_replications,
        "seed": spec.seed,
        "links": ground_truth_links(spec),
        "data_files": paths,
    }
    truth_path = f"{prefix}_truth.json"
    Path(truth_path).write_text(canonical_json(truth) + "\n", encoding="utf-8")
    _log(f"wrote {len(paths)} data file(s) and {truth_path}")
    return 0


def _cmd_infer(args) -> int:
    cfg = _load_config(args)
    _check_keys(cfg, _INFER_KEYS, "infer")
    settings = _build_settings(cfg, args.seed)
    dataset = prepare_dataset(_load_dataset(cfg, "infer"), settings)
    threads = args.threads if args.threads is not None else int(cfg.get("threads", 1))
    _log(
        f"inferring {settings.mode} network over {dataset.n_processes} processes "
        f"({dataset.n_samples} samples x {dataset.n_replications} replications)"
    )
    for warning in dataset.warnings:
        _log(f"warning: {warning}")
    started = time.monotonic()
    network = infer_network(dataset, settings, threads=threads)
    elapsed = time.monotonic() - started
    _log(f"done in {elapsed:.2f}s: {len(network.adjacency)} significant link(s)")
    # Wall-clock time goes to stderr above, never into the canonical JSON.
    _emit(network_to_json(network), args.output or cfg.get("output"))
    return 0


def _cmd_ais(args) -> int:
    cfg = _load_config(args)
    _check_keys(cfg, _AIS_KEYS, "ais")
    if "process" not in cfg and args.process is None:
        raise ConfigError("'ais' requires a 'process' index")
    process = args.process if args.process is not None else int(cfg["process"])
    settings = _build_settings(cfg, args.seed)
    dataset = _load_dataset(cfg, "ais")
    result = ais_estimate(dataset, process, settings)
    payload = {
        "process": result.process,
        "ais_bits": result.value_bits,
        "selected_embedding": [
            {"process": v.process, "lag": v.lag} for v in result.selected_embedding
        ],
        "p_value": result.test.p_value,
        "significant": result.test.significant,
        "n_permutations": result.test.n_permutations,
        "alpha": result.test.alpha,
        "seed": settings.seed,
    }
    _emit(canonical_json(payload) + "\n", args.output or cfg.get("output"))
    return 0


def _cmd_pid(args) -> int:
    cfg = _load_config(args)
    _check_keys(cfg, _PID_KEYS, "pid")
    input_path = args.input or cfg.get("input")
    if not input_path:
        raise ConfigError("'pid' requires an input CSV with columns s1, s2, target")
    alphabet_sizes = cfg.get("alphabet_sizes")
    raw = load_csv(input_path)
    if raw.n_processes != 3:
        raise ConfigError(f"'pid' input must have exactly 3 columns, got {raw.n_processes}")
    # PID is a static decomposition over observations, so the rows of every
    # replication count. Without given sizes, each column's largest symbol
    # sets its alphabet.
    atoms = pid_from_data(*raw.values.reshape(3, -1), alphabet_sizes or None)
    payload = {
        "redundancy": atoms.redundancy,
        "unique_1": atoms.unique_1,
        "unique_2": atoms.unique_2,
        "synergy": atoms.synergy,
    }
    _emit(canonical_json(payload) + "\n", args.output or cfg.get("output"))
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    _check_keys(cfg, _COMPARE_KEYS, "compare")
    for key in ("input_a", "input_b", "networks"):
        if key not in cfg:
            raise ConfigError(f"'compare' requires config key {key!r}")
    settings = _build_settings(cfg, args.seed)
    data_a = _load_dataset(cfg, "compare", "input_a")
    data_b = _load_dataset(cfg, "compare", "input_b")
    networks = []
    for path in cfg["networks"]:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"network file not found: {p}")
        networks.append(network_from_json(p.read_text(encoding="utf-8")))
    links = union_link_structures(*networks)
    result = compare_networks(
        data_a,
        data_b,
        links,
        settings,
        n_perm=int(cfg.get("n_perm", 500)),
        alpha=float(cfg.get("alpha", 0.05)),
        alpha_fdr=float(cfg.get("alpha_fdr", 0.05)),
        seed=settings.seed,
    )
    payload = {
        "n_permutations": result.n_permutations,
        "alpha": result.alpha,
        "links": [
            {
                "source": l.source,
                "target": l.target,
                "statistic_a_bits": l.statistic_a,
                "statistic_b_bits": l.statistic_b,
                "delta_bits": l.delta_bits,
                "p_value": l.p_value,
                "fdr_significant": l.fdr_significant,
            }
            for l in result.links
        ],
    }
    _emit(canonical_json(payload) + "\n", args.output or cfg.get("output"))
    return 0


def _cmd_export(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise ConfigError(f"network file not found: {path}")
    network = network_from_json(path.read_text(encoding="utf-8"))
    if args.format == "dot":
        text = to_dot(network)
    elif args.format in ("csv", "csv_adjacency"):
        text = to_csv_adjacency(network)
    else:
        text = network_to_json(network)
    _emit(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infonet",
        description="Directed information-transfer network inference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_threads=False, with_process=False, with_input=False):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        if with_threads:
            p.add_argument("--threads", type=int, default=None, help="worker threads")
        if with_process:
            p.add_argument("--process", type=int, default=None, help="process index")
        if with_input:
            p.add_argument("--input", default=None, help="input CSV path")

    common(sub.add_parser("generate", help="synthesize data with known structure"))
    common(sub.add_parser("infer", help="infer a directed network"), with_threads=True)
    common(sub.add_parser("ais", help="active information storage"), with_process=True)
    common(sub.add_parser("pid", help="partial information decomposition"), with_input=True)
    common(sub.add_parser("compare", help="compare two conditions over a link set"))

    export = sub.add_parser("export", help="convert a result JSON")
    export.add_argument("--input", required=True, help="network result JSON")
    export.add_argument(
        "--format",
        default="json",
        choices=["json", "dot", "csv", "csv_adjacency"],
        help="output format",
    )
    export.add_argument("--output", default=None, help="output path (default: stdout)")

    handlers = {
        "generate": _cmd_generate,
        "infer": _cmd_infer,
        "ais": _cmd_ais,
        "pid": _cmd_pid,
        "compare": _cmd_compare,
        "export": _cmd_export,
    }
    parser.set_defaults(handlers=handlers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args.handlers[args.command]
    try:
        return handler(args)
    except ConfigError as err:
        _log(f"configuration error: {err}")
        return 2
    except InfonetError as err:
        _log(f"error: {err}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
