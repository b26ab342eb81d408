"""Config-driven command line: generate, infer, ais, pid, compare, export.

Configuration is JSON with flat keys. A command's keys, and their types, are
the fields of the object it fills (``InferenceSettings`` for infer, ais and
compare; ``GroundTruthSpec`` plus ``output_prefix`` for generate) and the
arguments of the functions it calls. A flag overrides the one key it names:
``--seed`` sets ``seed``, ``--threads`` ``threads`` and generate's
``--output`` sets ``output_prefix``. Unknown keys and values whose JSON type
is not their key's are rejected, naming the key, before any computation; a
key the config leaves out takes the default of the dataclass or function
that receives it. Results go to the output path or stdout; progress goes to
stderr. Exit codes: 0 success, 2 configuration error, 3 data or estimation
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time
import types
import typing
from pathlib import Path

from .ais import ais_estimate
from .compare import compare_networks, union_link_structures
from .data import load_csv, save_csv
from .errors import ConfigError, InferenceError, InfonetError, InsufficientPermutationsError
from .export import canonical_json, network_from_json, network_to_json, to_csv_adjacency, to_dot
from .generate import GroundTruthSpec, generate_dataset, ground_truth_links
from .inference import InferenceSettings, infer_network, prepare_dataset
from .pid import pid_from_data
from .stats import check_permutation_count

# The JSON types a value of each Python type may take: a bool is no number.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}
_PATHS = str | list[str]  # one CSV file, or one file per replication
_SETTINGS = typing.get_type_hints(InferenceSettings)
_SPEC = typing.get_type_hints(GroundTruthSpec)
_DATA = {"kind": str, "alphabet_size": int | None, "replication_mode": str}
_KEYS = {
    "generate": {**_SPEC, "output_prefix": str},
    "infer": {"input": _PATHS, **_DATA, "output": str, "threads": int, **_SETTINGS},
    "ais": {"input": _PATHS, **_DATA, "output": str, "process": int, **_SETTINGS},
    "pid": {"input": _PATHS, "alphabet_sizes": list[int] | None, "output": str},
    "compare": {
        "input_a": _PATHS, "input_b": _PATHS, **_DATA, "networks": list[str], "output": str,
        "n_perm": int, **_SETTINGS,
    },
}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits ``hint``: a type, a union, a list or tuple of
    one type, or a dataclass given as the list of its fields."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in hint.__args__)
    if hint is type(None):
        return value is None
    if typing.get_origin(hint) in (list, tuple):
        return isinstance(value, list) and all(_has_type(v, hint.__args__[0]) for v in value)
    if dataclasses.is_dataclass(hint):
        fields = typing.get_type_hints(hint).values()
        return isinstance(value, list) and len(value) == len(fields) and all(
            map(_has_type, value, fields)
        )
    return type(value) in _JSON_TYPES[hint]


def _config(args) -> dict:
    """The config file overlaid with the given flags, every key and type checked."""
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except OSError as err:
            raise ConfigError(f"cannot read config file {args.config}: {err.strerror}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    keys = _KEYS[args.command]
    cfg.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config key for {args.command!r}: {unknown[0]}")
    for key, value in cfg.items():
        if not _has_type(value, keys[key]):
            hint = str(keys[key]) if typing.get_origin(keys[key]) else keys[key].__name__
            raise ConfigError(f"config key {key!r} must be {hint}, got {json.dumps(value)}")
    return cfg


def _given(cfg: dict, keys) -> dict:
    """The entries of ``cfg`` under ``keys``; the receiver defaults the rest."""
    return {k: cfg[k] for k in keys if k in cfg}


def _require(cfg: dict, command: str, *keys: str) -> None:
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"{command!r} requires config key {key!r}")


def _settings(cfg: dict) -> InferenceSettings:
    try:
        return InferenceSettings(**_given(cfg, _SETTINGS))
    except InferenceError as err:
        raise ConfigError(f"bad settings: {err}")


def _dataset(cfg: dict, key: str, settings: InferenceSettings):
    """Load the data under ``key`` as the estimators see it; log its warnings."""
    dataset = prepare_dataset(load_csv(cfg[key], **_given(cfg, _DATA)), settings)
    for warning in dataset.warnings:
        _log(f"warning: {warning}")
    return dataset


def _network(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"network file not found: {path}")
    except OSError as err:
        raise ConfigError(f"cannot read network file {path}: {err.strerror}")
    return network_from_json(text)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
        _log(f"wrote {output}")
    else:
        sys.stdout.write(text)


def _cmd_generate(cfg: dict) -> int:
    for f in dataclasses.fields(GroundTruthSpec):
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            _require(cfg, "generate", f.name)
    spec = GroundTruthSpec(**_given(cfg, _SPEC))
    dataset = generate_dataset(spec)
    prefix = cfg.get("output_prefix", "generated")
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


def _cmd_infer(cfg: dict) -> int:
    _require(cfg, "infer", "input")
    settings = _settings(cfg)
    if cfg.get("threads", 1) < 1:
        raise ConfigError(f"config key 'threads' must be >= 1, got {cfg['threads']}")
    dataset = _dataset(cfg, "input", settings)
    _log(
        f"inferring {settings.mode} network over {dataset.n_processes} processes "
        f"({dataset.n_samples} samples x {dataset.n_replications} replications)"
    )
    started = time.monotonic()
    network = infer_network(dataset, settings, **_given(cfg, ["threads"]))
    elapsed = time.monotonic() - started
    _log(f"done in {elapsed:.2f}s: {len(network.adjacency)} significant link(s)")
    # Wall-clock time goes to stderr above, never into the canonical JSON.
    _emit(network_to_json(network), cfg.get("output"))
    return 0


def _cmd_ais(cfg: dict) -> int:
    _require(cfg, "ais", "process", "input")
    settings = _settings(cfg)
    result = ais_estimate(_dataset(cfg, "input", settings), cfg["process"], settings)
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
    _emit(canonical_json(payload) + "\n", cfg.get("output"))
    return 0


def _cmd_pid(cfg: dict) -> int:
    _require(cfg, "pid", "input")
    raw = load_csv(cfg["input"])
    if raw.n_processes != 3:
        raise ConfigError(f"'pid' input must have exactly 3 columns, got {raw.n_processes}")
    # PID is a static decomposition over observations, so the rows of every
    # replication count. Without given sizes, each column's largest symbol
    # sets its alphabet.
    atoms = pid_from_data(*raw.values.reshape(3, -1), cfg.get("alphabet_sizes"))
    _emit(canonical_json(dataclasses.asdict(atoms)) + "\n", cfg.get("output"))
    return 0


def _cmd_compare(cfg: dict) -> int:
    _require(cfg, "compare", "input_a", "input_b", "networks")
    settings = _settings(cfg)
    n_perm = cfg.get("n_perm", inspect.signature(compare_networks).parameters["n_perm"].default)
    try:
        check_permutation_count(n_perm, settings.alpha_fdr)
    except InsufficientPermutationsError as err:
        raise ConfigError(f"config key 'n_perm' at alpha_fdr: {err}")
    data_a = _dataset(cfg, "input_a", settings)
    data_b = _dataset(cfg, "input_b", settings)
    links = union_link_structures(*map(_network, cfg["networks"]))
    result = compare_networks(data_a, data_b, links, settings, **_given(cfg, ["n_perm"]))
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
    _emit(canonical_json(payload) + "\n", cfg.get("output"))
    return 0


def _cmd_export(args) -> int:
    network = _network(args.input)
    if args.format == "dot":
        text = to_dot(network)
    elif args.format in ("csv", "csv_adjacency"):
        text = to_csv_adjacency(network)
    else:
        text = network_to_json(network)
    _emit(text, args.output)
    return 0


# Each flag as (flag, the config key it overrides, help).
_SEED = ("--seed", "seed", "master seed")
_OUTPUT = ("--output", "output", "output path (default: stdout)")
_PREFIX = ("--output", "output_prefix", "prefix of the data and truth files")
_THREADS = ("--threads", "threads", "worker threads")
_PROCESS = ("--process", "process", "process index")
_INPUT = ("--input", "input", "input CSV path")
# Each config command: its handler, its help and its flags.
_COMMANDS = {
    "generate": (_cmd_generate, "synthesize data with known structure", [_SEED, _PREFIX]),
    "infer": (_cmd_infer, "infer a directed network", [_SEED, _OUTPUT, _THREADS]),
    "ais": (_cmd_ais, "active information storage", [_SEED, _OUTPUT, _PROCESS]),
    "pid": (_cmd_pid, "partial information decomposition", [_OUTPUT, _INPUT]),
    "compare": (_cmd_compare, "compare two conditions over a link set", [_SEED, _OUTPUT]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infonet",
        description="Directed information-transfer network inference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON run configuration")
        for flag, key, flag_help in flags:
            kind = int if _KEYS[command][key] is int else str
            p.add_argument(flag, dest=key, type=kind, help=f"{flag_help}; overrides {key!r}")

    export = sub.add_parser("export", help="convert a result JSON")
    export.set_defaults(handler=_cmd_export)
    export.add_argument("--input", required=True, help="network result JSON")
    formats = ["json", "dot", "csv", "csv_adjacency"]
    export.add_argument("--format", default="json", choices=formats, help="output format")
    export.add_argument("--output", help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(_config(args) if args.command in _KEYS else args)
    except ConfigError as err:
        _log(f"configuration error: {err}")
        return 2
    except InfonetError as err:
        _log(f"error: {err}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
