"""The public API of ``infonet`` is pinned: every added or removed name shows here.

Importing the package loads numpy only: scipy is imported on first use by the
kNN estimator, so analyses that do not use it never load it. Those checks run
in fresh interpreters, because this one has already imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import infonet
from infonet import (
    GroundTruthSpec,
    InferenceSettings,
    generate_dataset,
    infer_network,
    network_to_json,
)

PUBLIC_NAMES = [
    "ComparisonResult", "ConfigError", "Coupling", "DataError", "Dataset",
    "DegenerateTargetError", "DiscreteEstimator", "DuplicatePointsError",
    "EmptyLinkSetError", "Estimator", "EstimatorError", "GaussianEstimator",
    "GroundTruthSpec", "InferenceSettings", "InfoValue", "InfonetError",
    "InsufficientPermutationsError", "InsufficientReplicationsError",
    "InsufficientSamplesError", "InvalidValueError", "JointCounts",
    "JointDistribution3", "KnnEstimator", "KnnSettings", "Link", "LinkComparison",
    "LinkStructure", "NeighborIndex", "NetworkResult", "PidAtoms", "Realization",
    "SelectedSource", "SingularCovarianceError", "StateSpaceTooLargeError",
    "StatsError", "StorageResult", "SurrogatePolicy", "TargetResult", "TargetWorkspace",
    "TestResult", "UnstableProcessError", "VariableRef", "ais_estimate",
    "canonical_json", "companion_spectral_radius", "compare_networks",
    "counts_from_columns", "embed", "fdr_correct", "gaussian_cmi", "gaussian_mi",
    "generate_dataset", "ground_truth_links", "infer_network", "infer_target",
    "knn_cmi", "knn_mi", "load_csv", "make_estimator", "max_statistic_test",
    "min_statistic_test", "network_from_json", "network_to_dict", "network_to_json",
    "normalize", "omnibus_test", "pid_from_data", "pid_williams_beer", "plugin_cmi",
    "plugin_entropy", "prune", "save_csv", "select_sources", "select_target_past",
    "to_csv_adjacency", "to_dot", "union_link_structures",
]


def test_public_names_are_pinned():
    assert sorted(infonet.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 77


def test_every_public_name_resolves():
    for name in infonet.__all__:
        assert hasattr(infonet, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from infonet import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC_NAMES


def _run_fresh(script: str) -> str:
    """Last stdout line of ``script`` run in a new interpreter on this infonet."""
    env = dict(os.environ, PYTHONPATH=str(Path(infonet.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


_LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

_KNN_SPEC = dict(
    n_processes=3, n_samples=200, topology=((0, 2, 1, 2.0), (1, 2, 2, 2.0)), seed=51
)
_KNN_SETTINGS = dict(
    estimator="knn", max_lag_sources=2, max_lag_target=1, n_perm_max=20,
    n_perm_min=20, n_perm_omnibus=20, n_perm_seq=80, seed=52,
)


def test_gaussian_plugin_and_cli_help_never_load_scipy():
    script = f"""
import json, sys
from infonet import Coupling, GroundTruthSpec, InferenceSettings, cli
from infonet import ais_estimate, generate_dataset, infer_network, pid_from_data
spec = GroundTruthSpec(n_processes=3, n_samples=300, topology=(Coupling(0, 1, 1, 0.6),), seed=3)
settings = InferenceSettings(max_lag_sources=2, max_lag_target=2)
assert infer_network(generate_dataset(spec), settings).adjacency
spec = GroundTruthSpec(n_processes=1, n_samples=300, topology=(Coupling(0, 0, 1, 0.6),), seed=3)
storage = ais_estimate(generate_dataset(spec), 0, settings)
assert storage.selected_embedding and storage.local.any()
pid_from_data([0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0])
try:
    cli.main(["--help"])
except SystemExit:
    pass
print(json.dumps({_LOADED_SCIPY}))
"""
    assert json.loads(_run_fresh(script)) == []


def test_knn_loads_scipy_inside_worker_threads():
    script = f"""
import json, sys
from infonet import GroundTruthSpec, InferenceSettings, generate_dataset, infer_network
from infonet import network_to_json
assert not {_LOADED_SCIPY}
data = generate_dataset(GroundTruthSpec(**{_KNN_SPEC!r}))
net = infer_network(data, InferenceSettings(**{_KNN_SETTINGS!r}), threads=2)
assert net.adjacency and {_LOADED_SCIPY}
print(json.dumps(network_to_json(net)))
"""
    at_two = json.loads(_run_fresh(script))
    data = generate_dataset(GroundTruthSpec(**_KNN_SPEC))
    at_one = network_to_json(infer_network(data, InferenceSettings(**_KNN_SETTINGS), threads=1))
    assert at_two == at_one
