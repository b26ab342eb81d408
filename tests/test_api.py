"""The public API of ``infonet`` is pinned: every added or removed name shows here."""

import json
import os
import subprocess
import sys

import infonet

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
    "TestResult", "UnstableProcessError", "VariableRef", "ais", "ais_estimate",
    "canonical_json", "companion_spectral_radius", "compare", "compare_networks",
    "counts_from_columns", "data", "embed", "errors", "estimators", "export",
    "fdr_correct", "gaussian_cmi", "gaussian_mi", "generate", "generate_dataset",
    "ground_truth_links", "infer_network", "infer_target", "inference", "knn_cmi",
    "knn_mi", "load_csv", "make_estimator", "max_statistic_test", "min_statistic_test",
    "neighbors", "network_from_json", "network_to_dict", "network_to_json", "normalize",
    "omnibus_test", "pid", "pid_from_data", "pid_williams_beer", "plugin_cmi",
    "plugin_entropy", "prune", "save_csv", "seeding", "select_sources",
    "select_target_past", "special", "stats", "to_csv_adjacency", "to_dot",
    "union_link_structures",
]


def test_public_names_are_pinned():
    # A fresh interpreter sees only what ``import infonet`` binds; in this
    # process other tests may have imported extra submodules such as ``cli``.
    package_root = os.path.dirname(os.path.dirname(infonet.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    script = (
        "import infonet, json; "
        "print(json.dumps(sorted(n for n in dir(infonet) if not n.startswith('_'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 90
