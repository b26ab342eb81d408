"""The public API of ``infonet`` is pinned: every added or removed name shows here."""

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
