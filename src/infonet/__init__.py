"""Directed information-transfer network inference from multivariate time series.

The package infers which processes drive which targets, and at what delay, by
greedily assembling parent sets under conditional-mutual-information scoring
with surrogate-based statistical gates. Supporting measures cover active
information storage, partial information decomposition, local (per-sample)
values and group-level network comparison, over Gaussian, k-nearest-neighbor
and discrete plug-in estimators.
"""

from .ais import StorageResult, ais_estimate
from .compare import (
    ComparisonResult,
    LinkComparison,
    LinkStructure,
    compare_networks,
    union_link_structures,
)
from .data import (
    Dataset,
    Realization,
    VariableRef,
    embed,
    load_csv,
    normalize,
    save_csv,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateTargetError,
    DuplicatePointsError,
    EmptyLinkSetError,
    EstimatorError,
    InfonetError,
    InsufficientPermutationsError,
    InsufficientReplicationsError,
    InsufficientSamplesError,
    InvalidValueError,
    SingularCovarianceError,
    StateSpaceTooLargeError,
    StatsError,
    UnstableProcessError,
)
from .estimators import (
    DiscreteEstimator,
    Estimator,
    GaussianEstimator,
    InfoValue,
    JointCounts,
    KnnEstimator,
    KnnSettings,
    counts_from_columns,
    gaussian_cmi,
    gaussian_mi,
    knn_cmi,
    knn_mi,
    plugin_cmi,
    plugin_entropy,
)
from .export import (
    canonical_json,
    network_from_json,
    network_to_dict,
    network_to_json,
    to_csv_adjacency,
    to_dot,
)
from .generate import (
    Coupling,
    GroundTruthSpec,
    companion_spectral_radius,
    generate_dataset,
    ground_truth_links,
)
from .inference import (
    InferenceSettings,
    Link,
    NetworkResult,
    SelectedSource,
    TargetResult,
    TargetWorkspace,
    infer_network,
    infer_target,
    make_estimator,
    prune,
    select_sources,
    select_target_past,
)
from .neighbors import NeighborIndex
from .pid import JointDistribution3, PidAtoms, pid_from_data, pid_williams_beer
from .stats import (
    SurrogatePolicy,
    TestResult,
    fdr_correct,
    max_statistic_test,
    min_statistic_test,
    omnibus_test,
)

__version__ = "0.1.0"

__all__ = [
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
