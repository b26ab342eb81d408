"""One input contract for every estimator entry point.

Each entry point reads (x, y, z) as 2-D columns of finite floats sharing one
row count. A NaN or infinite value raises ``InvalidValueError``, differing
row counts ``EstimatorError`` naming both, and input of more than two
dimensions ``DataError``: none of them may score 0 bits or fail inside numpy.
Every reader of replication blocks raises ``StatsError`` naming blocks that
do not tile the rows, and both ``group_cmis`` paths name a group whose block
ids are not one or more integers in range, and give no values for no groups.
"""

import re

import numpy as np
import pytest

from infonet import (
    DataError,
    DiscreteEstimator,
    Estimator,
    EstimatorError,
    GaussianEstimator,
    InvalidValueError,
    KnnEstimator,
    KnnSettings,
    StatsError,
    SurrogatePolicy,
    gaussian_cmi,
    knn_cmi,
    knn_mi,
    plugin_cmi,
)
from infonet.estimators.base import CIRCULAR_SHIFT, SurrogateBatch
from infonet.estimators.gaussian import gaussian_cmi_batch

from conftest import surrogate_batch

N = 120


def _surrogates(estimator):
    def call(x, y, z):
        batch = surrogate_batch(x, np.zeros(len(x), dtype=int), SurrogatePolicy(seed=2), 3)
        return estimator.cmi_surrogate_batch(batch, y, z)

    return call


def _default_group_cmis(*args):
    return Estimator.group_cmis(GaussianEstimator(), *args)


def _groups(group_cmis):
    def call(x, y, z):
        return group_cmis(x, y, z, [(0, N // 2), (N // 2, N)], [[0, 1], [1]])

    return call


# name -> (entry point, takes z, needs integer data)
ENTRY_POINTS = {
    "gaussian_cmi": (gaussian_cmi, True, False),
    "gaussian_cmi_batch": (lambda x, y, z: gaussian_cmi_batch(x[np.newaxis], y, z), True, False),
    "cmi_value": (GaussianEstimator().cmi_value, True, False),
    "candidates_cmi": (GaussianEstimator().candidates_cmi, True, False),
    "cmi_surrogate_batch": (_surrogates(GaussianEstimator()), True, False),
    "group_cmis": (_groups(GaussianEstimator().group_cmis), True, False),
    "default_group_cmis": (_groups(_default_group_cmis), True, False),
    "knn_mi": (lambda x, y, z: knn_mi(x, y, KnnSettings(k=3)), False, False),
    "knn_cmi": (lambda x, y, z: knn_cmi(x, y, z, KnnSettings(k=3)), True, False),
    "knn_cmi_value": (KnnEstimator(KnnSettings(k=3)).cmi_value, True, False),
    "knn_candidates_cmi": (KnnEstimator(KnnSettings(k=3)).candidates_cmi, True, False),
    "knn_cmi_surrogate_batch": (_surrogates(KnnEstimator(KnnSettings(k=3))), True, False),
    "plugin_cmi": (plugin_cmi, True, True),
    "discrete_cmi_value": (DiscreteEstimator(2).cmi_value, True, True),
}


def _set(value):
    def corrupt(a):
        a = a.copy()
        a[N // 3, 0] = value
        return a

    return corrupt


# name -> (argument, corruption, error, message pattern)
BAD_INPUTS = {
    "nan_x": ("x", _set(np.nan), InvalidValueError, "1 NaN or infinite"),
    "inf_y": ("y", _set(np.inf), InvalidValueError, "1 NaN or infinite"),
    "neg_inf_z": ("z", _set(-np.inf), InvalidValueError, "1 NaN or infinite"),
    "nan_z": ("z", _set(np.nan), InvalidValueError, "1 NaN or infinite"),
    "short_y": ("y", lambda a: a[:-10], EstimatorError, r"y has \d+ rows, x has \d+"),
    "short_z": ("z", lambda a: a[:-10], EstimatorError, r"z has \d+ rows, x has \d+"),
    "x_3d": ("x", lambda a: a[:, :, np.newaxis], DataError, "shape"),
    "y_3d": ("y", lambda a: a[:, :, np.newaxis], DataError, "shape"),
    "z_3d": ("z", lambda a: a[:, :, np.newaxis], DataError, "shape"),
}


def _data(discrete: bool) -> dict:
    """Valid (x, y, z), keyed by argument name."""
    rng = np.random.default_rng(12)
    if discrete:
        x, y, z = (rng.integers(0, 2, size=(N, 1)).astype(np.float64) for _ in range(3))
    else:
        z = rng.normal(size=(N, 1))
        x = rng.normal(size=(N, 1)) + 0.5 * z
        y = 0.6 * x + rng.normal(size=(N, 1))
    return {"x": x, "y": y, "z": z}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_valid_input_gives_finite_values(entry):
    call, _, discrete = ENTRY_POINTS[entry]
    values = call(*_data(discrete).values())
    assert np.all(np.isfinite(getattr(values, "value", values)))


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_input_raises_a_typed_error(entry, case):
    call, takes_z, discrete = ENTRY_POINTS[entry]
    argument, corrupt, error, pattern = BAD_INPUTS[case]
    if argument == "z" and not takes_z:
        pytest.skip("no z argument")
    data = _data(discrete)
    data[argument] = corrupt(data[argument])
    with pytest.raises(error, match=pattern):
        call(*data.values())


# Each reader of replication blocks, called on a valid (x, y, z) table.
BLOCK_READERS = {
    "surrogate_batch": lambda x, y, z, blocks: SurrogateBatch(
        x, np.zeros((1, len(blocks)), dtype=np.intp), blocks, CIRCULAR_SHIFT
    ),
    "group_cmis": lambda *args: GaussianEstimator().group_cmis(*args, [[0, 1], [1]]),
    "default_group_cmis": lambda *args: _default_group_cmis(*args, [[0, 1], [1]]),
}

MALFORMED_BLOCKS = {
    "gap": ((0, 50), (60, N)),
    "overlap": ((0, 60), (50, N)),
    "negative_start": ((-10, 60), (60, N)),
    "stop_past_n": ((0, 60), (60, N + 10)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
@pytest.mark.parametrize("reader", sorted(BLOCK_READERS))
def test_blocks_that_do_not_tile_the_rows_raise_a_typed_error(reader, case):
    # Unchecked, a negative start would wrap in a row gather and a gap would skip rows.
    blocks = MALFORMED_BLOCKS[case]
    with pytest.raises(StatsError, match=re.escape(f"blocks {blocks} do not tile rows 0..{N}")):
        BLOCK_READERS[reader](*_data(False).values(), blocks)


BAD_GROUPS = {
    "negative_id": [[0, 1], [0, -1]],
    "id_past_last_block": [[0, 2]],
    "float_id": [[1.0, 0]],
    "empty_group": [[0, 1], []],
}


@pytest.mark.parametrize("case", sorted(BAD_GROUPS))
@pytest.mark.parametrize("reader", ["group_cmis", "default_group_cmis"])
def test_bad_group_ids_raise_a_typed_error_naming_the_group(reader, case):
    # Unchecked, -1 wraps to the last block on the default path and 1.0 passes
    # on the Gaussian one.
    groups = BAD_GROUPS[case]
    g = len(groups) - 1
    group_cmis = {
        "group_cmis": GaussianEstimator().group_cmis,
        "default_group_cmis": _default_group_cmis,
    }[reader]
    with pytest.raises(StatsError, match=re.escape(f"group {g} {np.asarray(groups[g]).tolist()}")):
        group_cmis(*_data(False).values(), [(0, N // 2), (N // 2, N)], groups)


@pytest.mark.parametrize("reader", ["group_cmis", "default_group_cmis"])
def test_no_groups_give_no_values(reader):
    group_cmis = {
        "group_cmis": GaussianEstimator().group_cmis,
        "default_group_cmis": _default_group_cmis,
    }[reader]
    values = group_cmis(*_data(False).values(), [(0, N // 2), (N // 2, N)], [])
    assert values.shape == (0,)
