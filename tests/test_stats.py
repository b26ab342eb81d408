"""Surrogates, permutation tests and FDR: conventions and null behavior."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infonet import (
    GaussianEstimator,
    InsufficientPermutationsError,
    InsufficientSamplesError,
    SurrogatePolicy,
    fdr_correct,
    max_statistic_test,
    min_statistic_test,
    omnibus_test,
)
from infonet import stats
from infonet.errors import InsufficientReplicationsError, InvalidValueError, StatsError
from infonet.estimators import DiscreteEstimator, KnnEstimator, KnnSettings
from infonet.estimators import base
from infonet.estimators.base import SurrogateBatch, gather_indices
from infonet.stats import (
    CIRCULAR_SHIFT,
    REPLICATION_SHUFFLE,
    check_permutation_count,
    permutation_pvalue,
    surrogate_index_matrix,
    surrogate_indices,
)

from conftest import batch_members, blocks_of, surrogate_batch


def _policy(method=CIRCULAR_SHIFT, min_shift=1, seed=0):
    return SurrogatePolicy(method=method, min_shift=min_shift, seed=seed)


class TestSurrogates:
    """Each row of a test's (n_perm, blocks) draws is one surrogate draw; row i
    of the (n_perm, n) index matrix gathers it."""

    def test_rotation_definition(self):
        column = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        matrix = surrogate_index_matrix(blocks_of([5]), _policy(min_shift=1, seed=3), 50)
        seen = {tuple(column[row]) for row in matrix}
        # every outcome is a rotation with offset in [1, 4]
        rotations = {tuple(np.roll(column, k)) for k in range(1, 5)}
        assert seen <= rotations
        assert len(seen) > 1
        assert tuple(np.roll(column, 2)) in rotations  # offset 2 -> [4,5,1,2,3]
        assert tuple(np.roll(column, 2)) == (4.0, 5.0, 1.0, 2.0, 3.0)

    def test_multiset_preserved(self):
        rng = np.random.default_rng(70)
        column = rng.normal(size=40)
        for row in surrogate_index_matrix(blocks_of([20, 20]), _policy(min_shift=2, seed=1), 20):
            out = column[row]
            assert np.array_equal(np.sort(out[:20]), np.sort(column[:20]))
            assert np.array_equal(np.sort(out[20:]), np.sort(column[20:]))

    def test_deterministic_per_draw(self):
        blocks = blocks_of([30])
        a = surrogate_indices(blocks, _policy(seed=5), 9)
        assert np.array_equal(a, surrogate_indices(blocks, _policy(seed=5), 9))
        # Draw 7 is the same row however many draws the test asks for.
        assert np.array_equal(a[:8], surrogate_indices(blocks, _policy(seed=5), 8))
        assert not np.array_equal(a[7], a[8])
        assert not np.array_equal(a, surrogate_indices(blocks, _policy(seed=6), 9))

    def test_min_shift_honored(self):
        blocks, policy = blocks_of([10]), _policy(min_shift=3, seed=2)
        draws = surrogate_indices(blocks, policy, 30)
        for (rotation,), row in zip(draws, surrogate_index_matrix(blocks, policy, 30)):
            assert 3 <= rotation <= 7
            assert np.flatnonzero(row == 0).tolist() == [rotation]
        assert set(draws[:, 0].tolist()) == {3, 4, 5, 6, 7}

    def test_too_short_for_shift(self):
        blocks = blocks_of([5])
        with pytest.raises(InsufficientSamplesError):
            surrogate_indices(blocks, _policy(min_shift=3), 1)

    def test_replication_shuffle_permutes_blocks(self):
        column = np.concatenate([np.zeros(5), np.ones(5), np.full(5, 2.0)])
        blocks = blocks_of([5, 5, 5])
        policy = _policy(method=REPLICATION_SHUFFLE, seed=4)
        draws = surrogate_indices(blocks, policy, 30)
        seen = set()
        for order, row in zip(draws, surrogate_index_matrix(blocks, policy, 30)):
            out = column[row]
            firsts = tuple(out[i * 5] for i in range(3))
            assert sorted(firsts) == [0.0, 1.0, 2.0]
            assert firsts == tuple(order)
            assert np.array_equal(out, np.repeat(firsts, 5))
            seen.add(firsts)
        assert len(seen) > 1

    def test_random_stream_is_pinned(self):
        # Hard-coded draws 0-3 at seed 11: any change to the random stream,
        # which every published p-value depends on, fails here.
        blocks = blocks_of([12, 12, 12])
        draws = {
            CIRCULAR_SHIFT: [[3, 3, 9], [6, 7, 7], [8, 2, 6], [3, 5, 10]],
            REPLICATION_SHUFFLE: [[1, 0, 2], [1, 0, 2], [0, 1, 2], [2, 1, 0]],
        }
        r = np.r_
        rows = {
            CIRCULAR_SHIFT: [
                r[9:12, 0:9, 21:24, 12:21, 27:36, 24:27],
                r[6:12, 0:6, 17:24, 12:17, 29:36, 24:29],
                r[4:12, 0:4, 22:24, 12:22, 30:36, 24:30],
                r[9:12, 0:9, 19:24, 12:19, 26:36, 24:26],
            ],
            REPLICATION_SHUFFLE: [
                r[12:24, 0:12, 24:36],
                r[12:24, 0:12, 24:36],
                r[0:36],
                r[24:36, 12:24, 0:12],
            ],
        }
        for method, vectors in rows.items():
            policy = _policy(method=method, min_shift=2, seed=11)
            drawn = surrogate_indices(blocks, policy, 4)
            assert drawn.tolist() == draws[method]
            assert np.array_equal(surrogate_index_matrix(blocks, policy, 4), np.stack(vectors))

    def test_replication_shuffle_needs_replications(self):
        blocks = blocks_of([10])
        with pytest.raises(InsufficientReplicationsError):
            surrogate_indices(blocks, _policy(method=REPLICATION_SHUFFLE), 1)


@st.composite
def _block_layouts(draw):
    """(blocks, min_shift): 1-5 replications, each at least 2 * min_shift rows."""
    min_shift = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(2 * min_shift, 40), min_size=1, max_size=5))
    if draw(st.booleans()):
        lengths = [lengths[0]] * len(lengths)
    return blocks_of(lengths), min_shift


def _is_rotation(row, blocks, min_shift, rotations):
    """Row rotates every block right by its rotation, in [min_shift, L - min_shift]."""
    for (start, stop), rotation in zip(blocks, rotations):
        length = stop - start
        offset = (start - row[start]) % length
        assert offset == rotation
        assert min_shift <= offset <= length - min_shift
        expected = start + (np.arange(length) - offset) % length
        assert np.array_equal(row[start:stop], expected)


def _is_block_order(row, blocks, draw):
    """Row moves whole equal-length blocks, each block exactly once, in the draw's order."""
    length = blocks[0][1] - blocks[0][0]
    grid = row.reshape(len(blocks), length)
    order = grid[:, 0] // length
    assert order.tolist() == draw.tolist()
    assert sorted(order) == list(range(len(blocks)))
    assert np.array_equal(grid, order[:, np.newaxis] * length + np.arange(length))


_DRAW_SETTINGS = settings(max_examples=80, deadline=None)


class TestDrawBuilderProperties:
    """The draw builder and the gather helper over random block layouts, min_shift and n_perm."""

    @_DRAW_SETTINGS
    @given(_block_layouts(), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_rows_rotate_blocks_or_move_whole_blocks(self, layout, n_perm, seed):
        blocks, min_shift = layout
        draws = surrogate_indices(blocks, _policy(min_shift=min_shift, seed=seed), n_perm)
        assert draws.shape == (n_perm, len(blocks))
        matrix = gather_indices(draws, blocks, CIRCULAR_SHIFT)
        assert matrix.shape == (n_perm, blocks[-1][1])
        for row, rotations in zip(matrix, draws):
            _is_rotation(row, blocks, min_shift, rotations)
        lengths = {stop - start for start, stop in blocks}
        if len(blocks) > 1 and len(lengths) == 1:
            policy = _policy(REPLICATION_SHUFFLE, min_shift=min_shift, seed=seed)
            draws = surrogate_indices(blocks, policy, n_perm)
            assert draws.shape == (n_perm, len(blocks))
            matrix = gather_indices(draws, blocks, REPLICATION_SHUFFLE)
            assert matrix.shape == (n_perm, blocks[-1][1])
            for row, order in zip(matrix, draws):
                _is_block_order(row, blocks, order)

    @_DRAW_SETTINGS
    @given(_block_layouts(), st.integers(1, 30), st.data())
    def test_first_rows_equal_the_shorter_matrix(self, layout, n_perm, data):
        blocks, min_shift = layout
        k = data.draw(st.integers(1, n_perm))
        methods = [CIRCULAR_SHIFT]
        if len(blocks) > 1 and len({stop - start for start, stop in blocks}) == 1:
            methods.append(REPLICATION_SHUFFLE)
        for method in methods:
            policy = _policy(method, min_shift=min_shift, seed=data.draw(st.integers(0, 999)))
            full = surrogate_indices(blocks, policy, n_perm)
            assert np.array_equal(full[:k], surrogate_indices(blocks, policy, k))

    @_DRAW_SETTINGS
    @given(_block_layouts(), st.data())
    def test_short_block_raises_before_drawing(self, layout, data):
        blocks, min_shift = layout
        lengths = [stop - start for start, stop in blocks]
        short = data.draw(st.integers(0, len(blocks) - 1))
        lengths[short] = data.draw(st.integers(1, 2 * min_shift - 1))
        blocks = blocks_of(lengths)
        drawn = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats, "rng_for", lambda *path: drawn.append(path))
            with pytest.raises(InsufficientSamplesError):
                surrogate_indices(blocks, _policy(min_shift=min_shift), 5)
        assert drawn == []

    @_DRAW_SETTINGS
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=5), st.integers(1, 30))
    def test_shuffle_layout_errors_are_typed(self, lengths, n_perm):
        blocks = blocks_of(lengths)
        policy = _policy(REPLICATION_SHUFFLE)
        if len(lengths) == 1:
            with pytest.raises(InsufficientReplicationsError):
                surrogate_indices(blocks, policy, n_perm)
        elif len(set(lengths)) > 1:
            with pytest.raises(StatsError, match="equal-length"):
                surrogate_indices(blocks, policy, n_perm)
        else:
            assert surrogate_indices(blocks, policy, n_perm).shape == (n_perm, len(lengths))


class TestIndexMatrixMemory:
    """Building a test's index matrix holds little beyond the matrix itself."""

    @pytest.mark.parametrize("method", [CIRCULAR_SHIFT, REPLICATION_SHUFFLE])
    def test_peak_is_one_matrix(self, method):
        blocks = blocks_of([2500] * 4)
        tracemalloc.start()
        try:
            matrix = surrogate_index_matrix(blocks, _policy(method, seed=3), 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (200, 10_000)
        assert peak <= 1.25 * matrix.nbytes, f"peak {peak} for {matrix.nbytes} bytes"


class TestSurrogateMemory:
    """A Gaussian max test never holds an (n_perm, n) index matrix."""

    @pytest.mark.parametrize("method", [CIRCULAR_SHIFT, REPLICATION_SHUFFLE])
    def test_peak_below_one_index_matrix(self, method):
        rng = np.random.default_rng(74)
        n, n_perm = 10_000, 200
        columns = rng.normal(size=(n, 5))
        y, z = rng.normal(size=(n, 1)), rng.normal(size=(n, 2))
        observed = GaussianEstimator().candidates_cmi(columns, y, z)
        blocks = blocks_of([n // 4] * 4)
        tracemalloc.start()
        try:
            result = max_statistic_test(
                columns, observed, y, z, blocks, GaussianEstimator(),
                _policy(method, seed=3), n_perm, 0.05,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_permutations == n_perm
        index_bytes = n_perm * n * np.dtype(np.int64).itemsize
        assert peak < index_bytes, f"peak {peak} against {index_bytes} bytes of index matrix"


class TestPvalueConventions:
    def test_count_formula(self):
        assert permutation_pvalue(1.0, np.zeros(200)) == pytest.approx(1 / 201)
        assert permutation_pvalue(-1.0, np.zeros(200)) == 1.0
        assert permutation_pvalue(0.0, np.zeros(200)) == 1.0  # ties count

    def test_non_finite_values_raise(self):
        # A NaN compares False, so it used to count as a miss and give the
        # smallest p-value possible.
        with pytest.raises(StatsError, match="nan"):
            permutation_pvalue(np.nan, np.zeros(19))
        with pytest.raises(StatsError, match="nan"):
            permutation_pvalue(0.1, np.full(19, np.nan))
        with pytest.raises(StatsError, match="inf"):
            permutation_pvalue(0.1, np.r_[np.zeros(18), np.inf])

    def test_permutation_count_gate(self):
        with pytest.raises(InsufficientPermutationsError):
            check_permutation_count(10, 0.05)
        with pytest.raises(InsufficientPermutationsError):
            check_permutation_count(19, 0.05)  # min p = alpha exactly, never rejects
        check_permutation_count(20, 0.05)
        check_permutation_count(200, 0.05)


def _coupled_context(rng, n=600, coupled=True):
    x = rng.normal(size=n)
    y = 0.7 * x + rng.normal(size=n) if coupled else rng.normal(size=n)
    noise = rng.normal(size=(n, 3))
    columns = np.column_stack([x, noise])
    observed = GaussianEstimator().candidates_cmi(columns, y[:, None], None)
    return columns, observed, y[:, None], blocks_of([n])


class TestMaxStatistic:
    def test_strong_source_detected(self):
        rng = np.random.default_rng(72)
        columns, observed, y, blocks = _coupled_context(rng)
        result = max_statistic_test(
            columns, observed, y, None, blocks, GaussianEstimator(),
            _policy(min_shift=2, seed=10), 200, 0.05,
        )
        assert result.p_value == pytest.approx(1 / 201)
        assert result.significant

    def test_null_not_significant_mostly(self):
        rejections = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            columns, observed, y, blocks = _coupled_context(rng, n=300, coupled=False)
            result = max_statistic_test(
                columns, observed, y, None, blocks, GaussianEstimator(),
                _policy(min_shift=2, seed=seed), 100, 0.05,
            )
            rejections += result.significant
        assert rejections <= 4

    def test_insufficient_permutations(self):
        rng = np.random.default_rng(73)
        columns, observed, y, blocks = _coupled_context(rng, n=100)
        with pytest.raises(InsufficientPermutationsError):
            max_statistic_test(
                columns, observed, y, None, blocks, GaussianEstimator(),
                _policy(min_shift=2), 10, 0.05,
            )


def _per_column_max_test(columns, observed, y, z, blocks, estimator, policy, n_perm, alpha):
    """The max test as one surrogate batch per candidate column, maxima taken in turn."""
    null_max = np.full(n_perm, -np.inf)
    for j in range(columns.shape[1]):
        batch = surrogate_batch(columns[:, j : j + 1], blocks, policy, n_perm)
        np.maximum(null_max, estimator.cmi_surrogate_batch(batch, y, z), out=null_max)
    statistic = float(np.max(observed))
    return statistic, permutation_pvalue(statistic, null_max)


class TestMaxStatisticOneCall:
    """One call for the whole pool gives the per-column loop's statistic and p-value."""

    @pytest.mark.parametrize("name", ["gaussian", "knn", "discrete"])
    @pytest.mark.parametrize("method", [CIRCULAR_SHIFT, REPLICATION_SHUFFLE])
    def test_equals_per_column_loop(self, name, method):
        rng = np.random.default_rng(78)
        n_reps, length = 3, 40
        n = n_reps * length
        if name == "discrete":
            estimator = DiscreteEstimator(alphabet_size=2)
            columns = rng.integers(0, 2, size=(n, 4)).astype(np.float64)
            y = np.logical_xor(columns[:, :1], rng.random((n, 1)) < 0.2).astype(np.float64)
            z = rng.integers(0, 2, size=(n, 1)).astype(np.float64)
        else:
            estimator = GaussianEstimator() if name == "gaussian" else KnnEstimator()
            columns = rng.normal(size=(n, 4))
            z = rng.normal(size=(n, 1))
            y = 0.3 * columns[:, :1] + 0.5 * z + rng.normal(size=(n, 1))
        blocks = blocks_of([length] * n_reps)
        observed = estimator.candidates_cmi(columns, y, z)
        policy = _policy(method=method, min_shift=2, seed=15)
        args = (columns, observed, y, z, blocks, estimator, policy, 60, 0.05)
        result = max_statistic_test(*args)
        statistic, p = _per_column_max_test(*args)
        assert result.statistic == statistic
        assert result.p_value == p


_TESTS = {
    "max": lambda cols, y, z, blocks: max_statistic_test(
        cols, np.zeros(1 if np.ndim(cols) == 1 else cols.shape[1]), y, z, blocks,
        GaussianEstimator(), _policy(min_shift=2), 50, 0.05,
    ),
    "min": lambda cols, y, z, blocks: min_statistic_test(
        cols, y, z, blocks, GaussianEstimator(), _policy(min_shift=2), 50, 0.05
    ),
    "omnibus": lambda cols, y, z, blocks: omnibus_test(
        cols, y, z, blocks, GaussianEstimator(), _policy(min_shift=2), 50, 0.05
    ),
}


class TestArgumentChecks:
    @pytest.mark.parametrize("test", sorted(_TESTS))
    @pytest.mark.parametrize("rows", [200, 400])
    def test_blocks_of_the_wrong_length_rejected(self, test, rows):
        rng = np.random.default_rng(79)
        columns = rng.normal(size=(300, 2))
        y = columns[:, :1] + rng.normal(size=(300, 1))
        blocks = blocks_of([rows // 2] * 2)
        with pytest.raises(StatsError, match=re.escape(f"blocks {blocks} do not tile rows 0..300")):
            _TESTS[test](columns, y, None, blocks)

    @pytest.mark.parametrize("test", sorted(_TESTS))
    @pytest.mark.parametrize("name", ["y", "z"])
    def test_y_or_z_of_the_wrong_length_rejected(self, test, name):
        rng = np.random.default_rng(80)
        columns = rng.normal(size=(300, 2))
        args = {"y": rng.normal(size=(300, 1)), "z": rng.normal(size=(300, 1))}
        args[name] = args[name][:250]
        with pytest.raises(StatsError, match=f"{name} has 250 rows, the columns have 300"):
            _TESTS[test](columns, args["y"], args["z"], blocks_of([300]))

    @pytest.mark.parametrize("test", ["max", "min"])
    def test_one_dimensional_column_is_one_candidate(self, test):
        rng = np.random.default_rng(81)
        x = rng.normal(size=300)
        y = 0.8 * x[:, None] + rng.normal(size=(300, 1))
        result = _TESTS[test](x, y, None, blocks_of([300]))
        expected = _TESTS[test](x[:, None], y, None, blocks_of([300]))
        assert result == expected

    @pytest.mark.parametrize("estimator", [GaussianEstimator(), KnnEstimator()])
    def test_one_dimensional_column_has_one_observed_value(self, estimator):
        rng = np.random.default_rng(83)
        x = rng.normal(size=300)
        y = 0.8 * x[:, None] + rng.normal(size=(300, 1))
        observed = estimator.candidates_cmi(x, y, None)
        assert observed.tolist() == estimator.candidates_cmi(x[:, None], y, None).tolist()

    @pytest.mark.parametrize("test", sorted(_TESTS))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_column_rejected(self, test, value):
        rng = np.random.default_rng(84)
        columns = rng.normal(size=(300, 2))
        y = columns[:, :1] + rng.normal(size=(300, 1))
        columns[7, 1] = value
        with pytest.raises(InvalidValueError, match="1 NaN or infinite"):
            _TESTS[test](columns, y, None, blocks_of([300]))

    def test_one_dimensional_column_needs_one_observed_value(self):
        x = np.random.default_rng(82).normal(size=300)
        with pytest.raises(StatsError, match="one observed CMI per candidate"):
            max_statistic_test(
                x, np.zeros(2), x[:, None], None, blocks_of([300]),
                GaussianEstimator(), _policy(min_shift=2), 50, 0.05,
            )


class TestMinStatistic:
    def test_single_variable_reduces_to_plain_test(self):
        rng = np.random.default_rng(74)
        n = 500
        x = rng.normal(size=(n, 1))
        y = 0.8 * x + rng.normal(size=(n, 1))
        outcome = min_statistic_test(
            x, y, None, blocks_of([n]), GaussianEstimator(),
            _policy(min_shift=2, seed=11), 200, 0.05,
        )
        assert outcome.weakest == 0
        assert outcome.result.significant

    def test_constant_data_ties_give_p_one(self):
        x = np.array([0, 1] * 20)[:, None].astype(float)
        y = np.zeros((40, 1))
        outcome = min_statistic_test(
            x, y, None, blocks_of([40]), DiscreteEstimator(2),
            _policy(min_shift=2, seed=12), 100, 0.05,
        )
        assert outcome.result.p_value == 1.0

    def test_copy_source_survives_among_noise(self):
        rng = np.random.default_rng(75)
        n = 1000
        y = rng.normal(size=(n, 1))
        copy = y + 1e-3 * rng.normal(size=(n, 1))
        noise = rng.normal(size=(n, 2))
        columns = np.column_stack([copy, noise])
        outcome = min_statistic_test(
            columns, y, None, blocks_of([n]), GaussianEstimator(),
            _policy(min_shift=2, seed=13), 200, 0.05,
        )
        # the weakest is one of the noise columns, and the copy's observed
        # value is the largest
        assert outcome.weakest != 0
        assert outcome.result.statistic < GaussianEstimator().cmi_value(copy, y, noise)

    def test_each_conditioning_is_built_once(self):
        # A variable's observed value and its null read one conditioning array.
        seen = []

        class Recording(GaussianEstimator):
            def cmi_value(self, x, y, z=None):
                seen.append(("observed", z))
                return super().cmi_value(x, y, z)

            def cmi_surrogate_batch(self, x_batch, y, z=None):
                seen.append(("null", z))
                return super().cmi_surrogate_batch(x_batch, y, z)

        rng = np.random.default_rng(76)
        columns, base = rng.normal(size=(200, 3)), rng.normal(size=(200, 1))
        y = columns.sum(axis=1, keepdims=True) + rng.normal(size=(200, 1))
        outcome = min_statistic_test(
            columns, y, base, blocks_of([200]), Recording(), _policy(seed=14), 30, 0.05
        )
        assert outcome == min_statistic_test(
            columns, y, base, blocks_of([200]), GaussianEstimator(),
            _policy(seed=14), 30, 0.05,
        )
        assert [kind for kind, _ in seen] == ["observed"] * 3 + ["null"] * 3
        for j in range(3):
            z = seen[j][1]
            assert seen[3 + j][1] is z
            assert np.array_equal(z, np.column_stack([base, np.delete(columns, j, axis=1)]))


class TestOmnibus:
    def test_empty_source_set_vacuous(self):
        result = omnibus_test(
            np.empty((100, 0)), np.zeros((100, 1)), None, blocks_of([100]),
            GaussianEstimator(), _policy(), 500, 0.05,
        )
        assert result.p_value == 1.0
        assert not result.significant

    @pytest.mark.parametrize(
        "case, error, pattern",
        [
            ({"n_perm": 0}, InsufficientPermutationsError, "must be >= 1"),
            ({"n_perm": 10}, InsufficientPermutationsError, "cannot reject"),
            ({"y": np.zeros((90, 1))}, StatsError, "y has 90 rows, the columns have 100"),
            ({"z": np.zeros((90, 2))}, StatsError, "z has 90 rows, the columns have 100"),
            ({"blocks": blocks_of([50, 40])}, StatsError, "do not tile rows 0..100"),
            ({"blocks": np.zeros(100, dtype=int)}, StatsError, "blocks must be integer"),
        ],
    )
    def test_empty_source_set_checks_its_arguments(self, case, error, pattern):
        # The empty set's p = 1 shortcut comes only after every argument check.
        args = {"y": np.zeros((100, 1)), "z": None, "blocks": blocks_of([100]), "n_perm": 500}
        args.update(case)
        with pytest.raises(error, match=pattern):
            omnibus_test(
                np.empty((100, 0)), args["y"], args["z"], args["blocks"],
                GaussianEstimator(), _policy(), args["n_perm"], 0.05,
            )

    def test_empty_source_set_draws_no_surrogates(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(stats, "rng_for", lambda *path: drawn.append(path))
        result = omnibus_test(
            np.empty((100, 0)), np.zeros((100, 1)), np.zeros((100, 2)), blocks_of([60, 40]),
            GaussianEstimator(), _policy(min_shift=45), 500, 0.05,
        )
        assert (result.statistic, result.p_value, result.n_permutations) == (0.0, 1.0, 500)
        assert drawn == []

    def test_coupled_pair_maximally_significant(self):
        rng = np.random.default_rng(76)
        n = 2000
        x = rng.normal(size=(n, 1))
        y = 0.8 * x + rng.normal(size=(n, 1))
        result = omnibus_test(
            x, y, None, blocks_of([n]), GaussianEstimator(),
            _policy(min_shift=2, seed=14), 500, 0.05,
        )
        assert result.p_value == pytest.approx(1 / 501)

    def test_null_rejection_rate_near_alpha(self):
        rejections = 0
        runs = 100
        for seed in range(runs):
            rng = np.random.default_rng(2000 + seed)
            n = 200
            x = rng.normal(size=(n, 1))
            y = rng.normal(size=(n, 1))
            result = omnibus_test(
                x, y, None, blocks_of([n]), GaussianEstimator(),
                _policy(min_shift=2, seed=seed), 100, 0.05,
            )
            rejections += result.significant
        # binomial(100, 0.05): mean 5, allow generous 3-sigma band
        assert rejections <= 12


class TestFdr:
    def test_hand_example(self):
        mask = fdr_correct([0.001, 0.02, 0.9], alpha=0.05, m=3)
        assert mask.tolist() == [True, True, False]

    def test_all_ones_nothing(self):
        assert not fdr_correct([1.0, 1.0, 1.0], alpha=0.05).any()

    def test_empty(self):
        assert fdr_correct([], alpha=0.05).size == 0

    def test_rejects_bad_pvalues(self):
        with pytest.raises(StatsError):
            fdr_correct([0.5, 1.5])
        with pytest.raises(StatsError):
            fdr_correct([-0.1])

    def test_rejects_nan_pvalue(self):
        with pytest.raises(StatsError, match="nan"):
            fdr_correct([np.nan, 0.001, 0.5])

    def test_external_m(self):
        # with m=20, one p-value at 0.004 is below 0.05/20 = 0.0025? no: kill
        assert not fdr_correct([0.004], alpha=0.05, m=20).any()
        assert fdr_correct([0.002], alpha=0.05, m=20).any()

    def test_monotone_in_pvalues(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            p = rng.uniform(size=8)
            base = fdr_correct(p, alpha=0.1)
            j = int(rng.integers(0, 8))
            lowered = p.copy()
            lowered[j] *= rng.uniform()
            after = fdr_correct(lowered, alpha=0.1)
            # lowering one p-value never de-selects a previously significant test
            assert after[base].all()

    def test_step_up_behavior(self):
        # rank-5 threshold rescues all five equal small p-values
        p = [1 / 201] * 5
        mask = fdr_correct(p, alpha=0.05, m=20)
        assert mask.all()


@st.composite
def _surrogate_cases(draw):
    """(surrogate batch of one or more candidates, y, z, discrete) for the default loop."""
    discrete = draw(st.booleans())
    method = draw(st.sampled_from([CIRCULAR_SHIFT, REPLICATION_SHUFFLE]))
    n_reps = draw(st.integers(1 if method == CIRCULAR_SHIFT else 2, 3))
    length = draw(st.integers(12, 40))
    candidates = draw(st.integers(1, 3))
    dx, dz = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = n_reps * length
    total = candidates * dx
    if discrete:
        data = rng.integers(0, 3, size=(n, total + 1 + dz)).astype(np.float64)
    else:
        data = rng.normal(size=(n, total + 1 + dz))
        data[:, total] += data[:, 0]
    blocks = blocks_of([length] * n_reps)
    policy = SurrogatePolicy(method, min_shift=2, seed=draw(st.integers(0, 999)))
    batch = surrogate_batch(data[:, :total], blocks, policy, draw(st.integers(1, 6)), width=dx)
    return batch, data[:, total : total + 1], data[:, total + 1 :], discrete


class TestDefaultSurrogateBatch:
    """The default loop gives each member exactly its scalar value."""

    @settings(max_examples=30, deadline=None)
    @given(_surrogate_cases())
    def test_equals_scalar_value_per_draw(self, case):
        batch, y, z, discrete = case
        assert len(batch) == batch.n_candidates * batch.n_draws
        index = gather_indices(batch.draws, batch.blocks, batch.method)
        gathered = dict(base.members(batch))
        assert sorted(gathered) == list(range(len(batch)))
        for i, member in gathered.items():
            candidate, draw = divmod(i, batch.n_draws)
            columns = batch.columns[:, candidate * batch.width : (candidate + 1) * batch.width]
            assert np.array_equal(member, columns[index[draw]])
        # Rotation 0 over one block leaves every column in place: the
        # unshifted batch that candidates_cmi hands to cmis.
        n, total = batch.columns.shape
        rotation_0 = np.zeros((1, 1), dtype=np.intp)
        unshifted = SurrogateBatch(batch.columns, rotation_0, ((0, n),), CIRCULAR_SHIFT, 1)
        pairs = list(base.members(unshifted))
        assert [i for i, _ in pairs] == list(range(total))
        for j, member in pairs:
            assert member.tobytes() == batch.columns[:, j : j + 1].tobytes()
        estimators = (
            [DiscreteEstimator(alphabet_size=3)]
            if discrete
            else [KnnEstimator(KnnSettings(k=3, noise_amplitude=0.0)), KnnEstimator()]
        )
        for estimator in estimators:
            values = estimator.cmi_surrogate_batch(batch, y, z)
            expected = [estimator.cmi_value(member, y, z) for member in batch_members(batch)]
            assert values.tolist() == expected
            observed = estimator.candidates_cmi(batch.columns, y, z)
            expected = [estimator.cmi_value(member, y, z) for _, member in pairs]
            assert observed.tolist() == expected

    @pytest.mark.parametrize(
        "estimator", [GaussianEstimator(), KnnEstimator(), DiscreteEstimator(alphabet_size=2)]
    )
    @pytest.mark.parametrize(
        "draws_shape, blocks, match",
        [
            ((3, 1), ((0, 120),), "rows"),
            ((1,), ((0, 100),), "shape"),
            ((3, 2), ((0, 40), (50, 100)), "rows"),
        ],
        ids=["long_index", "one_draw_1d", "gap_between_blocks"],
    )
    def test_index_and_blocks_must_fit_the_rows(self, estimator, draws_shape, blocks, match):
        columns = np.arange(100.0)[:, np.newaxis] % 2
        draws = np.zeros(draws_shape, dtype=np.int64)
        with pytest.raises(StatsError, match=match):
            estimator.cmi_surrogate_batch(
                SurrogateBatch(columns, draws, blocks, CIRCULAR_SHIFT), columns, None
            )

    @pytest.mark.parametrize(
        "estimator", [GaussianEstimator(), KnnEstimator(), DiscreteEstimator(alphabet_size=2)]
    )
    @pytest.mark.parametrize(
        "method, draws, blocks, match",
        [
            (CIRCULAR_SHIFT, [[0, 1]], ((0, 100),), "shape"),
            (CIRCULAR_SHIFT, [[1.0]], ((0, 100),), "float64"),
            (CIRCULAR_SHIFT, [[3], [-1]], ((0, 100),), r"rotation -1 of draw 1 .* \[0, 100\)"),
            (CIRCULAR_SHIFT, [[40, 60]], ((0, 40), (40, 100)), r"rotation 40 .* \[0, 40\)"),
            (REPLICATION_SHUFFLE, [[1, 0], [0, 0]], ((0, 50), (50, 100)), "draw 1 .* permutation"),
            (REPLICATION_SHUFFLE, [[0, 2]], ((0, 50), (50, 100)), "permutation"),
            (REPLICATION_SHUFFLE, [[1, 0]], ((0, 40), (40, 100)), "unequal"),
        ],
        ids=[
            "one_too_many",
            "float",
            "negative_rotation",
            "rotation_of_block_length",
            "repeated_block",
            "unknown_block",
            "unequal_blocks",
        ],
    )
    def test_draws_must_permute_the_rows(self, estimator, method, draws, blocks, match):
        # A rotation of -1 would wrap to the last lag in the Gaussian kernel,
        # while the gathered rows would read the next block.
        columns = np.arange(100.0)[:, np.newaxis] % 2
        with pytest.raises(StatsError, match=match):
            estimator.cmi_surrogate_batch(
                SurrogateBatch(columns, np.array(draws), blocks, method), columns, None
            )

    @pytest.mark.parametrize(
        "estimator, n",
        [(KnnEstimator(), 120), (KnnEstimator(), 300), (DiscreteEstimator(alphabet_size=2), 120)],
        ids=["knn_dense", "knn_per_member", "default"],
    )
    def test_each_draw_is_gathered_once(self, monkeypatch, estimator, n):
        rng = np.random.default_rng(7)
        candidates, draws = 4, 5
        columns = rng.integers(0, 2, size=(n, candidates)).astype(np.float64)
        y = rng.integers(0, 2, size=(n, 1)).astype(np.float64)
        batch = surrogate_batch(columns, blocks_of([n]), _policy(seed=3), draws, width=1)
        expected = [estimator.cmi_value(member, y, None) for member in batch_members(batch)]
        calls = []
        gather = base.gather_indices
        monkeypatch.setattr(base, "gather_indices", lambda *a: calls.append(1) or gather(*a))
        assert estimator.cmi_surrogate_batch(batch, y, None).tolist() == expected
        assert len(calls) == draws

    def test_width_must_divide_the_block(self):
        draws = np.zeros((2, 1), dtype=np.int64)
        with pytest.raises(StatsError, match="width 2"):
            SurrogateBatch(np.zeros((10, 3)), draws, ((0, 10),), CIRCULAR_SHIFT, width=2)
