"""Surrogates, permutation tests and FDR: conventions and null behavior."""

import numpy as np
import pytest

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
from infonet.errors import InsufficientReplicationsError, StatsError
from infonet.estimators import DiscreteEstimator
from infonet.stats import (
    CIRCULAR_SHIFT,
    REPLICATION_SHUFFLE,
    check_permutation_count,
    permutation_pvalue,
    surrogate_indices,
)


def _policy(method=CIRCULAR_SHIFT, min_shift=1, seed=0):
    return SurrogatePolicy(method=method, min_shift=min_shift, seed=seed)


class TestSurrogates:
    def test_rotation_definition(self):
        column = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        rep_ids = np.zeros(5, dtype=int)
        seen = set()
        for draw in range(50):
            out = column[surrogate_indices(rep_ids, _policy(min_shift=1, seed=3), draw)]
            seen.add(tuple(out))
        # every outcome is a rotation with offset in [1, 4]
        rotations = {tuple(np.roll(column, k)) for k in range(1, 5)}
        assert seen <= rotations
        assert tuple(np.roll(column, 2)) in rotations  # offset 2 -> [4,5,1,2,3]
        assert tuple(np.roll(column, 2)) == (4.0, 5.0, 1.0, 2.0, 3.0)

    def test_multiset_preserved(self):
        rng = np.random.default_rng(70)
        column = rng.normal(size=40)
        rep_ids = np.repeat([0, 1], 20)
        for draw in range(20):
            out = column[surrogate_indices(rep_ids, _policy(min_shift=2, seed=1), draw)]
            assert np.array_equal(np.sort(out[:20]), np.sort(column[:20]))
            assert np.array_equal(np.sort(out[20:]), np.sort(column[20:]))

    def test_deterministic_per_draw(self):
        rng = np.random.default_rng(71)
        column = rng.normal(size=30)
        rep_ids = np.zeros(30, dtype=int)
        a = column[surrogate_indices(rep_ids, _policy(seed=5), 7)]
        b = column[surrogate_indices(rep_ids, _policy(seed=5), 7)]
        c = column[surrogate_indices(rep_ids, _policy(seed=5), 8)]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_min_shift_honored(self):
        column = np.arange(10.0)
        rep_ids = np.zeros(10, dtype=int)
        for draw in range(30):
            idx = surrogate_indices(rep_ids, _policy(min_shift=3, seed=2), draw)
            offset = int(np.flatnonzero(idx == 0)[0])
            assert 3 <= offset <= 7

    def test_too_short_for_shift(self):
        rep_ids = np.zeros(5, dtype=int)
        with pytest.raises(InsufficientSamplesError):
            surrogate_indices(rep_ids, _policy(min_shift=3), 0)

    def test_replication_shuffle_permutes_blocks(self):
        column = np.concatenate([np.zeros(5), np.ones(5), np.full(5, 2.0)])
        rep_ids = np.repeat([0, 1, 2], 5)
        policy = _policy(method=REPLICATION_SHUFFLE, seed=4)
        seen = set()
        for draw in range(30):
            out = column[surrogate_indices(rep_ids, policy, draw)]
            blocks = tuple(out[i * 5] for i in range(3))
            assert sorted(blocks) == [0.0, 1.0, 2.0]
            seen.add(blocks)
        assert len(seen) > 1

    def test_replication_shuffle_needs_replications(self):
        rep_ids = np.zeros(10, dtype=int)
        with pytest.raises(InsufficientReplicationsError):
            surrogate_indices(rep_ids, _policy(method=REPLICATION_SHUFFLE), 0)


class TestPvalueConventions:
    def test_count_formula(self):
        assert permutation_pvalue(1.0, np.zeros(200)) == pytest.approx(1 / 201)
        assert permutation_pvalue(-1.0, np.zeros(200)) == 1.0
        assert permutation_pvalue(0.0, np.zeros(200)) == 1.0  # ties count

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
    return columns, observed, y[:, None], np.zeros(n, dtype=int)


class TestMaxStatistic:
    def test_strong_source_detected(self):
        rng = np.random.default_rng(72)
        columns, observed, y, rep_ids = _coupled_context(rng)
        result = max_statistic_test(
            columns, observed, y, None, rep_ids, GaussianEstimator(),
            _policy(min_shift=2, seed=10), 200, 0.05,
        )
        assert result.p_value == pytest.approx(1 / 201)
        assert result.significant

    def test_null_not_significant_mostly(self):
        rejections = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            columns, observed, y, rep_ids = _coupled_context(rng, n=300, coupled=False)
            result = max_statistic_test(
                columns, observed, y, None, rep_ids, GaussianEstimator(),
                _policy(min_shift=2, seed=seed), 100, 0.05,
            )
            rejections += result.significant
        assert rejections <= 4

    def test_insufficient_permutations(self):
        rng = np.random.default_rng(73)
        columns, observed, y, rep_ids = _coupled_context(rng, n=100)
        with pytest.raises(InsufficientPermutationsError):
            max_statistic_test(
                columns, observed, y, None, rep_ids, GaussianEstimator(),
                _policy(min_shift=2), 10, 0.05,
            )


class TestMinStatistic:
    def test_single_variable_reduces_to_plain_test(self):
        rng = np.random.default_rng(74)
        n = 500
        x = rng.normal(size=(n, 1))
        y = 0.8 * x + rng.normal(size=(n, 1))
        outcome = min_statistic_test(
            x, y, None, np.zeros(n, dtype=int), GaussianEstimator(),
            _policy(min_shift=2, seed=11), 200, 0.05,
        )
        assert outcome.weakest == 0
        assert outcome.result.significant

    def test_constant_data_ties_give_p_one(self):
        x = np.array([0, 1] * 20)[:, None].astype(float)
        y = np.zeros((40, 1))
        outcome = min_statistic_test(
            x, y, None, np.zeros(40, dtype=int), DiscreteEstimator(2),
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
            columns, y, None, np.zeros(n, dtype=int), GaussianEstimator(),
            _policy(min_shift=2, seed=13), 200, 0.05,
        )
        # the weakest is one of the noise columns, and the copy's observed
        # value is the largest
        assert outcome.weakest != 0
        assert outcome.result.statistic < GaussianEstimator().cmi_value(copy, y, noise)


class TestOmnibus:
    def test_empty_source_set_vacuous(self):
        result = omnibus_test(
            np.empty((100, 0)), np.zeros((100, 1)), None, np.zeros(100, dtype=int),
            GaussianEstimator(), _policy(), 500, 0.05,
        )
        assert result.p_value == 1.0
        assert not result.significant

    def test_coupled_pair_maximally_significant(self):
        rng = np.random.default_rng(76)
        n = 2000
        x = rng.normal(size=(n, 1))
        y = 0.8 * x + rng.normal(size=(n, 1))
        result = omnibus_test(
            x, y, None, np.zeros(n, dtype=int), GaussianEstimator(),
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
                x, y, None, np.zeros(n, dtype=int), GaussianEstimator(),
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
