"""k-nearest-neighbor estimator: analytic oracles and conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infonet import (
    DuplicatePointsError,
    KnnEstimator,
    KnnSettings,
    SurrogatePolicy,
    gaussian_cmi,
    knn_cmi,
    knn_mi,
)
from infonet.errors import EstimatorError
from infonet.estimators.base import CIRCULAR_SHIFT, REPLICATION_SHUFFLE, SurrogateBatch
from infonet.estimators.knn import _CHUNK_CELLS, _prefix_length
from infonet.neighbors import _BLOCK_CELLS

from conftest import surrogate_batch


def _gauss_pair(rng, n, rho):
    x = rng.normal(size=(n, 1))
    y = rho * x + np.sqrt(1 - rho**2) * rng.normal(size=(n, 1))
    return x, y


class TestMutualInformation:
    def test_independent_uniforms_near_zero(self):
        errors = []
        for seed in range(5):
            rng = np.random.default_rng(40 + seed)
            x = rng.uniform(size=(1000, 1))
            y = rng.uniform(size=(1000, 1))
            errors.append(knn_mi(x, y, KnnSettings(k=4, seed=seed)).value)
        assert max(abs(e) for e in errors) < 0.05

    def test_correlated_gaussian_oracle(self):
        rng = np.random.default_rng(41)
        x, y = _gauss_pair(rng, 10000, 0.9)
        est = knn_mi(x, y, KnnSettings(k=4, seed=1))
        assert est.value == pytest.approx(1.1979643381655698, abs=0.05)

    def test_k_not_below_n(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(10, 1))
        y = rng.normal(size=(10, 1))
        with pytest.raises(EstimatorError):
            knn_mi(x, y, KnnSettings(k=10))

    def test_duplicates_without_jitter_rejected(self):
        x = np.repeat(np.arange(5.0), 5)[:, None]
        y = np.repeat(np.arange(5.0), 5)[:, None]
        with pytest.raises(DuplicatePointsError):
            knn_mi(x, y, KnnSettings(k=4, noise_amplitude=0.0))

    def test_local_average_identity_exact(self):
        rng = np.random.default_rng(43)
        x, y = _gauss_pair(rng, 500, 0.5)
        est = knn_mi(x, y, KnnSettings(k=4, seed=2))
        assert np.mean(est.local) == pytest.approx(est.value, rel=1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(44)
        x, y = _gauss_pair(rng, 300, 0.3)
        a = knn_mi(x, y, KnnSettings(k=4, seed=9)).value
        b = knn_mi(x, y, KnnSettings(k=4, seed=9)).value
        assert a == b

    def test_monotone_rescaling_invariance(self):
        rng = np.random.default_rng(45)
        x, y = _gauss_pair(rng, 5000, 0.6)
        base = knn_mi(x, y, KnnSettings(k=4, seed=3)).value
        warped = knn_mi(np.exp(x), y**3, KnnSettings(k=4, seed=3)).value
        assert abs(base - warped) < 0.02


class TestConditional:
    def test_empty_conditioning_equals_mi(self):
        rng = np.random.default_rng(46)
        x, y = _gauss_pair(rng, 400, 0.5)
        settings = KnnSettings(k=4, seed=4)
        assert knn_cmi(x, y, None, settings).value == knn_mi(x, y, settings).value
        empty = np.empty((400, 0))
        assert knn_cmi(x, y, empty, settings).value == knn_mi(x, y, settings).value

    def test_independent_triple_near_zero(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(2000, 1))
        y = rng.normal(size=(2000, 1))
        z = rng.normal(size=(2000, 1))
        est = knn_cmi(x, y, z, KnnSettings(k=4, seed=5))
        assert abs(est.value) < 0.08

    def test_markov_chain_conditional_independence(self):
        # y depends on x only through z; CMI(x; y | z) should vanish and the
        # Gaussian estimator on the same data provides the cross-check.
        rng = np.random.default_rng(48)
        n = 10000
        x = rng.normal(size=(n, 1))
        z = 0.8 * x + 0.6 * rng.normal(size=(n, 1))
        y = 0.7 * z + 0.71 * rng.normal(size=(n, 1))
        knn_est = knn_cmi(x, y, z, KnnSettings(k=4, seed=6)).value
        gauss_est = gaussian_cmi(x, y, z, with_local=False).value
        assert abs(knn_est) < 0.08
        assert abs(knn_est - gauss_est) < 0.08

    def test_local_average_identity(self):
        rng = np.random.default_rng(49)
        x, y = _gauss_pair(rng, 400, 0.4)
        z = rng.normal(size=(400, 1))
        est = knn_cmi(x, y, z, KnnSettings(k=4, seed=7))
        assert np.mean(est.local) == pytest.approx(est.value, rel=1e-12)


class TestAdapter:
    def test_estimator_interface(self):
        rng = np.random.default_rng(50)
        x, y = _gauss_pair(rng, 300, 0.5)
        est = KnnEstimator(KnnSettings(k=4, seed=8))
        assert est.cmi_value(x, y, None) == est.cmi(x, y, None).value

    def test_surrogate_batch_matches_scalar_per_member(self):
        rng = np.random.default_rng(51)
        x, y = _gauss_pair(rng, 120, 0.5)
        columns = np.concatenate([x, rng.normal(size=(120, 2))], axis=1)
        est = KnnEstimator(KnnSettings(k=3, seed=9))
        rep_ids, policy = np.zeros(len(x), dtype=int), SurrogatePolicy(seed=9)
        for block in (x, columns):
            batch = surrogate_batch(block, rep_ids, policy, 4, width=1)
            vals = est.cmi_surrogate_batch(batch, y, None)
            assert vals.shape == (block.shape[1] * 4,)
            assert vals.tolist() == [est.cmi_value(batch[i], y, None) for i in range(len(batch))]

    @pytest.mark.parametrize("n", [100, 300], ids=["dense", "loop"])
    def test_cmis_takes_only_a_surrogate_batch(self, n):
        rng = np.random.default_rng(52)
        x, y = _gauss_pair(rng, n, 0.5)
        with pytest.raises(EstimatorError, match="SurrogateBatch, not list"):
            KnnEstimator().cmis([x, x], y)


@st.composite
def _continuous_blocks(draw):
    """(x, y, z, rng): correlated continuous columns with no duplicate points."""
    dx, dy, dz = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    d = dx + dy + dz
    n = draw(st.integers(20, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = np.eye(d) + np.triu(rng.normal(scale=0.7, size=(d, d)), k=1)
    data = rng.normal(size=(n, d)) @ mixing
    return data[:, :dx], data[:, dx : dx + dy], data[:, dx + dy :], rng


class TestProperties:
    """Exact neighbor counts make these hold to rounding without jitter."""

    _exact = KnnSettings(k=4, noise_amplitude=0.0)

    @settings(max_examples=40, deadline=None)
    @given(_continuous_blocks())
    def test_symmetric_in_x_and_y(self, blocks):
        x, y, z, _ = blocks
        forward = knn_cmi(x, y, z, self._exact).value
        assert abs(forward - knn_cmi(y, x, z, self._exact).value) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_continuous_blocks())
    def test_conditioning_order_invariance(self, blocks):
        x, y, z, rng = blocks
        shuffled = z[:, rng.permutation(z.shape[1])]
        forward = knn_cmi(x, y, z, self._exact).value
        assert abs(forward - knn_cmi(x, y, shuffled, self._exact).value) <= 1e-12


@st.composite
def _shared_yz_cases(draw, loop: bool):
    """(surrogate batch, y, z, settings) on either side of the dense bound."""
    method = draw(st.sampled_from([CIRCULAR_SHIFT, REPLICATION_SHUFFLE]))
    if loop:
        shapes = [(3, 100)] if method == REPLICATION_SHUFFLE else [(1, 300), (3, 100)]
        n_reps, length = draw(st.sampled_from(shapes))
    else:
        n_reps = draw(st.integers(1 if method == CIRCULAR_SHIFT else 2, 3))
        length = draw(st.integers(12, 80))
    n = n_reps * length
    candidates, dx, dz = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(n, candidates * dx + 1 + dz))
    data[:, -1 - dz] += data[:, 0]
    # On a coarse grid, distances tie and only the jitter orders them.
    ties = draw(st.booleans())
    if ties:
        data = np.round(data, 1)
    rep_ids = np.repeat(np.arange(n_reps), length)
    policy = SurrogatePolicy(method, min_shift=2, seed=draw(st.integers(0, 999)))
    batch = surrogate_batch(
        data[:, : candidates * dx], rep_ids, policy, draw(st.integers(1, 3)), width=dx
    )
    noise = KnnSettings().noise_amplitude
    if not ties:
        noise = draw(st.sampled_from([0.0, noise]))
    k, seed = draw(st.integers(1, 5)), draw(st.integers(0, 99))
    y, z = data[:, -1 - dz : data.shape[1] - dz], data[:, data.shape[1] - dz :]
    return batch, y, z, KnnSettings(k=k, noise_amplitude=noise, seed=seed)


class TestSharedYZ:
    """The batch entry points equal ``knn_cmi`` member by member, bit for bit.

    Below the dense bound (n * n <= _BLOCK_CELLS) the members share the
    (y, z) distance matrices; above it they loop over ``knn_cmi``.
    """

    @pytest.mark.parametrize("loop", [False, True], ids=["dense", "loop"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_knn_cmi_per_member(self, loop, data):
        batch, y, z, knn_settings = data.draw(_shared_yz_cases(loop))
        assert (len(y) ** 2 > _BLOCK_CELLS) == loop
        est = KnnEstimator(knn_settings)
        expected = [knn_cmi(batch[i], y, z, knn_settings).value for i in range(len(batch))]
        assert est.cmi_surrogate_batch(batch, y, z).tolist() == expected
        columns = batch.columns
        expected = [
            knn_cmi(columns[:, j : j + 1], y, z, knn_settings).value
            for j in range(columns.shape[1])
        ]
        assert est.candidates_cmi(columns, y, z).tolist() == expected

    @pytest.mark.parametrize("n", [100, 300])
    def test_duplicate_points_raise(self, n):
        # A constant x is the same under every draw, and y and z repeat in pairs.
        x = np.zeros((n, 1))
        y = np.repeat(np.arange(n // 2.0), 2)[:, None]
        z = np.repeat(np.arange(n // 2.0), 2)[:, None] ** 2
        est = KnnEstimator(KnnSettings(k=1, noise_amplitude=0.0))
        batch = _one_block_batch(x, 2)
        with pytest.raises(DuplicatePointsError):
            knn_cmi(x, y, z, est.settings)
        with pytest.raises(DuplicatePointsError):
            est.cmi_surrogate_batch(batch, y, z)
        with pytest.raises(DuplicatePointsError):
            est.candidates_cmi(x, y, z)

    @pytest.mark.parametrize("n", [100, 300])
    def test_k_not_below_n(self, n):
        rng = np.random.default_rng(53)
        x, y = _gauss_pair(rng, n, 0.5)
        est = KnnEstimator(KnnSettings(k=n))
        with pytest.raises(EstimatorError, match="k must satisfy"):
            est.cmi_surrogate_batch(_one_block_batch(x, 2), y, None)
        with pytest.raises(EstimatorError, match="k must satisfy"):
            est.candidates_cmi(x, y, None)


def _one_block_batch(x, n_perm):
    return surrogate_batch(x, np.zeros(len(x), dtype=int), SurrogatePolicy(seed=1), n_perm)


def _every_rotation(x, width=None):
    """The batch of every circular shift of x over one block, rotation 0 included."""
    n = len(x)
    return SurrogateBatch(x, np.arange(n)[:, np.newaxis], ((0, n),), CIRCULAR_SHIFT, width)


class TestPrefixRadii:
    """``cmis`` equals ``knn_cmi`` member by member, bit for bit, on every path.

    A batch searches each point's radius among its nearest (y, z) neighbors
    when n leaves columns outside that prefix, and takes the full row
    otherwise, or where the prefix cannot decide the radius.
    """

    @staticmethod
    def _check(batch, y, z, knn_settings):
        expected = [knn_cmi(batch[i], y, z, knn_settings).value for i in range(len(batch))]
        assert KnnEstimator(knn_settings).cmis(batch, y, z).tolist() == expected

    @pytest.mark.parametrize("dz", [0, 2])
    @pytest.mark.parametrize("dx", [1, 2])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_n_around_the_prefix_edge(self, k, offset, dx, dz):
        # The smallest n whose prefix leaves a column out (n = prefix + 1);
        # one less takes every row in full.
        edge = next(n for n in range(k + 1, 1000) if _prefix_length(n, k) < n)
        n = edge + offset
        rng = np.random.default_rng(100 * k + 10 * dx + dz + offset)
        data = rng.normal(size=(n, dx + 1 + dz))
        data[:, dx] += data[:, 0]
        x, y, z = data[:, :dx], data[:, dx : dx + 1], data[:, dx + 1 :]
        self._check(_every_rotation(x), y, z, KnnSettings(k=k, seed=3))

    @pytest.mark.parametrize("dx", [1, 2])
    def test_every_row_falls_back_to_the_full_row(self, dx):
        # All points form one tight (y, z) cluster, wider than the prefix,
        # and x spreads them apart: each point's k-th x distance, and so its
        # radius, exceeds the cluster's diameter, and every prefix bound.
        n, k = 150, 4
        assert _prefix_length(n, k) + 1 < n
        rng = np.random.default_rng(60 + dx)
        x = np.column_stack([rng.permutation(n), rng.normal(size=(n, dx - 1))]).astype(float)
        y, z = 1e-3 * rng.normal(size=(n, 1)), 1e-3 * rng.normal(size=(n, 2))
        assert np.ptp(np.concatenate([y, z], axis=1), axis=0).max() < 1.0
        self._check(_every_rotation(x[:, :dx]), y, z, KnnSettings(k=k, seed=4))

    @pytest.mark.parametrize("dx", [1, 2])
    @pytest.mark.parametrize("k", [1, 4])
    def test_tied_distances_without_noise(self, k, dx):
        # Integer data: distances tie everywhere, radii included, and only
        # the strict count decides. Distinct x values keep points apart.
        n = 120
        rng = np.random.default_rng(70 + k + dx)
        x = np.column_stack([rng.permutation(n), rng.integers(0, 3, size=(n, dx - 1))])
        y, z = rng.integers(0, 4, size=(n, 1)), rng.integers(0, 3, size=(n, 2))
        self._check(
            _every_rotation(x.astype(float)), y.astype(float), z.astype(float),
            KnnSettings(k=k, noise_amplitude=0.0),
        )

    @pytest.mark.parametrize("dx", [1, 2])
    def test_k_one_below_n(self, dx):
        n = 30
        rng = np.random.default_rng(80 + dx)
        x, y, z = rng.normal(size=(n, dx)), rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        self._check(_every_rotation(x), y, z, KnnSettings(k=n - 1, seed=5))

    def test_members_over_several_chunks(self):
        # 2 candidates x 200 rotations, read draw by draw: more members than
        # one chunk holds.
        n = 200
        assert 2 * n > _CHUNK_CELLS // n
        rng = np.random.default_rng(90)
        x, y = _gauss_pair(rng, n, 0.6)
        columns = np.concatenate([x, rng.normal(size=(n, 1))], axis=1)
        self._check(_every_rotation(columns, width=1), y, rng.normal(size=(n, 1)), KnnSettings())
