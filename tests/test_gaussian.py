"""Linear-Gaussian estimator: closed forms, degeneracy rules, local identity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infonet import (
    Estimator,
    EstimatorError,
    GaussianEstimator,
    InsufficientSamplesError,
    SingularCovarianceError,
    gaussian_cmi,
    gaussian_mi,
)
from infonet.estimators import gaussian
from infonet.estimators.gaussian import _cholesky, _kept, gaussian_cmi_batch
from infonet.stats import (
    CIRCULAR_SHIFT,
    REPLICATION_SHUFFLE,
    SurrogatePolicy,
    max_statistic_test,
    omnibus_test,
    surrogate_index_matrix,
)

from conftest import batch_members, blocks_of, surrogate_batch


def _correlated_pair(rng, n, rho):
    x = rng.normal(size=(n, 1))
    y = rho * x + np.sqrt(1 - rho**2) * rng.normal(size=(n, 1))
    return x, y


def _residual_correlation(x, y, z):
    """Partial correlation via an independent regression-residual route."""
    design = np.column_stack([np.ones(len(z)), z])
    rx = x[:, 0] - design @ np.linalg.lstsq(design, x[:, 0], rcond=None)[0]
    ry = y[:, 0] - design @ np.linalg.lstsq(design, y[:, 0], rcond=None)[0]
    return np.corrcoef(rx, ry)[0, 1]


class TestClosedForm:
    def test_exactly_uncorrelated_gives_zero(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
        y = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
        assert gaussian_mi(x, y).value == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_exact_half_bit(self):
        # empirical correlation is exactly 1/sqrt(2), so MI = 0.5 bits
        x = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
        y = np.array([1.0, 0.0, 0.0, -1.0])[:, None]
        assert gaussian_mi(x, y).value == pytest.approx(0.5, abs=1e-12)

    def test_correlation_identity_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(20, 200))
            x, y = _correlated_pair(rng, n, rng.uniform(-0.95, 0.95))
            r = np.corrcoef(x[:, 0], y[:, 0])[0, 1]
            expected = -0.5 * np.log2(1 - r**2)
            assert gaussian_mi(x, y).value == pytest.approx(expected, abs=1e-9)

    def test_rho_half_reference_value(self):
        rng = np.random.default_rng(11)
        x, y = _correlated_pair(rng, 50000, 0.5)
        # hand-evaluated closed form at rho = 0.5
        assert gaussian_mi(x, y).value == pytest.approx(0.2075187496394219, abs=0.01)

    def test_copy_raises_singular(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 1))
        with pytest.raises(SingularCovarianceError):
            gaussian_mi(x, x.copy())


class TestConditional:
    def test_empty_conditioning_reduces_to_mi(self):
        rng = np.random.default_rng(13)
        x, y = _correlated_pair(rng, 300, 0.4)
        assert gaussian_cmi(x, y, None).value == gaussian_mi(x, y).value
        assert gaussian_cmi(x, y, np.empty((300, 0))).value == gaussian_mi(x, y).value

    def test_conditioning_on_copy_of_y_gives_zero(self):
        rng = np.random.default_rng(14)
        x, y = _correlated_pair(rng, 200, 0.6)
        out = gaussian_cmi(x, y, y.copy())
        assert abs(out.value) < 1e-9
        assert np.all(out.local == 0.0)

    def test_partial_correlation_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = 400
            z = rng.normal(size=(n, 1))
            x = 0.7 * z + rng.normal(size=(n, 1))
            y = -0.5 * z + 0.4 * x + rng.normal(size=(n, 1))
            rho = _residual_correlation(x, y, z)
            expected = -0.5 * np.log2(1 - rho**2)
            assert gaussian_cmi(x, y, z).value == pytest.approx(expected, abs=1e-9)

    def test_chain_consistency(self):
        rng = np.random.default_rng(16)
        n = 500
        z = rng.normal(size=(n, 1))
        y = 0.5 * z + rng.normal(size=(n, 1))
        x = 0.3 * y + 0.2 * z + rng.normal(size=(n, 1))
        yz = np.concatenate([y, z], axis=1)
        lhs = gaussian_mi(x, yz).value
        rhs = gaussian_mi(x, z).value + gaussian_cmi(x, y, z).value
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_singular_conditioning_raises(self):
        rng = np.random.default_rng(17)
        x, y = _correlated_pair(rng, 100, 0.5)
        z = rng.normal(size=(100, 1))
        with pytest.raises(SingularCovarianceError):
            gaussian_cmi(x, y, np.concatenate([z, z], axis=1))


class TestInvariants:
    def test_symmetry_exact(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            x, y = _correlated_pair(rng, 150, rng.uniform(-0.8, 0.8))
            assert gaussian_mi(x, y).value == gaussian_mi(y, x).value

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(19)
        x, y = _correlated_pair(rng, 500, 0.6)
        base = gaussian_mi(x, y).value
        assert gaussian_mi(1e6 * x - 3.0, y).value == pytest.approx(base, abs=1e-9)
        assert gaussian_mi(x, -0.001 * y + 42.0).value == pytest.approx(base, abs=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            x = rng.normal(size=(60, 1))
            y = rng.normal(size=(60, 1))
            assert gaussian_mi(x, y).value >= -1e-9

    def test_local_average_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(50, 300))
            z = rng.normal(size=(n, 2))
            x = z @ rng.normal(size=(2, 1)) + rng.normal(size=(n, 1))
            y = z @ rng.normal(size=(2, 1)) + 0.5 * x + rng.normal(size=(n, 1))
            out = gaussian_cmi(x, y, z)
            assert np.mean(out.local) == pytest.approx(out.value, rel=1e-10, abs=1e-12)

    def test_multivariate_blocks(self):
        rng = np.random.default_rng(22)
        n = 400
        x = rng.normal(size=(n, 2))
        y = x @ np.array([[0.5], [-0.3]]) + rng.normal(size=(n, 1))
        out = gaussian_mi(x, y)
        assert out.value > 0.1
        assert np.mean(out.local) == pytest.approx(out.value, rel=1e-10)


class TestBatchKernel:
    def test_batch_matches_single_calls(self):
        rng = np.random.default_rng(23)
        n, m = 200, 16
        y = rng.normal(size=(n, 1))
        z = rng.normal(size=(n, 2))
        xs = rng.normal(size=(m, n, 1))
        batch = gaussian_cmi_batch(xs, y, z)
        singles = [gaussian_cmi(xs[i], y, z, with_local=False).value for i in range(m)]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_batch_multicolumn(self):
        rng = np.random.default_rng(24)
        n, m = 150, 8
        y = rng.normal(size=(n, 1))
        xs = rng.normal(size=(m, n, 3))
        batch = gaussian_cmi_batch(xs, y, None)
        singles = [gaussian_cmi(xs[i], y, None, with_local=False).value for i in range(m)]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_candidates_matches_loop(self):
        rng = np.random.default_rng(25)
        n = 300
        cols = rng.normal(size=(n, 10))
        y = rng.normal(size=(n, 1))
        z = rng.normal(size=(n, 1))
        est = GaussianEstimator()
        fast = est.candidates_cmi(cols, y, z)
        slow = [gaussian_cmi(cols[:, j : j + 1], y, z, with_local=False).value for j in range(10)]
        assert np.allclose(fast, slow, atol=1e-12)

    @pytest.mark.parametrize("shape", [(0, 50), (0, 50, 2)])
    def test_empty_stack_gives_no_values(self, shape):
        rng = np.random.default_rng(26)
        y, z = rng.normal(size=(50, 1)), rng.normal(size=(50, 1))
        assert gaussian_cmi_batch(np.empty(shape), y, z).shape == (0,)
        assert GaussianEstimator().candidates_cmi(np.empty((50, 0)), y, z).shape == (0,)


def _outcome(call):
    """The call's value, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def _degenerate_case(name, n=200):
    rng = np.random.default_rng(26)
    z = rng.normal(size=(n, 2))
    x = z[:, :1] + rng.normal(size=(n, 1))
    y = 0.5 * x + rng.normal(size=(n, 1))
    return {
        "constant x": (np.full((n, 1), 2.5), y, z, 0.0),
        "x collinear with z": (z @ np.array([[1.5], [-0.7]]), y, z, 0.0),
        "constant y": (x, np.zeros((n, 1)), z, 0.0),
        "y a copy of x": (x, x.copy(), z, SingularCovarianceError),
        "singular z": (x, y, np.column_stack([z[:, 0], 3.0 * z[:, 0]]), SingularCovarianceError),
    }[name]


class TestDegeneracyRule:
    """Scalar and batched paths apply one rule to degenerate input."""

    @pytest.mark.parametrize(
        "name",
        ["constant x", "x collinear with z", "constant y", "y a copy of x", "singular z"],
    )
    def test_scalar_and_batch_agree(self, name):
        x, y, z, expected = _degenerate_case(name)
        n = x.shape[0]
        scalar = _outcome(lambda: gaussian_cmi(x, y, z).value)
        assert scalar == expected
        assert _outcome(lambda: gaussian_cmi_batch(x[np.newaxis], y, z)[0]) == expected
        if expected == 0.0:
            assert np.all(gaussian_cmi(x, y, z).local == 0.0)

        healthy = np.random.default_rng(27).normal(size=(4, n, 1))
        stack = np.concatenate([healthy[:2], x[np.newaxis], healthy[2:]])
        batch = _outcome(lambda: gaussian_cmi_batch(stack, y, z))
        if isinstance(expected, type):
            assert batch is expected
            return
        assert batch[2] == expected
        for i in (0, 1, 3, 4):
            single = gaussian_cmi(stack[i], y, z, with_local=False).value
            assert abs(batch[i] - single) <= 1e-12


def _constant_column_cases():
    """A constant x whose mean does not round back to its value."""
    n = 300
    rng = np.random.default_rng(0)
    y = rng.normal(size=n)
    z = rng.normal(size=(n, 2))
    single = [(np.full((n, 1), 3.7), y[:, np.newaxis], z)]
    rng = np.random.default_rng(0)
    blocks = [
        (np.full((50, 1), 0.1), rng.normal(size=(50, 1)), rng.normal(size=(50, 2)))
        for _ in range(3)
    ]
    return [single, blocks]


def _gathered(batch):
    return np.stack(batch_members(batch))


class TestConstantColumn:
    """Centering maps an exactly constant column to zeros on every path."""

    @pytest.mark.parametrize("blocks", _constant_column_cases())
    def test_exactly_zero_on_every_path(self, blocks):
        x, y, z = (np.concatenate([b[k] for b in blocks]) for k in range(3))
        estimator = GaussianEstimator()
        assert gaussian_cmi(x, y, z).value == 0.0
        assert gaussian_cmi(y, x, z).value == 0.0
        assert gaussian_cmi_batch(x[np.newaxis], y, z)[0] == 0.0
        rows = blocks_of([len(b[0]) for b in blocks])
        methods = [CIRCULAR_SHIFT] + ([REPLICATION_SHUFFLE] if len(blocks) > 1 else [])
        for method in methods:
            batch = surrogate_batch(x, rows, SurrogatePolicy(method, seed=1), 2)
            assert estimator.cmi_surrogate_batch(batch, y, z).tolist() == [0.0, 0.0]
        assert estimator.group_cmis(x, y, z, rows, [range(len(blocks))])[0] == 0.0


@st.composite
def _gaussian_blocks(draw, max_dx=2):
    """(x, y, z) with random widths and correlations, well above the sample floor."""
    dx, dy, dz = draw(st.integers(1, max_dx)), draw(st.integers(1, 2)), draw(st.integers(0, 3))
    d = dx + dy + dz
    n = draw(st.integers(3 * d + 10, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = np.eye(d) + np.triu(rng.normal(scale=0.7, size=(d, d)), k=1)
    data = rng.normal(size=(n, d)) @ mixing
    return data[:, :dx], data[:, dx : dx + dy], data[:, dx + dy :], rng


_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def _slogdet_cmi(x, y, z):
    """CMI in bits from the four log-determinants of the sample covariance blocks."""
    cov = np.cov(np.concatenate([x, y, z], axis=1), rowvar=False).reshape(
        x.shape[1] + y.shape[1] + z.shape[1], -1
    )
    ix = list(range(x.shape[1]))
    iy = list(range(len(ix), len(ix) + y.shape[1]))
    iz = list(range(len(ix) + len(iy), len(cov)))

    def logdet(columns):
        sign, value = np.linalg.slogdet(cov[np.ix_(columns, columns)])
        assert sign > 0
        return value

    return (logdet(ix + iz) + logdet(iy + iz) - logdet(iz) - logdet(ix + iy + iz)) / (2 * np.log(2))


class TestProperties:
    @_PROPERTY_SETTINGS
    @given(_gaussian_blocks())
    def test_exact_symmetry_in_x_and_y(self, blocks):
        x, y, z, _ = blocks
        assert gaussian_cmi(x, y, z).value == gaussian_cmi(y, x, z).value

    @_PROPERTY_SETTINGS
    @given(_gaussian_blocks())
    def test_conditioning_order_invariance(self, blocks):
        x, y, z, rng = blocks
        shuffled = z[:, rng.permutation(z.shape[1])]
        assert gaussian_cmi(x, y, shuffled).value == pytest.approx(
            gaussian_cmi(x, y, z).value, abs=1e-10
        )

    @_PROPERTY_SETTINGS
    @given(_gaussian_blocks())
    def test_non_negative(self, blocks):
        x, y, z, _ = blocks
        assert gaussian_cmi(x, y, z).value >= -1e-9

    @_PROPERTY_SETTINGS
    @given(_gaussian_blocks(), st.integers(1, 6))
    def test_batch_members_equal_scalar_values(self, blocks, m):
        x, y, z, rng = blocks
        stack = np.stack([x] + [x[rng.permutation(x.shape[0])] for _ in range(m - 1)])
        batch = gaussian_cmi_batch(stack, y, z)
        singles = [gaussian_cmi(member, y, z, with_local=False).value for member in stack]
        assert np.max(np.abs(batch - singles)) <= 1e-12

    @_PROPERTY_SETTINGS
    @given(_gaussian_blocks(max_dx=3), st.integers(1, 5))
    def test_every_entry_point_matches_log_determinants(self, blocks, draws):
        x, y, z, rng = blocks
        n = len(x)
        assert abs(gaussian_cmi(x, y, z).value - _slogdet_cmi(x, y, z)) <= 1e-10

        stack = np.stack([x] + [x[rng.permutation(n)] for _ in range(draws)])
        expected = [_slogdet_cmi(member, y, z) for member in stack]
        assert np.max(np.abs(gaussian_cmi_batch(stack, y, z) - expected)) <= 1e-10

        halves = blocks_of([n // 2, n - n // 2])
        batch = surrogate_batch(x, halves, SurrogatePolicy(seed=int(rng.integers(1000))), draws)
        values = GaussianEstimator().cmi_surrogate_batch(batch, y, z)
        expected = [_slogdet_cmi(member, y, z) for member in _gathered(batch)]
        assert np.max(np.abs(values - expected)) <= 1e-10

        # Three blocks of at least d + 3 rows each; groups of one to three blocks.
        blocks = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
        groups = [[2, 0, 1], [1], [0, 2]]
        values = GaussianEstimator().group_cmis(x, y, z, blocks, groups)
        expected = [
            _slogdet_cmi(*(np.concatenate([a[slice(*blocks[i])] for i in g]) for a in (x, y, z)))
            for g in groups
        ]
        assert np.max(np.abs(values - expected)) <= 1e-10


@st.composite
def _surrogate_cases(draw):
    """(surrogate batch, blocks, policy, y, z) as the permutation tests build them."""
    dx, dy, dz = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 4))
    method = draw(st.sampled_from([CIRCULAR_SHIFT, REPLICATION_SHUFFLE]))
    n_reps = draw(st.integers(1 if method == CIRCULAR_SHIFT else 2, 4))
    d = dx + dy + dz
    length = draw(st.integers(max(10, (3 * d + 10) // n_reps + 1), 400 // n_reps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = np.eye(d) + np.triu(rng.normal(scale=0.7, size=(d, d)), k=1)
    data = rng.normal(size=(n_reps * length, d)) @ mixing
    x = data[:, :dx] + draw(st.sampled_from([0.0, 1e3]))
    min_shift, seed = draw(st.integers(1, 5)), draw(st.integers(0, 999))
    policy = SurrogatePolicy(method, min_shift=min_shift, seed=seed)
    blocks = blocks_of([length] * n_reps)
    batch = surrogate_batch(x, blocks, policy, draw(st.integers(1, 30)))
    return batch, blocks, policy, data[:, dx : dx + dy], data[:, dx + dy :]


class TestSurrogateBatch:
    """The gather-free surrogate path equals the general batch on gathered draws."""

    @settings(max_examples=60, deadline=None)
    @given(_surrogate_cases())
    def test_equals_general_batch(self, case):
        batch, blocks, policy, y, z = case
        index = surrogate_index_matrix(blocks, policy, batch.n_draws)
        for i, member in enumerate(batch_members(batch)):
            assert np.array_equal(member, batch.columns[index[i]])
        fast = GaussianEstimator().cmi_surrogate_batch(batch, y, z)
        assert np.max(np.abs(fast - gaussian_cmi_batch(_gathered(batch), y, z))) <= 1e-12

    def test_many_short_shuffle_blocks(self):
        rng = np.random.default_rng(12)
        n_blocks, length = 400, 8
        mixing = np.eye(6) + np.triu(rng.normal(size=(6, 6)), k=1)
        data = rng.normal(size=(n_blocks * length, 6)) @ mixing
        x, y, z = data[:, :3], data[:, 3:4], data[:, 4:]
        blocks = blocks_of([length] * n_blocks)
        policy = SurrogatePolicy(REPLICATION_SHUFFLE, seed=5)
        batch = surrogate_batch(x, blocks, policy, 40)
        index = surrogate_index_matrix(blocks, policy, 40)
        # Each draw moves whole blocks: block b reads block draws[i, b].
        assert np.array_equal(index.reshape(40, n_blocks, length)[:, :, 0] // length, batch.draws)
        for i, member in enumerate(batch_members(batch)):
            assert np.array_equal(member, x[index[i]])
        fast = GaussianEstimator().cmi_surrogate_batch(batch, y, z)
        assert np.max(np.abs(fast - gaussian_cmi_batch(_gathered(batch), y, z))) <= 1e-12

    def _batch(self, name):
        x, y, z, _ = _degenerate_case(name)
        return surrogate_batch(x, blocks_of([len(x)]), SurrogatePolicy(seed=3), 5), y, z

    def test_constant_x_is_zero_on_both_paths(self):
        batch, y, z = self._batch("constant x")
        assert np.all(GaussianEstimator().cmi_surrogate_batch(batch, y, z) == 0.0)
        assert np.all(gaussian_cmi_batch(_gathered(batch), y, z) == 0.0)

    def test_singular_z_raises_on_both_paths(self):
        batch, y, z = self._batch("singular z")
        with pytest.raises(SingularCovarianceError):
            GaussianEstimator().cmi_surrogate_batch(batch, y, z)
        with pytest.raises(SingularCovarianceError):
            gaussian_cmi_batch(_gathered(batch), y, z)


class TestShiftedCrossChunks:
    """Chunks of candidate columns give the full-width cross-correlations bit for bit."""

    @pytest.mark.parametrize("length", [100, 997, 1495])
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_forced_chunks_are_exact(self, monkeypatch, length, chunk):
        rng = np.random.default_rng(length)
        n_reps, candidates, df = 2, 7, 4
        fixed = rng.normal(size=(n_reps * length, df))
        x = rng.normal(size=(len(fixed), candidates)) + fixed[:, :1]
        blocks = blocks_of([length] * n_reps)
        batch = surrogate_batch(x, blocks, SurrogatePolicy(seed=4), 20, width=1)
        args = (x, fixed, batch.blocks, batch.draws)
        full = gaussian._shifted_cross(*args)
        whole = GaussianEstimator().cmi_surrogate_batch(batch, fixed[:, :1], fixed[:, 1:])
        monkeypatch.setattr(gaussian, "_CROSS_CELLS", chunk * length * df)
        assert np.array_equal(gaussian._shifted_cross(*args), full)
        chunked = GaussianEstimator().cmi_surrogate_batch(batch, fixed[:, :1], fixed[:, 1:])
        assert chunked.tolist() == whole.tolist()


@st.composite
def _multi_candidate_cases(draw):
    """(batch, y, z, constant candidate or None) for a max test's whole pool."""
    candidates, width = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    dz = draw(st.integers(0, 3))
    method = draw(st.sampled_from([CIRCULAR_SHIFT, REPLICATION_SHUFFLE]))
    n_reps = draw(st.integers(1 if method == CIRCULAR_SHIFT else 2, 4))
    d = width + 1 + dz
    length = draw(st.integers(max(10, (3 * d + 10) // n_reps + 1), 300 // n_reps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Each candidate is coupled to the shared (y, z) through its own mixing.
    fixed = rng.normal(size=(n_reps * length, 1 + dz))
    x = np.concatenate(
        [
            rng.normal(size=(len(fixed), width)) + fixed @ rng.normal(size=(1 + dz, width))
            for _ in range(candidates)
        ],
        axis=1,
    )
    x += draw(st.sampled_from([0.0, 1e3]))
    constant = draw(st.one_of(st.none(), st.integers(0, candidates - 1)))
    if constant is not None:
        x[:, constant * width : (constant + 1) * width] = 0.1
    min_shift, seed = draw(st.integers(1, 5)), draw(st.integers(0, 999))
    policy = SurrogatePolicy(method, min_shift=min_shift, seed=seed)
    blocks = blocks_of([length] * n_reps)
    batch = surrogate_batch(x, blocks, policy, draw(st.integers(1, 30)), width=width)
    return batch, fixed[:, :1], fixed[:, 1:], constant


class TestMultiCandidateBatch:
    """Every candidate's draws in one call equal the general batch on each gathered member."""

    @settings(max_examples=60, deadline=None)
    @given(_multi_candidate_cases())
    def test_equals_general_batch(self, case):
        batch, y, z, constant = case
        fast = GaussianEstimator().cmi_surrogate_batch(batch, y, z)
        assert fast.shape == (batch.n_candidates * batch.n_draws,)
        assert np.max(np.abs(fast - gaussian_cmi_batch(_gathered(batch), y, z))) <= 1e-12
        if constant is not None:
            members = slice(constant * batch.n_draws, (constant + 1) * batch.n_draws)
            assert np.all(fast[members] == 0.0)


class TestFactorize:
    """Stacks are factorized column by column in numpy: a singular member never raises."""

    def test_pivots_flag_failing_members(self):
        # Failures in both halves of the stack, then in one eighth of it.
        for failing in [(10, 11, 23, 30), (2, 5)]:
            rng = np.random.default_rng(31)
            m, d = 37, 4
            a = rng.normal(size=(m, d + 3, d))
            stack = np.einsum("mnd,mne->mde", a, a)
            stack[[0, 9, 36], 2, :] = 0.0  # a constant column: a zero row and column
            stack[[0, 9, 36], :, 2] = 0.0
            stack[17] = -stack[17]
            # Positive diagonals, but the second pivot is negative.
            for i in failing:
                stack[i, 0, 1] = stack[i, 1, 0] = 3.0 * np.sqrt(stack[i, 0, 0] * stack[i, 1, 1])
            factors, pivots = _cholesky(stack)
            singular = ~_kept(pivots, stack.diagonal(0, 1, 2)).all(axis=1)
            assert singular.tolist() == [i in (0, 9, 17, 36, *failing) for i in range(m)]
            for i, matrix in enumerate(stack):
                alone = _cholesky(matrix[np.newaxis])
                assert np.array_equal(factors[i], alone[0][0], equal_nan=True)
                assert np.array_equal(pivots[i], alone[1][0], equal_nan=True)
                if not singular[i]:
                    expected = np.linalg.cholesky(matrix)
                    assert np.allclose(factors[i], expected, rtol=1e-12, atol=0.0)
                    assert np.allclose(pivots[i], np.diagonal(expected) ** 2, rtol=1e-12)

    @staticmethod
    def _count_factorized(monkeypatch):
        """Matrices handed to the column factorization; LAPACK's Cholesky must not run."""
        counted = []
        cholesky = gaussian._cholesky
        monkeypatch.setattr(
            gaussian, "_cholesky", lambda stack: counted.append(len(stack)) or cholesky(stack)
        )
        monkeypatch.setattr(np.linalg, "cholesky", None)
        return counted

    def test_single_column_max_test_factorizes_two_matrices(self, monkeypatch):
        rng = np.random.default_rng(33)
        n, candidates, draws = 400, 6, 50
        z = rng.normal(size=(n, 2))
        columns = rng.normal(size=(n, candidates)) + z[:, :1]
        y = columns[:, :1] + rng.normal(size=(n, 1))
        counted = self._count_factorized(monkeypatch)
        estimator = GaussianEstimator()
        observed = estimator.candidates_cmi(columns, y, z)
        blocks, policy = blocks_of([n]), SurrogatePolicy(seed=6)
        args = (columns, observed, y, z, blocks, estimator, policy, draws, 0.05)
        result = max_statistic_test(*args)
        assert result.significant
        # The observed values and the surrogate null: one (z, y) block each.
        assert counted == [1, 1]

    def test_collinear_source_block_takes_no_call_per_member(self, monkeypatch):
        # A collinear source block is 0 by the degeneracy rule in every draw of its omnibus null.
        rng = np.random.default_rng(32)
        n, draws = 1500, 200
        s = rng.normal(size=n)
        x = np.column_stack([s, 2.0 * s])
        y = 0.5 * s[:, np.newaxis] + rng.normal(size=(n, 1))
        counted = self._count_factorized(monkeypatch)
        policy = SurrogatePolicy(min_shift=2, seed=4)
        result = omnibus_test(x, y, None, blocks_of([n]), GaussianEstimator(), policy, draws, 0.05)
        assert (result.statistic, result.p_value) == (0.0, 1.0)
        # The observed value takes the narrower y as its x, so the collinear
        # block is f and one factorization decides it; the null factorizes
        # f once and the stacked R_xz and R_xyz blocks once each.
        assert counted == [1, 1, draws, draws]


@st.composite
def _replication_groups(draw):
    """An (x, y, z) table, its replication blocks and groups of block ids of unequal sizes."""
    dx, dz = draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 3))
    d = dx + 1 + dz
    n_blocks = draw(st.integers(2, 8))
    lengths = [draw(st.integers(8, 60)) for _ in range(n_blocks)]
    offset = draw(st.sampled_from([0.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = np.eye(d) + np.triu(rng.normal(scale=0.7, size=(d, d)), k=1)
    data = np.concatenate([rng.normal(size=(length, d)) @ mixing + offset for length in lengths])
    blocks = blocks_of(lengths)
    # At least two blocks of at least 8 rows keep every group above d + 2 rows.
    sizes = [draw(st.integers(2, n_blocks)) for _ in range(draw(st.integers(1, 5)))]
    groups = [rng.permutation(n_blocks)[:size] for size in sizes]
    return data[:, :dx], data[:, dx : dx + 1], data[:, dx + 1 :], blocks, groups


def _coupled_table(lengths, offset=0.0):
    """One coupled Gaussian (x, y, z) table and the (start, stop) rows of its replications."""
    rng = np.random.default_rng(8)
    n = sum(lengths)
    z = rng.normal(size=(n, 2))
    x = rng.normal(size=(n, 2)) + 0.4 * z[:, :1]
    y = rng.normal(size=(n, 1)) + 0.6 * x[:, :1]
    return x + offset, y, z, blocks_of(lengths)


class TestGroupCmis:
    """Group values from per-block moments equal the concatenating default."""

    @settings(max_examples=60, deadline=None)
    @given(_replication_groups())
    # A repeated id counts its block once per repeat on both paths.
    @example((*_coupled_table([25, 33, 40]), [[0, 1, 1], [2, 2, 0, 2]]))
    def test_equals_concatenating_default(self, case):
        estimator = GaussianEstimator()
        moments = estimator.group_cmis(*case)
        default = Estimator.group_cmis(estimator, *case)
        assert np.max(np.abs(moments - default)) <= 1e-12

    def test_identical_conditions_give_exactly_equal_values(self):
        lengths = [20, 35, 27]
        x, y, z, _ = _coupled_table(lengths, offset=1e3)
        x, y, z = (np.concatenate([a, a]) for a in (x, y, z))
        blocks = blocks_of(lengths * 2)
        values = GaussianEstimator().group_cmis(x, y, z, blocks, [range(3), range(3, 6)])
        assert values[0] > 0.1
        assert values[0] - values[1] == 0.0

    @staticmethod
    def _both_paths():
        estimator = GaussianEstimator()
        return estimator.group_cmis, lambda *args: Estimator.group_cmis(estimator, *args)

    def test_singular_z_raises_on_both_paths(self):
        x, y, z, blocks = _coupled_table([50, 50, 100])
        z = np.column_stack([z[:, 0], 3.0 * z[:, 0]])
        for group_cmis in self._both_paths():
            with pytest.raises(SingularCovarianceError):
                group_cmis(x, y, z, blocks, [[0, 1], [2]])

    @staticmethod
    def _with_column(table, side, values):
        """``table`` with column 0 of x, y or z (side 0, 1, 2) of block b set to values[b]."""
        *arrays, blocks = table
        arrays = [a.copy() for a in arrays]
        for (start, stop), value in zip(blocks, values):
            if value is not None:
                arrays[side][start:stop, 0] = value
        return (*arrays, blocks)

    @staticmethod
    def _value_or_error(group_cmis, table, groups):
        try:
            return group_cmis(*table, groups).tolist()
        except SingularCovarianceError as err:
            return type(err)

    @pytest.mark.parametrize("side", ["x", "y", "z"])
    def test_column_constant_across_a_group_follows_the_default(self, side):
        # Constant at 1.3 in blocks 0 and 1 only, so the pooled mean is not 1.3.
        table = self._with_column(
            _coupled_table([25, 33, 40, 41]), "xyz".index(side), [1.3, 1.3, None, None]
        )
        moments, default = (
            self._value_or_error(f, table, [[0, 1], [1, 0]]) for f in self._both_paths()
        )
        assert moments == default == ([0.0, 0.0] if side != "z" else SingularCovarianceError)

    @pytest.mark.parametrize("side", ["x", "y", "z"])
    def test_column_constant_per_block_only_is_not_flagged(self, side):
        table = self._with_column(
            _coupled_table([25, 33, 40, 41]), "xyz".index(side), [1.3, 2.5, 3.0, 4.0]
        )
        groups = [[0, 1], [1, 2, 3], [0, 2]]
        moments, default = (f(*table, groups) for f in self._both_paths())
        assert np.all(default[:2] != 0.0)
        assert np.max(np.abs(moments - default)) <= 1e-12

    def test_short_group_raises_on_both_paths(self):
        table = _coupled_table([4, 100, 96])
        for group_cmis in self._both_paths():
            with pytest.raises(InsufficientSamplesError):
                group_cmis(*table, [[1, 2], [0]])
