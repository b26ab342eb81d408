"""Linear-Gaussian estimator: closed forms, degeneracy rules, local identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infonet import (
    EstimatorError,
    GaussianEstimator,
    SingularCovarianceError,
    gaussian_cmi,
    gaussian_mi,
)
from infonet.estimators.gaussian import gaussian_cmi_batch


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


@st.composite
def _gaussian_blocks(draw):
    """(x, y, z) with random widths and correlations, well above the sample floor."""
    dx, dy, dz = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 3))
    d = dx + dy + dz
    n = draw(st.integers(3 * d + 10, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = np.eye(d) + np.triu(rng.normal(scale=0.7, size=(d, d)), k=1)
    data = rng.normal(size=(n, d)) @ mixing
    return data[:, :dx], data[:, dx : dx + dy], data[:, dx + dy :], rng


_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


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
