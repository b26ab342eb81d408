"""Plug-in discrete estimator: hand values, exhaustive oracle, exact locals."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infonet import (
    DiscreteEstimator,
    StateSpaceTooLargeError,
    counts_from_columns,
    plugin_cmi,
    plugin_entropy,
)
from infonet.estimators import discrete


def oracle_entropy(symbols):
    """Shannon entropy from raw frequency counting, independent code path."""
    freq = {}
    for s in symbols:
        freq[s] = freq.get(s, 0) + 1
    n = len(symbols)
    return -sum((c / n) * math.log2(c / n) for c in freq.values())


def oracle_cmi(x, y, z):
    """H(XZ) + H(YZ) - H(Z) - H(XYZ) over tuple streams."""
    xz = list(zip(x, z))
    yz = list(zip(y, z))
    xyz = list(zip(x, y, z))
    return (
        oracle_entropy(xz) + oracle_entropy(yz) - oracle_entropy(list(z)) - oracle_entropy(xyz)
    )


class TestEntropy:
    def test_uniform_four_symbols(self):
        cols = np.array([0, 1, 2, 3] * 5)[:, None]
        counts = counts_from_columns(cols, (4,))
        assert plugin_entropy(counts).value == pytest.approx(2.0, abs=1e-12)

    def test_single_symbol_zero(self):
        counts = counts_from_columns(np.zeros((7, 1)), (2,))
        assert plugin_entropy(counts).value == 0.0

    def test_hand_shannon_sum(self):
        # counts {a:2, b:1, c:1} -> 1.5 bits
        cols = np.array([0, 0, 1, 2])[:, None]
        counts = counts_from_columns(cols, (3,))
        assert plugin_entropy(counts).value == pytest.approx(1.5, abs=1e-12)

    def test_local_values(self):
        cols = np.array([0, 0, 1, 2])[:, None]
        out = plugin_entropy(counts_from_columns(cols, (3,)))
        assert np.mean(out.local) == pytest.approx(out.value, abs=1e-12)
        assert out.local[0] == pytest.approx(1.0)  # -log2(1/2)
        assert out.local[2] == pytest.approx(2.0)  # -log2(1/4)

    def test_entropy_bounded_by_distinct_tuples(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            cols = rng.integers(0, 4, size=(30, 2))
            counts = counts_from_columns(cols, (4, 4))
            distinct = len(counts.counts)
            assert plugin_entropy(counts).value <= np.log2(distinct) + 1e-12


class TestConditionalMutualInformation:
    def test_independent_fair_coins(self):
        # exact product counts: every (x, y) cell appears equally often
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        assert plugin_cmi(x, y).value == pytest.approx(0.0, abs=1e-12)

    def test_copy_is_one_bit(self):
        x = np.array([0, 1, 0, 1, 1, 0])
        assert plugin_cmi(x, x.copy()).value == pytest.approx(1.0, abs=1e-12)

    def test_xor_synergy(self):
        table = np.array(list(itertools.product([0, 1], repeat=2)) * 4)
        x, z = table[:, 0], table[:, 1]
        y = x ^ z
        assert plugin_cmi(x, y).value == pytest.approx(0.0, abs=1e-12)
        assert plugin_cmi(x, y, z).value == pytest.approx(1.0, abs=1e-12)

    def test_exhaustive_small_binary_oracle(self):
        # every 3-variable binary dataset of up to 8 samples matches the oracle
        rng = np.random.default_rng(61)
        for n in (2, 4, 8):
            for _ in range(200):
                x = rng.integers(0, 2, size=n)
                y = rng.integers(0, 2, size=n)
                z = rng.integers(0, 2, size=n)
                got = plugin_cmi(x, y, z).value
                assert got == pytest.approx(oracle_cmi(x, y, z), abs=1e-12)
                got_mi = plugin_cmi(x, y).value
                assert got_mi == pytest.approx(
                    oracle_cmi(x, y, np.zeros(n, dtype=int)), abs=1e-12
                )

    def test_non_negativity(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            x = rng.integers(0, 3, size=40)
            y = rng.integers(0, 3, size=40)
            z = rng.integers(0, 3, size=40)
            assert plugin_cmi(x, y, z, alphabet_size=3).value >= -1e-12

    def test_local_average_identity_exact(self):
        rng = np.random.default_rng(63)
        x = rng.integers(0, 2, size=100)
        y = (x + rng.integers(0, 2, size=100)) % 2
        z = rng.integers(0, 2, size=100)
        out = plugin_cmi(x, y, z)
        assert np.mean(out.local) == pytest.approx(out.value, abs=1e-12)

    @pytest.mark.parametrize("dz", [0, 2])
    def test_each_argument_encoded_once(self, monkeypatch, dz):
        encoded = []
        encode = discrete._encode_columns

        def counting(cols, *args):
            encoded.append(cols.shape[1])
            return encode(cols, *args)

        monkeypatch.setattr(discrete, "_encode_columns", counting)
        rng = np.random.default_rng(66)
        x, y, z = (rng.integers(0, 2, size=(50, d)) for d in (1, 2, dz))
        plugin_cmi(x, y, z)
        assert encoded == [1, 2, dz]

    def test_state_space_cap(self):
        x = np.zeros((10, 12), dtype=int)
        y = np.zeros((10, 12), dtype=int)
        with pytest.raises(StateSpaceTooLargeError):
            plugin_cmi(x, y, None, alphabet_size=8, state_cap=10_000)


class TestPinned:
    """Exact plug-in values on fixed symbols: value, sha256 of the locals, counts."""

    @staticmethod
    def _blocks():
        rng = np.random.default_rng(65)
        x = rng.integers(0, 3, size=(200, 1))
        y = rng.integers(0, 3, size=(200, 2))
        z = rng.integers(0, 3, size=(200, 2))
        return x, y, z

    @pytest.mark.parametrize(
        "with_z, value, digest",
        [
            (
                False,
                0.0853402467648055,
                "6d14c4fd61e9d5bc93d7734b18c8e77191b6f4b35cde737a1a9e7889213b9c52",
            ),
            (
                True,
                0.45844169992608796,
                "e5b597573fbad237cc47f241aab4bd893367266132a100fd3c4930b9b28929bd",
            ),
        ],
    )
    def test_plugin_cmi(self, with_z, value, digest):
        x, y, z = self._blocks()
        out = plugin_cmi(x, y, z if with_z else None, alphabet_size=3)
        assert out.value == value
        assert hashlib.sha256(out.local.tobytes()).hexdigest() == digest

    def test_counts_from_columns(self):
        x, _, z = self._blocks()
        counts = counts_from_columns(np.hstack([x, z])[:30], (3, 3, 3))
        assert counts.counts == {
            (0, 0, 0): 1, (0, 1, 0): 3, (0, 1, 1): 1, (0, 1, 2): 3, (0, 2, 0): 1,
            (0, 2, 1): 1, (0, 2, 2): 3, (1, 0, 2): 1, (1, 1, 0): 2, (1, 1, 1): 1,
            (1, 1, 2): 2, (1, 2, 0): 1, (1, 2, 1): 2, (1, 2, 2): 1, (2, 1, 1): 3,
            (2, 1, 2): 1, (2, 2, 0): 1, (2, 2, 1): 1, (2, 2, 2): 1,
        }
        assert all(type(s) is int for key in counts.counts for s in key)


class TestAdapter:
    def test_estimator_interface(self):
        rng = np.random.default_rng(64)
        x = rng.integers(0, 2, size=(50, 1)).astype(float)
        y = rng.integers(0, 2, size=(50, 1)).astype(float)
        est = DiscreteEstimator(alphabet_size=2)
        assert est.cmi_value(x, y, None) == est.cmi(x, y, None).value


@st.composite
def _symbol_blocks(draw):
    """(x, y, z, alphabet, rng): dependent symbol columns over a small alphabet."""
    a = draw(st.integers(2, 4))
    dx, dy, dz = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    n = draw(st.integers(20, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(0, a, size=(n, dx + dy + dz))
    # copy a share of x's first column into y and z, so the parts depend
    for j in range(dx, dx + dy + dz):
        copied = rng.uniform(size=n) < 0.5
        data[copied, j] = data[copied, 0]
    return data[:, :dx], data[:, dx : dx + dy], data[:, dx + dy :], a, rng


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(_symbol_blocks())
    def test_symmetric_in_x_and_y(self, blocks):
        x, y, z, a, _ = blocks
        assert abs(plugin_cmi(x, y, z, a).value - plugin_cmi(y, x, z, a).value) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_symbol_blocks())
    def test_conditioning_order_invariance(self, blocks):
        x, y, z, a, rng = blocks
        shuffled = z[:, rng.permutation(z.shape[1])]
        assert abs(plugin_cmi(x, y, shuffled, a).value - plugin_cmi(x, y, z, a).value) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_symbol_blocks())
    def test_non_negative_and_locals_average_to_value(self, blocks):
        x, y, z, a, _ = blocks
        out = plugin_cmi(x, y, z, a)
        assert out.value >= -1e-12
        assert abs(np.mean(out.local) - out.value) <= 1e-12
