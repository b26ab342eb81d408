"""Partial information decomposition: gate corpus against an independent oracle."""

import itertools
import math

import numpy as np
import pytest

from infonet import (
    DataError,
    JointDistribution3,
    PidAtoms,
    StateSpaceTooLargeError,
    pid_from_data,
    pid_williams_beer,
)
from infonet.estimators.discrete import DEFAULT_STATE_CAP


def oracle_atoms(probs):
    """Brute-force decomposition via KL-divergence specific information.

    Loops over raw events with no vectorization; the specific information of
    a source for target state t is computed as D(p(S|t) || p(S)), an
    algebraically equal but differently-coded route.
    """
    probs = np.asarray(probs, dtype=np.float64)
    a1, a2, at = probs.shape
    p_t = probs.sum(axis=(0, 1))

    def marginal(axis_keep):
        out = {}
        for s1, s2, t in itertools.product(range(a1), range(a2), range(at)):
            key = ((s1, s2, t)[axis_keep], t)
            out[key] = out.get(key, 0.0) + probs[s1, s2, t]
        return out

    def specific(joint_st, n_states, t):
        if p_t[t] <= 0:
            return 0.0
        p_s = {s: sum(joint_st.get((s, tt), 0.0) for tt in range(at)) for s in range(n_states)}
        total = 0.0
        for s in range(n_states):
            cond = joint_st.get((s, t), 0.0) / p_t[t]
            if cond > 0 and p_s[s] > 0:
                total += cond * math.log2(cond / p_s[s])
        return total

    def mi(joint_st, n_states):
        p_s = {s: sum(joint_st.get((s, tt), 0.0) for tt in range(at)) for s in range(n_states)}
        total = 0.0
        for (s, t), p in joint_st.items():
            if p > 0 and p_s[s] > 0 and p_t[t] > 0:
                total += p * math.log2(p / (p_s[s] * p_t[t]))
        return total

    j1 = marginal(0)
    j2 = marginal(1)
    j12 = {}
    for s1, s2, t in itertools.product(range(a1), range(a2), range(at)):
        j12[(s1 * a2 + s2, t)] = probs[s1, s2, t]

    if sum(1 for t in range(at) if p_t[t] > 0) < 2:
        return PidAtoms(0.0, 0.0, 0.0, 0.0)
    redundancy = sum(
        p_t[t] * min(specific(j1, a1, t), specific(j2, a2, t)) for t in range(at)
    )
    mi1, mi2, mi12 = mi(j1, a1), mi(j2, a2), mi(j12, a1 * a2)
    return PidAtoms(redundancy, mi1 - redundancy, mi2 - redundancy,
                    mi12 - mi1 - mi2 + redundancy)


def _gate_distribution(gate):
    probs = np.zeros((2, 2, 2))
    for s1, s2 in itertools.product((0, 1), repeat=2):
        probs[s1, s2, gate(s1, s2)] += 0.25
    return JointDistribution3(probs)


class TestGateCorpus:
    def test_xor_pure_synergy(self):
        atoms = pid_williams_beer(_gate_distribution(lambda a, b: a ^ b))
        assert atoms.redundancy == pytest.approx(0.0, abs=1e-12)
        assert atoms.unique_1 == pytest.approx(0.0, abs=1e-12)
        assert atoms.unique_2 == pytest.approx(0.0, abs=1e-12)
        assert atoms.synergy == pytest.approx(1.0, abs=1e-12)

    def test_copy_pure_unique(self):
        atoms = pid_williams_beer(_gate_distribution(lambda a, b: a))
        assert atoms.redundancy == pytest.approx(0.0, abs=1e-12)
        assert atoms.unique_1 == pytest.approx(1.0, abs=1e-12)
        assert atoms.unique_2 == pytest.approx(0.0, abs=1e-12)
        assert atoms.synergy == pytest.approx(0.0, abs=1e-12)

    def test_and_gate_reference_values(self):
        atoms = pid_williams_beer(_gate_distribution(lambda a, b: a & b))
        oracle = oracle_atoms(_gate_distribution(lambda a, b: a & b).probabilities)
        assert atoms.redundancy == pytest.approx(0.3112781244591328, abs=1e-9)
        assert atoms.unique_1 == pytest.approx(0.0, abs=1e-9)
        assert atoms.unique_2 == pytest.approx(0.0, abs=1e-9)
        assert atoms.synergy == pytest.approx(0.5, abs=1e-9)
        assert atoms.redundancy == pytest.approx(oracle.redundancy, abs=1e-12)

    def test_or_gate_matches_oracle(self):
        dist = _gate_distribution(lambda a, b: a | b)
        atoms = pid_williams_beer(dist)
        oracle = oracle_atoms(dist.probabilities)
        assert atoms.redundancy == pytest.approx(oracle.redundancy, abs=1e-12)
        assert atoms.synergy == pytest.approx(oracle.synergy, abs=1e-12)


class TestProperties:
    def _random_distribution(self, rng, shape=(2, 3, 2)):
        raw = rng.uniform(size=shape)
        return JointDistribution3(raw / raw.sum())

    def test_consistency_equations(self):
        rng = np.random.default_rng(90)
        for _ in range(30):
            dist = self._random_distribution(rng)
            atoms = pid_williams_beer(dist)
            oracle = oracle_atoms(dist.probabilities)
            assert atoms.redundancy == pytest.approx(oracle.redundancy, abs=1e-10)
            assert atoms.unique_1 == pytest.approx(oracle.unique_1, abs=1e-10)
            assert atoms.unique_2 == pytest.approx(oracle.unique_2, abs=1e-10)
            assert atoms.synergy == pytest.approx(oracle.synergy, abs=1e-10)
            assert atoms.redundancy >= -1e-12
            assert atoms.unique_1 >= -1e-12
            assert atoms.unique_2 >= -1e-12
            assert atoms.synergy >= -1e-12

    def test_source_symmetry(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            dist = self._random_distribution(rng, shape=(3, 2, 2))
            swapped = JointDistribution3(np.transpose(dist.probabilities, (1, 0, 2)))
            a = pid_williams_beer(dist)
            b = pid_williams_beer(swapped)
            assert a.redundancy == b.redundancy
            assert a.synergy == pytest.approx(b.synergy, abs=1e-12)
            assert a.unique_1 == pytest.approx(b.unique_2, abs=1e-12)
            assert a.unique_2 == pytest.approx(b.unique_1, abs=1e-12)

    def test_redundancy_bounded_by_marginal_mi(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            dist = self._random_distribution(rng)
            atoms = pid_williams_beer(dist)
            o = oracle_atoms(dist.probabilities)
            mi1 = o.redundancy + o.unique_1
            mi2 = o.redundancy + o.unique_2
            assert atoms.redundancy <= min(mi1, mi2) + 1e-12

    def test_dominated_source_has_exactly_zero_unique(self):
        # T copies S2, so S2's specific information -log2 p(t) bounds S1's at
        # every target state: redundancy is S1's whole MI and nothing is left.
        rng = np.random.default_rng(95)
        for _ in range(20):
            a1, a2 = rng.integers(2, 4, size=2)
            p12 = rng.uniform(size=(a1, a2))
            probs = np.zeros((a1, a2, a2))
            probs[:, np.arange(a2), np.arange(a2)] = p12 / p12.sum()
            assert pid_williams_beer(JointDistribution3(probs)).unique_1 == 0.0
            swapped = JointDistribution3(np.transpose(probs, (1, 0, 2)))
            assert pid_williams_beer(swapped).unique_2 == 0.0

    def test_invalid_distribution(self):
        with pytest.raises(DataError):
            JointDistribution3(np.full((2, 2, 2), 0.2))
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = 1.5
        bad[1, 1, 1] = -0.5
        with pytest.raises(DataError):
            JointDistribution3(bad)


class TestFromData:
    def test_exact_xor_table(self):
        rows = np.array(list(itertools.product((0, 1), repeat=2)) * 16)
        s1, s2 = rows[:, 0], rows[:, 1]
        t = s1 ^ s2
        atoms = pid_from_data(s1, s2, t)
        assert atoms.synergy == pytest.approx(1.0, abs=1e-12)
        assert atoms.redundancy == pytest.approx(0.0, abs=1e-12)

    def test_constant_target_all_zero(self):
        rng = np.random.default_rng(93)
        s1 = rng.integers(0, 2, size=64)
        s2 = rng.integers(0, 2, size=64)
        atoms = pid_from_data(s1, s2, np.zeros(64, dtype=int))
        assert atoms == PidAtoms(0.0, 0.0, 0.0, 0.0)

    def test_constant_source_degenerates(self):
        rng = np.random.default_rng(94)
        s1 = rng.integers(0, 2, size=200)
        t = s1.copy()
        atoms = pid_from_data(s1, np.zeros(200, dtype=int), t)
        assert atoms.redundancy == pytest.approx(0.0, abs=1e-12)
        assert atoms.unique_1 == pytest.approx(1.0, abs=1e-2)
        assert atoms.unique_2 == pytest.approx(0.0, abs=1e-12)
        assert atoms.synergy == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("alphabet_sizes", [None, (2, 2, 2)])
    def test_empty_columns_rejected(self, alphabet_sizes):
        with pytest.raises(DataError, match="no observations"):
            pid_from_data([], [], [], alphabet_sizes)

    def test_negative_symbol_rejected(self):
        s = np.array([0, 1, 0, 1])
        with pytest.raises(DataError, match="outside"):
            pid_from_data(np.array([0, 1, -1, 1]), s, s)

    def test_symbol_at_alphabet_size_rejected(self):
        s = np.array([0, 1, 0, 1])
        with pytest.raises(DataError, match="outside"):
            pid_from_data(np.array([0, 2, 0, 1]), s, s, alphabet_sizes=(2, 3, 2))

    def test_two_alphabet_sizes_rejected(self):
        s = np.array([0, 1, 0, 1])
        with pytest.raises(DataError, match="three alphabet sizes"):
            pid_from_data(s, s, s, alphabet_sizes=(2, 2))

    def test_state_cap_checked_before_counting(self):
        s = np.array([0, 1, 0, 1])
        side = math.isqrt(DEFAULT_STATE_CAP) + 1
        with pytest.raises(StateSpaceTooLargeError):
            pid_from_data(s, s, s, alphabet_sizes=(side, side, 2))
