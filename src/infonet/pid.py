"""Two-source partial information decomposition over discrete distributions.

Splits the joint information two sources carry about a target into redundant,
unique and synergistic parts. Redundancy is the expected minimum specific
information: for each target state, each source's specific information is the
expected log-ratio between the posterior and prior target probability, and
the weaker of the two is what both sources share. Every mutual information
is the p(t)-weighted sum of specific information, I(S;T) = sum_t p(t) I(T=t;S),
so a source whose specific information never exceeds the other's has a
unique part of exactly zero.

Empirical counts go through the plug-in estimator's checked encoder: a symbol
outside its alphabet raises ``DataError`` and a table over the state cap
raises ``StateSpaceTooLargeError`` before it is allocated.

Conventions: 0 * log 0 = 0, and conditionals on zero-probability events
contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estimators.discrete import DEFAULT_STATE_CAP, _as_int_columns, _encode_columns


@dataclass(frozen=True)
class JointDistribution3:
    """Probability table over (source1, source2, target) symbol triples."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.probabilities, dtype=np.float64))
        if p.ndim != 3:
            raise DataError(
                f"expected a 3-axis (s1, s2, t) probability table, got shape {p.shape}"
            )
        if p.min() < 0.0:
            raise DataError("probabilities must be non-negative")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise DataError(f"probabilities must sum to 1, got {total!r}")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "JointDistribution3":
        counts = np.asarray(counts, dtype=np.float64)
        total = counts.sum()
        if total <= 0:
            raise DataError("counts must be positive")
        return cls(counts / total)


@dataclass(frozen=True)
class PidAtoms:
    """Redundant, unique and synergistic information in bits."""

    redundancy: float
    unique_1: float
    unique_2: float
    synergy: float


def _specific_information(joint_st: np.ndarray) -> np.ndarray:
    """I(T = t; S) for each target state t, from a (s, t) joint table.

    Sum over s of p(s|t) * [log2 p(t|s) - log2 p(t)].
    """
    p_t = joint_st.sum(axis=0)  # (t,)
    p_s = joint_st.sum(axis=1, keepdims=True)  # (s, 1)
    out = np.zeros(joint_st.shape[1])
    for t in range(joint_st.shape[1]):
        if p_t[t] <= 0:
            continue
        p_s_given_t = joint_st[:, t] / p_t[t]
        p_t_given_s = np.zeros(joint_st.shape[0])
        positive = p_s[:, 0] > 0
        p_t_given_s[positive] = joint_st[positive, t] / p_s[positive, 0]
        terms = np.zeros(joint_st.shape[0])
        ok = (p_s_given_t > 0) & (p_t_given_s > 0)
        terms[ok] = p_s_given_t[ok] * (np.log2(p_t_given_s[ok]) - np.log2(p_t[t]))
        out[t] = terms.sum()
    return out


def pid_williams_beer(dist: JointDistribution3) -> PidAtoms:
    """Decompose MI(S1,S2; T) into redundancy, unique parts and synergy.

    The measure treats the two sources symmetrically; computing in a
    canonical source orientation makes the float result exactly symmetric
    under swapping S1 and S2 as well.
    """
    p = dist.probabilities
    swapped = np.ascontiguousarray(np.transpose(p, (1, 0, 2)))
    if (swapped.shape, swapped.tobytes()) < (p.shape, p.tobytes()):
        atoms = pid_williams_beer(JointDistribution3(swapped))
        return PidAtoms(atoms.redundancy, atoms.unique_2, atoms.unique_1, atoms.synergy)
    p_t = p.sum(axis=(0, 1))
    if np.count_nonzero(p_t > 0) < 2:
        return PidAtoms(0.0, 0.0, 0.0, 0.0)

    spec_1 = _specific_information(p.sum(axis=1))  # from the (s1, t) table
    spec_2 = _specific_information(p.sum(axis=0))  # from the (s2, t) table
    spec_12 = _specific_information(p.reshape(-1, p.shape[2]))  # ((s1, s2), t)
    redundancy = float((p_t * np.minimum(spec_1, spec_2)).sum())
    mi_1, mi_2, mi_12 = (float((p_t * spec).sum()) for spec in (spec_1, spec_2, spec_12))

    return PidAtoms(
        redundancy=redundancy,
        unique_1=mi_1 - redundancy,
        unique_2=mi_2 - redundancy,
        synergy=mi_12 - mi_1 - mi_2 + redundancy,
    )


def pid_from_data(s1, s2, t, alphabet_sizes: tuple[int, int, int] | None = None) -> PidAtoms:
    """Decomposition of empirical counts from three discrete columns."""
    cols = [_as_int_columns(c)[:, 0] for c in (s1, s2, t)]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise DataError("s1, s2 and t must have equal length")
    if n == 0:
        raise DataError("no observations: s1, s2 and t are empty")
    if alphabet_sizes is None:
        alphabet_sizes = [c.max() + 1 for c in cols]
    sizes = tuple(int(a) for a in alphabet_sizes)
    if len(sizes) != 3:
        raise DataError(f"expected three alphabet sizes (s1, s2, t), got {len(sizes)}")
    keys = _encode_columns(np.column_stack(cols), sizes, DEFAULT_STATE_CAP)
    counts = np.bincount(keys, minlength=math.prod(sizes)).reshape(sizes)
    return pid_williams_beer(JointDistribution3.from_counts(counts))
