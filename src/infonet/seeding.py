"""Deterministic seed derivation.

One master seed drives every random decision in an analysis. Sub-streams are
derived by hashing an integer path (target index, phase tag, step index)
through ``numpy.random.SeedSequence``; one permutation test draws all of its
surrogates from the generator of its path, so results never depend on
evaluation order or thread count.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

# Phase tags used when deriving per-analysis sub-streams.
PHASE_TARGET_PAST = 1
PHASE_SOURCES = 2
PHASE_PRUNE = 3
PHASE_OMNIBUS = 4
PHASE_SEQUENTIAL = 5
PHASE_NOISE = 6
PHASE_COMPARE = 8
PHASE_GENERATE = 9


def seed_sequence(*path: int) -> np.random.SeedSequence:
    """Build a SeedSequence from an integer path, masking to unsigned 64-bit."""
    return np.random.SeedSequence([int(p) & _MASK for p in path])


def rng_for(*path: int) -> np.random.Generator:
    """Deterministic generator for the given derivation path."""
    return np.random.default_rng(seed_sequence(*path))


def derive_seed(*path: int) -> int:
    """Collapse a derivation path to a single 64-bit integer seed."""
    return int(seed_sequence(*path).generate_state(1, np.uint64)[0])
