"""Group-level comparison of link strengths between two conditions.

The link structure is fixed up front (the union of previously inferred
networks); for each link the information statistic is estimated in both
conditions and the absolute difference is tested against a null built by
exchanging whole replications between conditions. Exchanging raw samples is
refused, since it would destroy autocorrelation and invalidate the null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``normalize`` is unused here but stays bound: perfbench/test_tracing.py
# checks that the tracer wraps it at this module name.
from .data import Dataset, VariableRef, embed, normalize  # noqa: F401
from .errors import (
    DataError,
    EmptyLinkSetError,
    InsufficientReplicationsError,
)
from .inference import InferenceSettings, NetworkResult, make_estimator, prepare_dataset
from .seeding import PHASE_COMPARE, rng_for
from .stats import check_permutation_count, fdr_correct, permutation_pvalue


@dataclass(frozen=True)
class LinkStructure:
    """One union link: its source variables and fixed conditioning set."""

    source: int
    target: int
    delay: int
    source_vars: tuple[VariableRef, ...]
    conditioning: tuple[VariableRef, ...]


@dataclass(frozen=True)
class LinkComparison:
    """Per-link outcome; delta is condition A minus condition B, in bits."""

    source: int
    target: int
    statistic_a: float
    statistic_b: float
    delta_bits: float
    p_value: float
    fdr_significant: bool


@dataclass(frozen=True)
class ComparisonResult:
    links: tuple[LinkComparison, ...]
    n_permutations: int
    alpha: float


def union_link_structures(*networks: NetworkResult) -> list[LinkStructure]:
    """Union of links across networks, with per-target union conditioning.

    A link's statistic conditions on the target's union past plus the union
    variables of the target's other selected source processes.
    """
    past_by_target: dict[int, set[VariableRef]] = {}
    vars_by_edge: dict[tuple[int, int], set[VariableRef]] = {}
    delay_by_edge: dict[tuple[int, int], int] = {}
    for net in networks:
        for tr in net.targets:
            past_by_target.setdefault(tr.target, set()).update(tr.selected_target_past)
            for s in tr.selected_sources:
                edge = (s.variable.process, tr.target)
                vars_by_edge.setdefault(edge, set()).add(s.variable)
        for link in net.links:
            delay_by_edge.setdefault((link.source, link.target), link.delay)
    out = []
    for (source, target) in sorted(vars_by_edge):
        own = vars_by_edge[(source, target)]
        conditioning = set(past_by_target.get(target, set()))
        for (other_source, other_target), variables in vars_by_edge.items():
            if other_target == target and other_source != source:
                conditioning.update(variables)
        out.append(
            LinkStructure(
                source=source,
                target=target,
                delay=delay_by_edge.get((source, target), min(v.lag for v in own)),
                source_vars=tuple(sorted(own, key=VariableRef.sort_key)),
                conditioning=tuple(sorted(conditioning, key=VariableRef.sort_key)),
            )
        )
    return out


def _per_replication_blocks(
    dataset: Dataset, structure: LinkStructure, max_lag: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Embedded (x, y, z) rows of each replication, kept separate for exchange."""
    variables = structure.source_vars + structure.conditioning
    real = embed(dataset, structure.target, variables, max_lag=max_lag)
    n_x = len(structure.source_vars)
    blocks = []
    for r in range(dataset.n_replications):
        rows = real.replication_of_row == r
        blocks.append(
            (
                real.lagged[rows][:, :n_x],
                real.present[rows][:, np.newaxis],
                real.lagged[rows][:, n_x:],
            )
        )
    return blocks


def _statistic(estimator, blocks, member_ids) -> float:
    x = np.concatenate([blocks[i][0] for i in member_ids], axis=0)
    y = np.concatenate([blocks[i][1] for i in member_ids], axis=0)
    z = np.concatenate([blocks[i][2] for i in member_ids], axis=0)
    return estimator.cmi_value(x, y, z)


def compare_networks(
    data_a: Dataset,
    data_b: Dataset,
    links: list[LinkStructure],
    settings: InferenceSettings,
    n_perm: int = 500,
    alpha: float = 0.05,
    alpha_fdr: float = 0.05,
    seed: int = 0,
) -> ComparisonResult:
    """Permutation test of per-link information differences between conditions."""
    if not links:
        raise EmptyLinkSetError("no links to compare")
    if data_a.n_processes != data_b.n_processes:
        raise DataError(
            f"process counts differ: {data_a.n_processes} vs {data_b.n_processes}"
        )
    if data_a.n_samples != data_b.n_samples:
        raise DataError("conditions must share the sample count to exchange replications")
    if data_a.kind != data_b.kind:
        raise DataError("conditions must share the data kind")
    if data_a.n_replications < 2 or data_b.n_replications < 2:
        raise InsufficientReplicationsError(
            "replication exchange requires at least 2 replications per condition"
        )
    check_permutation_count(n_perm, alpha)
    data_a = prepare_dataset(data_a, settings)
    data_b = prepare_dataset(data_b, settings)

    r_a, r_b = data_a.n_replications, data_b.n_replications
    total = r_a + r_b
    comparisons: list[tuple[int, int, float, float, float, float]] = []
    for link_no, structure in enumerate(sorted(links, key=lambda l: (l.target, l.source))):
        max_lag = max(v.lag for v in structure.source_vars + structure.conditioning)
        estimator = make_estimator(settings, data_a, structure.target)
        blocks = _per_replication_blocks(data_a, structure, max_lag)
        blocks += _per_replication_blocks(data_b, structure, max_lag)
        stat_a = _statistic(estimator, blocks, range(r_a))
        stat_b = _statistic(estimator, blocks, range(r_a, total))
        delta = stat_a - stat_b
        null = np.empty(n_perm)
        for draw in range(n_perm):
            rng = rng_for(seed, PHASE_COMPARE, link_no, draw)
            perm = rng.permutation(total)
            null[draw] = abs(
                _statistic(estimator, blocks, perm[:r_a])
                - _statistic(estimator, blocks, perm[r_a:])
            )
        p = permutation_pvalue(abs(delta), null)
        comparisons.append(
            (structure.source, structure.target, stat_a, stat_b, delta, p)
        )

    mask = fdr_correct([c[5] for c in comparisons], alpha=alpha_fdr)
    out = tuple(
        LinkComparison(
            source=s,
            target=t,
            statistic_a=sa,
            statistic_b=sb,
            delta_bits=d,
            p_value=p,
            fdr_significant=bool(flag),
        )
        for (s, t, sa, sb, d, p), flag in zip(comparisons, mask)
    )
    return ComparisonResult(links=out, n_permutations=n_perm, alpha=alpha)
