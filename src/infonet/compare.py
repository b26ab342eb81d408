"""Group-level comparison of link strengths between two conditions.

The link structure is fixed up front: the union of the links that previously
inferred networks report after FDR. For each link the information statistic
is estimated in both conditions and the absolute difference is tested
against a null built by exchanging whole replications between conditions.
Exchanging raw samples is refused, since it would destroy autocorrelation
and invalidate the null.

A link's two conditions are embedded once each into one (x, y, z) table
whose replications are their ``embed`` row blocks, A's then B's shifted.
The observed split and every exchange are groups of block ids, all
evaluated by one ``Estimator.group_cmis`` call: the Gaussian estimator from
per-block moments in one batched kernel call, the others by gathering each
group's rows block by block in order.

The analysis reads its estimator, FDR level and default seed from the one
``InferenceSettings`` it is given: links are flagged by Benjamini-Hochberg
at ``alpha_fdr``, and ``ComparisonResult.alpha`` reports that level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    """Every compared link, in (target, source) order; ``alpha`` is the FDR level."""

    links: tuple[LinkComparison, ...]
    n_permutations: int
    alpha: float


def union_link_structures(*networks: NetworkResult) -> list[LinkStructure]:
    """Union of the reported links across networks, with per-target union conditioning.

    Only links that survive a network's FDR step (its ``adjacency``) enter:
    a link's source variables are the selected variables of its source
    process, and its delay is the one that network reports (the first
    network's, when several report the link). Its statistic conditions on
    the target's union past plus the union variables of the target's other
    reported links.
    """
    past_by_target: dict[int, set[VariableRef]] = {}
    vars_by_edge: dict[tuple[int, int], set[VariableRef]] = {}
    delay_by_edge: dict[tuple[int, int], int] = {}
    for net in networks:
        reported = {(link.source, link.target): link.delay for link in net.adjacency}
        for edge, delay in reported.items():
            delay_by_edge.setdefault(edge, delay)
        for tr in net.targets:
            past_by_target.setdefault(tr.target, set()).update(tr.selected_target_past)
            for s in tr.selected_sources:
                edge = (s.variable.process, tr.target)
                if edge in reported:
                    vars_by_edge.setdefault(edge, set()).add(s.variable)
    out = []
    for (source, target) in sorted(vars_by_edge):
        conditioning = set(past_by_target.get(target, set()))
        for (other_source, other_target), variables in vars_by_edge.items():
            if other_target == target and other_source != source:
                conditioning.update(variables)
        out.append(
            LinkStructure(
                source=source,
                target=target,
                delay=delay_by_edge[(source, target)],
                source_vars=tuple(
                    sorted(vars_by_edge[(source, target)], key=VariableRef.sort_key)
                ),
                conditioning=tuple(sorted(conditioning, key=VariableRef.sort_key)),
            )
        )
    return out


def compare_networks(
    data_a: Dataset,
    data_b: Dataset,
    links: list[LinkStructure],
    settings: InferenceSettings,
    n_perm: int = 500,
    seed: int | None = None,
) -> ComparisonResult:
    """Permutation test of per-link information differences between conditions.

    Links are flagged by Benjamini-Hochberg at ``settings.alpha_fdr``, the
    level ``n_perm`` must be able to reach. Exchanges are drawn from ``seed``,
    by default ``settings.seed``.
    """
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
    check_permutation_count(n_perm, settings.alpha_fdr)
    seed = settings.seed if seed is None else seed
    data_a = prepare_dataset(data_a, settings)
    data_b = prepare_dataset(data_b, settings)

    r_a, r_b = data_a.n_replications, data_b.n_replications
    total = r_a + r_b
    comparisons: list[LinkComparison] = []
    for link_no, structure in enumerate(sorted(links, key=lambda l: (l.target, l.source))):
        variables = structure.source_vars + structure.conditioning
        max_lag = max(v.lag for v in variables)
        estimator = make_estimator(settings, data_a, structure.target)
        a, b = (embed(d, structure.target, variables, max_lag=max_lag) for d in (data_a, data_b))
        lagged = np.concatenate([a.lagged, b.lagged])
        n_x = len(structure.source_vars)
        blocks = a.blocks + tuple((start + a.n_rows, stop + a.n_rows) for start, stop in b.blocks)
        # Order 0 is the identity, the observed split; the others are exchanges.
        orders = np.tile(np.arange(total), (n_perm + 1, 1))
        orders[1:] = rng_for(seed, PHASE_COMPARE, link_no).permuted(orders[1:], axis=1)
        groups = [ids for order in orders for ids in (order[:r_a], order[r_a:])]
        x, y, z = lagged[:, :n_x], np.concatenate([a.present, b.present]), lagged[:, n_x:]
        values = estimator.group_cmis(x, y, z, blocks, groups)
        stat_a, stat_b = float(values[0]), float(values[1])
        delta = stat_a - stat_b
        comparisons.append(
            LinkComparison(
                source=structure.source,
                target=structure.target,
                statistic_a=stat_a,
                statistic_b=stat_b,
                delta_bits=delta,
                p_value=permutation_pvalue(abs(delta), np.abs(values[2::2] - values[3::2])),
                fdr_significant=False,
            )
        )

    mask = fdr_correct([c.p_value for c in comparisons], alpha=settings.alpha_fdr)
    out = tuple(replace(c, fdr_significant=bool(flag)) for c, flag in zip(comparisons, mask))
    return ComparisonResult(links=out, n_permutations=n_perm, alpha=settings.alpha_fdr)
