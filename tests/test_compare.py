"""Group comparison: exchange null conventions and effect detection."""

import numpy as np
import pytest

from infonet import (
    Coupling,
    Dataset,
    EmptyLinkSetError,
    GroundTruthSpec,
    InferenceSettings,
    Link,
    LinkStructure,
    NetworkResult,
    SelectedSource,
    TargetResult,
    VariableRef,
    compare_networks,
    generate_dataset,
    infer_network,
    union_link_structures,
)
from infonet import stats
from infonet.errors import DataError, InsufficientReplicationsError


def _condition(coeff, seed, n_rep=12, n=400):
    topology = (Coupling(0, 1, 2, coeff),) if coeff else ()
    return generate_dataset(
        GroundTruthSpec(
            n_processes=2,
            n_samples=n,
            n_replications=n_rep,
            topology=topology,
            seed=seed,
        )
    )


def _link() -> LinkStructure:
    return LinkStructure(
        source=0,
        target=1,
        delay=2,
        source_vars=(VariableRef(0, 2),),
        conditioning=(VariableRef(1, 1),),
    )


class TestCompare:
    def test_identical_data_gives_p_one(self):
        ds = _condition(0.6, seed=50)
        result = compare_networks(ds, ds, [_link()], InferenceSettings(), n_perm=100, seed=1)
        link = result.links[0]
        assert link.delta_bits == 0.0
        assert link.p_value == 1.0
        assert not link.fdr_significant

    def test_real_difference_detected(self):
        hits = 0
        for seed in range(5):
            data_a = _condition(0.8, seed=100 + seed, n_rep=12, n=420)
            data_b = _condition(0.0, seed=200 + seed, n_rep=12, n=420)
            result = compare_networks(
                data_a, data_b, [_link()], InferenceSettings(), n_perm=200, seed=seed
            )
            link = result.links[0]
            assert link.delta_bits > 0  # A minus B, A is the coupled condition
            hits += link.fdr_significant
        assert hits >= 4

    def test_exchange_null_valid_under_no_difference(self):
        significant = 0
        runs = 20
        for seed in range(runs):
            data_a = _condition(0.5, seed=300 + seed, n_rep=8, n=250)
            data_b = _condition(0.5, seed=400 + seed, n_rep=8, n=250)
            result = compare_networks(
                data_a, data_b, [_link()], InferenceSettings(), n_perm=100, seed=seed
            )
            significant += result.links[0].fdr_significant
        assert significant <= 4

    def test_empty_link_set_rejected(self):
        ds = _condition(0.5, seed=60)
        with pytest.raises(EmptyLinkSetError):
            compare_networks(ds, ds, [], InferenceSettings())

    def test_mismatched_process_counts(self):
        a = _condition(0.5, seed=61)
        b = generate_dataset(
            GroundTruthSpec(n_processes=3, n_samples=400, n_replications=12, seed=62)
        )
        with pytest.raises(DataError):
            compare_networks(a, b, [_link()], InferenceSettings())

    def test_single_replication_refused(self):
        a = _condition(0.5, seed=63, n_rep=1)
        b = _condition(0.5, seed=64, n_rep=1)
        with pytest.raises(InsufficientReplicationsError):
            compare_networks(a, b, [_link()], InferenceSettings())

    def test_lag_exceeding_data_rejected(self):
        a = _condition(0.5, seed=65, n=10)
        b = _condition(0.5, seed=66, n=10)
        bad = LinkStructure(
            source=0, target=1, delay=30,
            source_vars=(VariableRef(0, 30),), conditioning=(),
        )
        with pytest.raises(DataError):
            compare_networks(a, b, [bad], InferenceSettings())


def _binary_condition(flip_rate, seed, n_rep=6, n=120):
    """Process 1 copies process 0 at lag 2, each copy flipped at ``flip_rate``."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=(2, n, n_rep)).astype(float)
    flip = rng.random((n - 2, n_rep)) < flip_rate
    values[1, 2:] = np.where(flip, 1 - values[0, :-2], values[0, :-2])
    return Dataset(values=values, kind="discrete", alphabet_size=2)


class TestPinnedOutput:
    """kNN and plug-in comparisons pool each group's replications in order.

    The expected values were produced by concatenating the blocks of every
    group in order and calling ``cmi_value`` once per group. The Gaussian
    values come from per-replication moments, with unequal replication
    counts in the two conditions.
    """

    def _single_link(self, data_a, data_b, estimator):
        settings = InferenceSettings(estimator=estimator, seed=3)
        link = compare_networks(data_a, data_b, [_link()], settings, n_perm=40, seed=4).links[0]
        return link.statistic_a, link.statistic_b, link.delta_bits, link.p_value

    def test_knn(self):
        data_a = _condition(0.5, seed=11, n_rep=6, n=100)
        data_b = _condition(0.4, seed=12, n_rep=6, n=100)
        assert self._single_link(data_a, data_b, "knn") == (
            0.14427515141463337,
            0.09953773608184727,
            0.04473741533278611,
            0.43902439024390244,
        )

    def test_discrete(self):
        data_a = _binary_condition(0.35, seed=21)
        data_b = _binary_condition(0.3, seed=22)
        assert self._single_link(data_a, data_b, "discrete") == (
            0.08591860288814314,
            0.11729716324269665,
            -0.03137856035455351,
            0.17073170731707318,
        )


    def test_gaussian_two_links(self):
        back = LinkStructure(
            source=1,
            target=0,
            delay=1,
            source_vars=(VariableRef(1, 1),),
            conditioning=(VariableRef(0, 1), VariableRef(0, 2)),
        )
        data_a = _condition(0.5, seed=31, n_rep=7, n=150)
        data_b = _condition(0.3, seed=32, n_rep=5, n=150)
        settings = InferenceSettings(estimator="gaussian", seed=3)
        result = compare_networks(data_a, data_b, [_link(), back], settings, n_perm=40, seed=4)
        assert [
            (l.source, l.target, l.statistic_a, l.statistic_b, l.delta_bits, l.p_value)
            for l in result.links
        ] == [
            (
                1,
                0,
                0.00019465346855539864,
                8.98213355692201e-05,
                0.00010483213298617855,
                0.6341463414634146,
            ),
            (
                0,
                1,
                0.14824788620646578,
                0.033012304103467824,
                0.11523558210299796,
                0.024390243902439025,
            ),
        ]


class TestUnionStructure:
    def test_union_from_networks(self):
        ds = _condition(0.7, seed=70, n_rep=1, n=6000)
        net = infer_network(ds, InferenceSettings(seed=71))
        links = union_link_structures(net)
        assert len(links) == 1
        link = links[0]
        assert (link.source, link.target) == (0, 1)
        assert VariableRef(0, 2) in link.source_vars

    def test_union_merges_two_networks(self):
        ds_a = _condition(0.7, seed=72, n_rep=1, n=5000)
        ds_b = _condition(0.7, seed=73, n_rep=1, n=5000)
        net_a = infer_network(ds_a, InferenceSettings(seed=74))
        net_b = infer_network(ds_b, InferenceSettings(seed=75))
        links = union_link_structures(net_a, net_b)
        merged = {(l.source, l.target) for l in links}
        separate = {(l.source, l.target) for l in net_a.adjacency} | {
            (l.source, l.target) for l in net_b.adjacency
        }
        assert merged == separate

    def test_links_failing_fdr_stay_out(self):
        # Target 2 selected processes 0 and 1, but only 1 -> 2 survived FDR;
        # a second network reports 0 -> 2 through another lag of process 0.
        a = _hand_built_network({(0, 2): (5, False), (1, 2): (2, True)})
        b = _hand_built_network({(0, 2): (3, True)})
        alone = union_link_structures(a)
        assert [(l.source, l.target, l.delay) for l in alone] == [(1, 2, 2)]
        assert alone[0].source_vars == (VariableRef(1, 2),)
        assert alone[0].conditioning == (VariableRef(2, 1),)
        merged = {(l.source, l.target): l for l in union_link_structures(a, b)}
        assert sorted(merged) == [(0, 2), (1, 2)]
        # Lag 5 of process 0 entered only through a's failing link.
        assert merged[(0, 2)].source_vars == (VariableRef(0, 3),)
        assert merged[(0, 2)].delay == 3
        assert merged[(1, 2)].conditioning == (VariableRef(0, 3), VariableRef(2, 1))


def _hand_built_network(links: dict) -> NetworkResult:
    """Three processes; target 2 selects lag 1 of its past and one lag per source.

    ``links`` maps (source, 2) to (the selected lag, whether the link survives FDR).
    """
    settings = InferenceSettings()
    empty = stats.TestResult(0.0, 1.0, False, 500, 0.05)
    targets = [TargetResult(t, (), (), empty, {}) for t in range(2)]
    targets.append(
        TargetResult(
            target=2,
            selected_target_past=(VariableRef(2, 1),),
            selected_sources=tuple(
                SelectedSource(VariableRef(source, lag), 0.05, 0.005)
                for (source, _), (lag, _) in sorted(links.items())
            ),
            omnibus=stats.TestResult(0.1, 0.002, True, 500, 0.05),
            per_source_delay={source: lag for (source, _), (lag, _) in links.items()},
        )
    )
    reported = tuple(
        Link(source, target, 0.05, lag, 0.005 if survives else 0.04, survives)
        for (source, target), (lag, survives) in sorted(links.items())
    )
    return NetworkResult(tuple(targets), reported, 6, settings)
