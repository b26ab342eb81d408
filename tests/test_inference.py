"""Greedy network inference: selection, pruning, modes, determinism."""

import hashlib

import numpy as np
import pytest

from infonet import (
    Coupling,
    DegenerateTargetError,
    Dataset,
    GroundTruthSpec,
    InferenceSettings,
    TargetWorkspace,
    VariableRef,
    ais_estimate,
    generate_dataset,
    infer_network,
    infer_target,
    network_to_json,
    prune,
    select_sources,
    select_target_past,
)
from infonet import inference
from infonet.errors import InferenceError, SingularCovarianceError


def _white_noise(n_processes, n_samples, seed):
    return generate_dataset(
        GroundTruthSpec(n_processes=n_processes, n_samples=n_samples, seed=seed)
    )


def _coupled(seed, n=3000, coeff=0.6, lag=2):
    return generate_dataset(
        GroundTruthSpec(
            n_processes=2,
            n_samples=n,
            topology=(Coupling(0, 1, lag, coeff),),
            seed=seed,
        )
    )


class TestSettings:
    def test_defaults_valid(self):
        s = InferenceSettings()
        assert s.mode == "multivariate_te"
        assert s.is_te_mode and not s.is_bivariate

    def test_unknown_mode(self):
        with pytest.raises(InferenceError):
            InferenceSettings(mode="sideways_te")

    def test_bad_lags(self):
        with pytest.raises(InferenceError):
            InferenceSettings(min_lag_sources=0)
        with pytest.raises(InferenceError):
            InferenceSettings(max_lag_sources=2, min_lag_sources=3)

    def test_roundtrip_dict(self):
        s = InferenceSettings(mode="bivariate_mi", seed=7)
        assert InferenceSettings.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(InferenceError):
            InferenceSettings.from_dict({"modes": "typo"})

    # Each permutation count with the level of the tests it runs: the
    # sequential steps are max-statistic tests.
    _COUNTS = [
        ("n_perm_max", "alpha_max"),
        ("n_perm_min", "alpha_min"),
        ("n_perm_omnibus", "alpha_omnibus"),
        ("n_perm_seq", "alpha_max"),
    ]

    @pytest.mark.parametrize("key, alpha", _COUNTS)
    @pytest.mark.parametrize("n_perm", [0, 10, 19])
    def test_count_that_cannot_reject_is_rejected_naming_the_key(self, key, alpha, n_perm):
        with pytest.raises(InferenceError, match=f"^{key} at {alpha}: "):
            InferenceSettings(**{key: n_perm})

    @pytest.mark.parametrize("key, alpha", _COUNTS)
    def test_count_is_checked_at_its_own_level(self, key, alpha):
        InferenceSettings(**{key: 20})
        InferenceSettings(**{key: 100, alpha: 0.01})  # p can reach 1/101 < 0.01
        with pytest.raises(InferenceError, match=f"^{key} at {alpha}: 100 permutations"):
            InferenceSettings(**{key: 100, alpha: 0.0099})


class TestTargetPast:
    def test_ar_process_selects_lag_one(self):
        ds = generate_dataset(
            GroundTruthSpec(
                n_processes=1,
                n_samples=8000,
                topology=(Coupling(0, 0, 1, 0.8),),
                seed=1,
            )
        )
        past = select_target_past(TargetWorkspace(ds, 0, InferenceSettings(seed=2)))
        assert VariableRef(0, 1) in past

    def test_white_noise_mostly_empty(self):
        hits = 0
        for seed in range(10):
            ds = _white_noise(1, 1500, 100 + seed)
            past = select_target_past(TargetWorkspace(ds, 0, InferenceSettings(seed=seed)))
            hits += bool(past)
        assert hits <= 3

    def test_mi_mode_skips(self):
        ds = _white_noise(2, 500, 3)
        ws = TargetWorkspace(ds, 0, InferenceSettings(mode="multivariate_mi"))
        assert ws.past_pool == []
        past = select_target_past(ws)
        assert past == []

    def test_period_two_binary_selects_and_recovers_one_bit(self):
        from infonet import embed, plugin_cmi

        values = np.tile([0.0, 1.0], 300)[np.newaxis, :, np.newaxis]
        ds = Dataset(values=values, kind="discrete", alphabet_size=2)
        settings = InferenceSettings(estimator="discrete", seed=4)
        past = select_target_past(TargetWorkspace(ds, 0, settings))
        assert VariableRef(0, 1) in past
        real = embed(ds, 0, past, max_lag=5)
        info = plugin_cmi(real.lagged, real.present, None)
        # the odd-length valid window splits symbols 298/297, hence the slack
        assert info.value == pytest.approx(1.0, abs=1e-4)

    def test_noisy_alternation_selected(self):
        # a phase-slipping alternation decorrelates under rotation and is found
        rng = np.random.default_rng(44)
        x = np.zeros(4000, dtype=np.int64)
        for t in range(1, 4000):
            x[t] = 1 - x[t - 1] if rng.uniform() < 0.95 else x[t - 1]
        ds = Dataset(
            values=x.astype(float)[np.newaxis, :, np.newaxis],
            kind="discrete",
            alphabet_size=2,
        )
        settings = InferenceSettings(estimator="discrete", seed=5)
        past = select_target_past(TargetWorkspace(ds, 0, settings))
        assert VariableRef(0, 1) in past


class TestSourceSelection:
    def test_independent_processes_mostly_empty(self):
        hits = 0
        for seed in range(10):
            ds = _white_noise(2, 1200, 200 + seed)
            selected = select_sources(TargetWorkspace(ds, 1, InferenceSettings(seed=seed)), [])
            hits += bool(selected)
        assert hits <= 3

    def test_known_coupling_found(self):
        ds = _coupled(5, n=8000)
        ws = TargetWorkspace(ds, 1, InferenceSettings(seed=6))
        past = select_target_past(ws)
        selected = select_sources(ws, past)
        assert VariableRef(0, 2) in selected

    def test_redundant_duplicate_source(self):
        # process 1 is a tight copy of process 0; multivariate keeps one,
        # bivariate reports variables from both
        topo = (Coupling(0, 1, 1, 0.95), Coupling(0, 2, 2, 0.5))
        ds = generate_dataset(
            GroundTruthSpec(n_processes=3, n_samples=10000, topology=topo, seed=7)
        )
        multi = infer_target(ds, 2, InferenceSettings(seed=8))
        multi_procs = {s.variable.process for s in multi.selected_sources}
        assert multi_procs == {0}
        bi = infer_target(ds, 2, InferenceSettings(mode="bivariate_te", seed=8))
        bi_procs = {s.variable.process for s in bi.selected_sources}
        assert bi_procs == {0, 1}


class TestPrune:
    def test_empty_input(self):
        ds = _white_noise(2, 500, 9)
        assert prune(TargetWorkspace(ds, 1, InferenceSettings()), [], []) == []

    def test_genuine_source_survives(self):
        ds = _coupled(10, n=6000)
        ws = TargetWorkspace(ds, 1, InferenceSettings(seed=11))
        survivors = prune(ws, [VariableRef(0, 2)], [])
        assert survivors == [VariableRef(0, 2)]

    def test_forced_noise_pruned(self):
        pruned_away = 0
        for seed in range(8):
            ds = _white_noise(2, 1000, 300 + seed)
            ws = TargetWorkspace(ds, 1, InferenceSettings(seed=seed))
            survivors = prune(ws, [VariableRef(0, 1), VariableRef(0, 4)], [])
            pruned_away += not survivors
        assert pruned_away >= 6


class TestPublicSteps:
    """infer_target and ais_estimate run the public steps on one workspace."""

    _settings = dict(
        seed=41, n_perm_max=50, n_perm_min=50, n_perm_omnibus=50, n_perm_seq=50,
        max_lag_sources=3, max_lag_target=3,
    )

    @staticmethod
    def _dataset():
        topo = (Coupling(2, 2, 1, 0.4), Coupling(0, 2, 1, 0.5), Coupling(1, 2, 2, 0.4))
        return generate_dataset(
            GroundTruthSpec(n_processes=3, n_samples=1500, topology=topo, seed=40)
        )

    @pytest.mark.parametrize("mode", ["multivariate_te", "bivariate_te"])
    def test_steps_reproduce_infer_target(self, mode):
        ds = self._dataset()
        settings = InferenceSettings(mode=mode, **self._settings)
        ws = TargetWorkspace(ds, 2, settings)
        past = select_target_past(ws)
        pruned = prune(ws, select_sources(ws, past), past)
        result = infer_target(ds, 2, settings)
        assert tuple(past) == result.selected_target_past
        if result.omnibus.significant:
            chosen = [s.variable for s in result.selected_sources]
            assert sorted(pruned, key=VariableRef.sort_key) == sorted(
                chosen, key=VariableRef.sort_key
            )
        else:
            assert result.selected_sources == ()
        # both source processes survive, so the bivariate groups both ran
        assert {v.process for v in pruned} == {0, 1}

    @pytest.mark.parametrize("mode", ["multivariate_te", "multivariate_mi"])
    def test_ais_embedding_is_the_target_past_step(self, mode):
        ds = self._dataset()
        settings = InferenceSettings(mode=mode, **self._settings)
        ws = TargetWorkspace(ds, 2, settings, include_sources=False)
        assert ws.source_pool == []
        expected = sorted(select_target_past(ws), key=VariableRef.sort_key)
        assert expected
        assert ais_estimate(ds, 2, settings).selected_embedding == tuple(expected)


class TestInferTarget:
    def test_noise_system_empty(self):
        ds = _white_noise(3, 1500, 12)
        result = infer_target(ds, 0, InferenceSettings(seed=13))
        if not result.selected_sources:
            assert result.per_source_delay == {}
            assert not result.omnibus.significant or result.omnibus.p_value == 1.0

    def test_delay_reported(self):
        ds = generate_dataset(
            GroundTruthSpec(
                n_processes=2,
                n_samples=8000,
                topology=(Coupling(0, 1, 3, 0.6),),
                seed=14,
            )
        )
        result = infer_target(ds, 1, InferenceSettings(seed=15))
        assert result.per_source_delay[0] == 3

    def test_degenerate_target(self):
        values = np.zeros((2, 100, 1))
        values[0, :, 0] = np.random.default_rng(16).normal(size=100)
        ds = Dataset(values=values)
        with pytest.raises(DegenerateTargetError):
            infer_target(ds, 1, InferenceSettings(normalize=False))

    def test_no_valid_samples_after_max_lag(self):
        from infonet import InsufficientSamplesError

        rng = np.random.default_rng(17)
        ds = Dataset(values=rng.normal(size=(2, 4, 1)))
        with pytest.raises(InsufficientSamplesError):
            infer_target(ds, 1, InferenceSettings())  # max lag 5 > 4 samples

    def test_omnibus_gate_clears_sources(self):
        ds = _coupled(17, n=5000)
        result = infer_target(ds, 1, InferenceSettings(seed=18))
        if result.selected_sources:
            assert result.omnibus.significant
        sources = {s.variable.process for s in result.selected_sources}
        assert result.per_source_delay.keys() == sources

    def test_no_self_loops(self):
        ds = _coupled(19, n=4000)
        result = infer_target(ds, 1, InferenceSettings(seed=20))
        assert all(s.variable.process != 1 for s in result.selected_sources)


class TestConstantProcess:
    """A constant process carries no information as a source and is a typed error as a target."""

    _settings = InferenceSettings(
        seed=31, n_perm_max=50, n_perm_min=50, n_perm_omnibus=50, n_perm_seq=50
    )

    @staticmethod
    def _dataset():
        values = _coupled(30, n=1500).values
        constant = np.full((1, values.shape[1], 1), 4.0)
        return Dataset(values=np.concatenate([values, constant]))

    def test_constant_source_is_never_selected(self):
        result = infer_target(self._dataset(), 1, self._settings)
        assert all(s.variable.process != 2 for s in result.selected_sources)
        assert result.per_source_delay == {0: 2}

    def test_network_names_the_constant_target(self):
        with pytest.raises(DegenerateTargetError, match="process 2"):
            infer_network(self._dataset(), self._settings)

    def test_network_fails_before_any_target_runs(self, monkeypatch):
        calls = []
        run_target = inference.infer_target

        def counting(*args, **kwargs):
            calls.append(args[1])
            return run_target(*args, **kwargs)

        monkeypatch.setattr(inference, "infer_target", counting)
        with pytest.raises(DegenerateTargetError, match="process 2"):
            infer_network(self._dataset(), self._settings)
        assert calls == []


class TestInferNetwork:
    def test_single_process_empty_network(self):
        ds = _white_noise(1, 800, 21)
        net = infer_network(ds, InferenceSettings(seed=22))
        assert net.links == ()
        assert net.n_links_tested == 0
        for mode in ("multivariate_mi", "bivariate_mi"):
            net_mi = infer_network(ds, InferenceSettings(mode=mode, seed=23))
            assert net_mi.links == ()

    def test_two_process_link(self):
        ds = _coupled(24, n=6000)
        net = infer_network(ds, InferenceSettings(seed=25))
        found = {(l.source, l.target) for l in net.adjacency}
        assert found == {(0, 1)}
        link = net.adjacency[0]
        assert link.delay == 2
        assert link.weight_bits > 0.05

    def test_thread_count_invariance(self):
        ds = _coupled(26, n=2500)
        settings = InferenceSettings(seed=27)
        net1 = infer_network(ds, settings, threads=1)
        net4 = infer_network(ds, settings, threads=4)
        assert net1 == net4

    def test_mode_reduction_two_processes(self):
        # on 2-process data the multivariate and bivariate pools coincide
        ds = _coupled(28, n=3000)
        multi = infer_network(ds, InferenceSettings(seed=29))
        bi = infer_network(ds, InferenceSettings(mode="bivariate_te", seed=29))
        multi_sets = [
            {s.variable for s in t.selected_sources} for t in multi.targets
        ]
        bi_sets = [{s.variable for s in t.selected_sources} for t in bi.targets]
        assert multi_sets == bi_sets

    def test_mi_modes_run(self):
        ds = _coupled(30, n=4000)
        for mode in ("multivariate_mi", "bivariate_mi"):
            net = infer_network(ds, InferenceSettings(mode=mode, seed=31))
            found = {(l.source, l.target) for l in net.adjacency}
            assert (0, 1) in found
            # MI modes never condition on the target's own past
            assert all(t.selected_target_past == () for t in net.targets)

    def test_deterministic_repeat(self):
        ds = _coupled(32, n=2000)
        settings = InferenceSettings(seed=33)
        assert infer_network(ds, settings) == infer_network(ds, settings)


class TestFailedTarget:
    """A failing target stops the run with its own error type, named by target."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_names_the_target(self, monkeypatch, threads):
        run_prune = inference.prune

        def failing(ws, selected, conditioning):
            if ws.target == 1:
                raise SingularCovarianceError("conditioning covariance is singular")
            return run_prune(ws, selected, conditioning)

        monkeypatch.setattr(inference, "prune", failing)
        settings = InferenceSettings(
            seed=33, n_perm_max=50, n_perm_min=50, n_perm_omnibus=50, n_perm_seq=50
        )
        with pytest.raises(
            SingularCovarianceError, match="^target 1: conditioning covariance is singular$"
        ):
            infer_network(_white_noise(3, 600, 32), settings, threads=threads)


    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected_before_any_target(self, monkeypatch, threads):
        ran = []
        monkeypatch.setattr(inference, "infer_target", lambda *args: ran.append(args))
        with pytest.raises(InferenceError, match=f"^threads must be >= 1, got {threads}$"):
            infer_network(_white_noise(3, 100, 34), InferenceSettings(), threads=threads)
        assert ran == []


class TestEstimatorAgreement:
    def test_gaussian_vs_knn_on_linear_data(self):
        # scaled-down agreement check on a strongly coupled pair
        ds = _coupled(34, n=1200, coeff=0.7)
        gaussian = InferenceSettings(seed=35, n_perm_max=50, n_perm_min=50,
                                     n_perm_omnibus=100, n_perm_seq=50,
                                     alpha_max=0.1, alpha_min=0.1, alpha_omnibus=0.1,
                                     max_lag_sources=3, max_lag_target=3)
        knn = InferenceSettings(estimator="knn", seed=35, n_perm_max=50,
                                n_perm_min=50, n_perm_omnibus=100, n_perm_seq=50,
                                alpha_max=0.1, alpha_min=0.1, alpha_omnibus=0.1,
                                max_lag_sources=3, max_lag_target=3)
        net_g = infer_network(ds, gaussian)
        net_k = infer_network(ds, knn)
        links_g = {(l.source, l.target) for l in net_g.adjacency}
        links_k = {(l.source, l.target) for l in net_k.adjacency}
        assert len(links_g ^ links_k) <= 1

    def test_discrete_estimator_network(self):
        topo = (Coupling(0, 1, 1, 0.4),)
        ds = generate_dataset(
            GroundTruthSpec(
                n_processes=2,
                n_samples=6000,
                topology=topo,
                generator="logistic_map_network",
                binarize=True,
                seed=36,
            )
        )
        settings = InferenceSettings(
            estimator="discrete", seed=37, max_lag_sources=2, max_lag_target=2
        )
        net = infer_network(ds, settings)
        found = {(l.source, l.target) for l in net.adjacency}
        assert (0, 1) in found


class TestPinnedNetwork:
    """Exact outputs of small analyses: network JSON pinned by its sha256.

    A refactor that claims identical results must keep every pin. A change
    of the random streams or of the estimator's rounding moves them on
    purpose, and the new values are then pinned here.
    """

    TOPOLOGY = (Coupling(0, 1, 2, 0.5), Coupling(1, 2, 1, 0.5))

    @staticmethod
    def _digest(net) -> str:
        return hashlib.sha256(network_to_json(net).encode()).hexdigest()

    @pytest.mark.parametrize(
        "surrogate, replications, seed, digest",
        [
            (
                "circular_shift",
                1,
                31,
                "21d941521e42f492e934e400859367e1ca995f24711f1e14c4137b1355e3d85f",
            ),
            (
                "replication_shuffle",
                6,
                32,
                "d22ae74624a3095d2b7b57c2d50b6f42fe984671667e607a0b7d6cfe4d769dba",
            ),
        ],
    )
    def test_json_digest(self, surrogate, replications, seed, digest):
        spec = GroundTruthSpec(
            n_processes=3,
            n_samples=300 // replications,
            n_replications=replications,
            topology=self.TOPOLOGY,
            seed=seed,
        )
        net = infer_network(generate_dataset(spec), InferenceSettings(surrogate=surrogate, seed=33))
        assert {(l.source, l.target) for l in net.adjacency} == {(0, 1), (1, 2)}
        assert self._digest(net) == digest

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("bivariate_te", "95ac8b1e8de83bb3292667735ddead138d26379d5f68f4e60eabb40bb71347da"),
            ("multivariate_mi", "4b74872e0a6dc3c037ab7a31d23f7a957a8ac229a3b96295cf394c87c4e5af40"),
        ],
    )
    def test_mode_digest(self, mode, digest):
        spec = GroundTruthSpec(n_processes=3, n_samples=300, topology=self.TOPOLOGY, seed=31)
        net = infer_network(generate_dataset(spec), InferenceSettings(mode=mode, seed=33))
        assert self._digest(net) == digest

    def test_bivariate_step_seeds_continue_across_groups(self):
        # Target 1's second source group gets p = 6/201 from the step seeds
        # that continue after the first group; restarted seeds give 16/201.
        topology = self.TOPOLOGY + (Coupling(0, 2, 1, 0.5),)
        spec = GroundTruthSpec(n_processes=3, n_samples=300, topology=topology, seed=31)
        settings = InferenceSettings(mode="bivariate_te", seed=33)
        net = infer_network(generate_dataset(spec), settings)
        assert [s.p_value for s in net.targets[1].selected_sources] == [1 / 201, 6 / 201]
        assert self._digest(net) == (
            "43081e890c278bf5fae0dfd88d61bd7959b6e955104569f8cc52c15823b72dd2"
        )

    def test_knn_digest(self):
        # Target 1 keeps three sources, so the sequential phase takes three steps.
        topology = (Coupling(0, 1, 2, 0.7), Coupling(1, 2, 1, 0.7))
        spec = GroundTruthSpec(n_processes=3, n_samples=150, topology=topology, seed=31)
        settings = InferenceSettings(
            estimator="knn",
            seed=33,
            max_lag_sources=3,
            max_lag_target=2,
            n_perm_max=30,
            n_perm_min=30,
            n_perm_omnibus=30,
            n_perm_seq=30,
            alpha_max=0.1,
            alpha_min=0.1,
            alpha_omnibus=0.1,
            alpha_fdr=0.1,
        )
        net = infer_network(generate_dataset(spec), settings)
        assert len(net.targets[1].selected_sources) == 3
        assert self._digest(net) == (
            "c32176ae02ec5ee94c807b60bbd64354afc60ca70172ff6d45a8849688b20cac"
        )

    def test_discrete_digest(self):
        # Two target-past columns and three source lags: the plug-in CMIs
        # condition on up to four columns.
        spec = GroundTruthSpec(
            n_processes=2,
            n_samples=1000,
            topology=(Coupling(0, 1, 1, 0.4),),
            generator="logistic_map_network",
            binarize=True,
            seed=36,
        )
        settings = InferenceSettings(
            estimator="discrete", seed=37, max_lag_sources=3, max_lag_target=2
        )
        net = infer_network(generate_dataset(spec), settings)
        assert len(net.targets[1].selected_sources) == 3
        assert self._digest(net) == (
            "c60b7f51522a56923a86f4aceac6fd3e3a19a55e97e8760c228d8ec27a747c8c"
        )

    def test_ais(self):
        topology = (Coupling(0, 0, 1, 0.4), Coupling(0, 0, 3, 0.4))
        spec = GroundTruthSpec(n_processes=1, n_samples=300, topology=topology, seed=31)
        result = ais_estimate(generate_dataset(spec), 0, InferenceSettings(seed=33))
        assert result.selected_embedding == (VariableRef(0, 1), VariableRef(0, 3))
        assert result.value_bits == 0.3140374138652114
        assert result.test.p_value == 0.001996007984031936
