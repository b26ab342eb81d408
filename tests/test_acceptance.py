"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v`; a summary section lists every
criterion with PASS/FAIL. Stochastic criteria use fixed seeds and the stated
run counts and tolerances.
"""

import json

import numpy as np
import pytest
from scipy import stats as sps

from infonet import (
    Coupling,
    GaussianEstimator,
    GroundTruthSpec,
    InferenceSettings,
    KnnSettings,
    SurrogatePolicy,
    VariableRef,
    ais_estimate,
    embed,
    gaussian_cmi,
    gaussian_mi,
    generate_dataset,
    infer_network,
    infer_target,
    knn_cmi,
    knn_mi,
    max_statistic_test,
    normalize,
    pid_williams_beer,
    plugin_cmi,
    plugin_entropy,
)
from infonet.cli import main as cli_main
from infonet.estimators import counts_from_columns
from infonet.neighbors import NeighborIndex
from infonet.pid import JointDistribution3

from conftest import record_criterion


def _check(number: int, passed: bool, detail: str) -> None:
    record_criterion(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


class TestCriterion1GaussianClosedForm:
    def test_correlation_identity(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(20, 400))
            x = rng.normal(size=(n, 1))
            y = rng.uniform(-0.9, 0.9) * x + rng.normal(size=(n, 1))
            r = np.corrcoef(x[:, 0], y[:, 0])[0, 1]
            expected = -0.5 * np.log2(1 - r**2)
            worst = max(worst, abs(gaussian_mi(x, y).value - expected))
        _check(1, worst < 1e-9, f"closed-form identity, worst |err| = {worst:.2e}")


class TestCriterion2KsgAccuracy:
    def test_bivariate_gaussian_oracle(self):
        oracle = {0.0: 0.0, 0.6: 0.3219280948873623, 0.9: 1.1979643381655698}
        report = []
        ok = True
        for rho, analytic in oracle.items():
            hits = 0
            for seed in range(10):
                rng = np.random.default_rng(5000 + seed)
                x = rng.normal(size=(10000, 1))
                y = rho * x + np.sqrt(1 - rho**2) * rng.normal(size=(10000, 1))
                est = knn_mi(x, y, KnnSettings(k=4, seed=seed))
                hits += abs(est.value - analytic) <= 0.05
            report.append(f"rho={rho}: {hits}/10")
            ok = ok and hits >= 9
        _check(2, ok, "; ".join(report))


class TestCriterion3IndexExactness:
    def test_random_batches_match_brute_force(self):
        rng = np.random.default_rng(3)
        mismatches = 0
        for _ in range(100):
            n = int(rng.integers(20, 120))
            dim = int(rng.integers(1, 5))
            points = rng.normal(size=(n, dim))
            index = NeighborIndex(points)
            k = int(rng.integers(1, 5))
            queries = points[rng.integers(0, n, size=10)]
            radii = rng.uniform(0.0, 1.5, size=10)
            brute_d = np.sort(
                np.max(np.abs(points[None, :, :] - queries[:, None, :]), axis=2), axis=1
            )
            # column 0 is the self-match at distance zero
            if not np.array_equal(index.kth_distance(queries, k), brute_d[:, k]):
                mismatches += 1
            brute_counts = np.sum(
                np.max(np.abs(points[None, :, :] - queries[:, None, :]), axis=2)
                < radii[:, None],
                axis=1,
            )
            if not np.array_equal(index.range_count(queries, radii), brute_counts):
                mismatches += 1
        _check(3, mismatches == 0, f"100 batches vs brute force, {mismatches} mismatches")


_RING_LAGS = [1, 2, 3, 1, 2]
_RING = tuple(Coupling(i, (i + 1) % 5, _RING_LAGS[i], 0.5) for i in range(5))


class TestCriterion4NetworkRecovery:
    def test_ring_recovered_after_fdr(self):
        true_links = {(c.source, c.target) for c in _RING}
        perfect = 0
        for seed in range(20):
            ds = generate_dataset(
                GroundTruthSpec(n_processes=5, n_samples=10000, topology=_RING, seed=seed)
            )
            net = infer_network(ds, InferenceSettings(seed=seed))
            found = {(l.source, l.target) for l in net.adjacency}
            perfect += found == true_links
        _check(4, perfect >= 18, f"precision=recall=1.0 in {perfect}/20 runs")


class TestCriterion5DelayRecovery:
    def test_lag_three_link(self):
        hits = 0
        for seed in range(20):
            ds = generate_dataset(
                GroundTruthSpec(
                    n_processes=2,
                    n_samples=10000,
                    topology=(Coupling(0, 1, 3, 0.6),),
                    seed=seed,
                )
            )
            result = infer_target(ds, 1, InferenceSettings(seed=seed))
            hits += result.per_source_delay.get(0) == 3
        _check(5, hits >= 18, f"delay 3 reported in {hits}/20 runs")


class TestCriterion6FalsePositiveControl:
    def test_white_noise_network(self):
        runs = 100
        with_links = 0
        for seed in range(runs):
            ds = generate_dataset(
                GroundTruthSpec(n_processes=5, n_samples=2000, seed=1000 + seed)
            )
            net = infer_network(ds, InferenceSettings(seed=2000 + seed))
            with_links += len(net.adjacency) > 0
        fraction = with_links / runs
        _check(6, fraction <= 0.12, f"{with_links}/{runs} runs with a surviving link")


class TestCriterion7RedundancyElimination:
    def test_duplicated_source(self):
        topo = (Coupling(0, 1, 1, 0.95), Coupling(0, 2, 2, 0.5))
        ok = 0
        for seed in range(10):
            ds = generate_dataset(
                GroundTruthSpec(n_processes=3, n_samples=10000, topology=topo, seed=seed)
            )
            multi = infer_target(ds, 2, InferenceSettings(seed=seed))
            bi = infer_target(ds, 2, InferenceSettings(mode="bivariate_te", seed=seed))
            multi_procs = {s.variable.process for s in multi.selected_sources}
            bi_procs = {s.variable.process for s in bi.selected_sources}
            ok += (len(multi_procs & {0, 1}) == 1) and bi_procs >= {0, 1}
        _check(7, ok == 10, f"one-duplicate multivariate / both bivariate in {ok}/10 runs")


class TestCriterion8StorageOracle:
    def test_ar1_value(self):
        ds = generate_dataset(
            GroundTruthSpec(
                n_processes=1,
                n_samples=10000,
                topology=(Coupling(0, 0, 1, 0.8),),
                seed=97,
            )
        )
        result = ais_estimate(ds, 0, InferenceSettings(seed=81))
        analytic = 0.7369655941662062
        err = abs(result.value_bits - analytic)
        _check(8, err <= 0.02, f"AR(1) storage err {err:.4f} bits (<= 0.02)")

    def test_iid_empty_embedding(self):
        empties = 0
        for seed in range(20):
            ds = generate_dataset(
                GroundTruthSpec(n_processes=1, n_samples=2000, seed=seed)
            )
            result = ais_estimate(ds, 0, InferenceSettings(seed=seed))
            empties += len(result.selected_embedding) == 0
        record_criterion(8, empties >= 18, f"i.i.d. empty embedding in {empties}/20 runs")
        assert empties >= 18


def _gate(fn):
    probs = np.zeros((2, 2, 2))
    for s1 in (0, 1):
        for s2 in (0, 1):
            probs[s1, s2, fn(s1, s2)] += 0.25
    return JointDistribution3(probs)


class TestCriterion9PidGateCorpus:
    def test_gates(self):
        xor = pid_williams_beer(_gate(lambda a, b: a ^ b))
        copy = pid_williams_beer(_gate(lambda a, b: a))
        gate_and = pid_williams_beer(_gate(lambda a, b: a & b))
        # brute-force oracle values for the AND gate
        and_redundancy = 0.3112781244591328
        checks = [
            abs(xor.redundancy), abs(xor.unique_1), abs(xor.unique_2), abs(xor.synergy - 1.0),
            abs(copy.redundancy), abs(copy.unique_1 - 1.0), abs(copy.unique_2), abs(copy.synergy),
            abs(gate_and.redundancy - and_redundancy), abs(gate_and.unique_1),
            abs(gate_and.unique_2), abs(gate_and.synergy - 0.5),
        ]
        worst = max(checks)
        _check(9, worst < 1e-6, f"XOR/COPY/AND atoms, worst |err| = {worst:.2e}")


class TestCriterion10LocalAverageIdentity:
    def test_every_estimator(self):
        rng = np.random.default_rng(10)
        worst = 0.0

        def gap(value, local):
            return abs(np.mean(local) - value) / max(abs(value), 1e-12)

        for _ in range(50):
            n = 300
            z = rng.normal(size=(n, 1))
            x = 0.8 * z + rng.normal(size=(n, 1))
            y = 0.5 * x + 0.3 * z + rng.normal(size=(n, 1))
            g_mi = gaussian_mi(x, y)
            g_cmi = gaussian_cmi(x, y, z)
            worst = max(worst, gap(g_mi.value, g_mi.local), gap(g_cmi.value, g_cmi.local))
            k_mi = knn_mi(x, y, KnnSettings(k=4, seed=int(rng.integers(1 << 31))))
            k_cmi = knn_cmi(x, y, z, KnnSettings(k=4, seed=int(rng.integers(1 << 31))))
            worst = max(worst, gap(k_mi.value, k_mi.local), gap(k_cmi.value, k_cmi.local))
            xd = rng.integers(0, 3, size=(n, 1))
            yd = (xd + rng.integers(0, 2, size=(n, 1))) % 3
            zd = rng.integers(0, 3, size=(n, 1))
            d_cmi = plugin_cmi(xd, yd, zd, alphabet_size=3)
            d_ent = plugin_entropy(counts_from_columns(np.column_stack([xd, yd]), (3, 3)))
            worst = max(worst, gap(d_cmi.value, d_cmi.local), gap(d_ent.value, d_ent.local))
        _check(10, worst < 1e-10, f"50 inputs x 6 estimators, worst rel gap {worst:.2e}")


class TestCriterion11PvalueUniformity:
    def test_max_statistic_null_distribution(self):
        estimator = GaussianEstimator()
        pvals = []
        for seed in range(200):
            ds = normalize(
                generate_dataset(
                    GroundTruthSpec(n_processes=2, n_samples=400, seed=3000 + seed)
                )
            )
            variables = [VariableRef(0, lag) for lag in range(1, 6)]
            real = embed(ds, 1, variables, max_lag=5)
            y = real.present[:, None]
            observed = estimator.candidates_cmi(real.lagged, y, None)
            policy = SurrogatePolicy(method="circular_shift", min_shift=6, seed=seed)
            result = max_statistic_test(
                real.lagged, observed, y, None, real.blocks,
                estimator, policy, 200, 0.05,
            )
            pvals.append(result.p_value)
        ks = sps.kstest(pvals, "uniform")
        _check(11, ks.pvalue > 0.01, f"KS uniformity p = {ks.pvalue:.3f} over 200 runs")


class TestCriterion12Determinism:
    def test_thread_count_byte_identity(self, tmp_path):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(
            json.dumps(
                {
                    "n_processes": 3,
                    "n_samples": 1500,
                    "topology": [[0, 1, 2, 0.6], [1, 2, 1, 0.5]],
                    "seed": 12,
                    "output_prefix": str(tmp_path / "data"),
                }
            )
        )
        assert cli_main(["generate", "--config", str(gen_cfg)]) == 0
        infer_cfg = tmp_path / "infer.json"
        infer_cfg.write_text(
            json.dumps({"input": str(tmp_path / "data_rep0.csv"), "seed": 13})
        )
        out1, out8 = tmp_path / "t1.json", tmp_path / "t8.json"
        assert cli_main(["infer", "--config", str(infer_cfg), "--threads", "1",
                         "--output", str(out1)]) == 0
        assert cli_main(["infer", "--config", str(infer_cfg), "--threads", "8",
                         "--output", str(out8)]) == 0
        identical = out1.read_bytes() == out8.read_bytes()
        _check(12, identical, "threads 1 vs 8 produce byte-identical JSON")
