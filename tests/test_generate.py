"""Ground-truth generators: stability, coupling signatures, determinism."""

import hashlib

import numpy as np
import pytest

from infonet import (
    Coupling,
    DataError,
    GroundTruthSpec,
    UnstableProcessError,
    companion_spectral_radius,
    generate_dataset,
    ground_truth_links,
)


def _lagged_crosscorr(x, y, lag):
    """corr(x_{t-lag}, y_t)."""
    return np.corrcoef(x[:-lag], y[lag:])[0, 1]


class TestGaussianAr:
    def test_empty_topology_is_white_noise(self):
        ds = generate_dataset(GroundTruthSpec(n_processes=3, n_samples=5000, seed=1))
        for i in range(3):
            for j in range(i + 1, 3):
                r = np.corrcoef(ds.values[i, :, 0], ds.values[j, :, 0])[0, 1]
                assert abs(r) < 0.05

    def test_lagged_crosscorrelation_peaks_at_true_lag(self):
        spec = GroundTruthSpec(
            n_processes=2,
            n_samples=20000,
            topology=(Coupling(0, 1, 2, 0.9),),
            seed=2,
        )
        ds = generate_dataset(spec)
        x, y = ds.values[0, :, 0], ds.values[1, :, 0]
        at_lag = {lag: abs(_lagged_crosscorr(x, y, lag)) for lag in (1, 2, 3, 4)}
        assert max(at_lag, key=at_lag.get) == 2
        assert at_lag[2] > 0.5

    def test_unstable_topology_rejected(self):
        with pytest.raises(UnstableProcessError):
            GroundTruthSpec(
                n_processes=1,
                n_samples=100,
                topology=(Coupling(0, 0, 1, 1.05),),
            )

    def test_spectral_radius_of_ring(self):
        lags = [1, 2, 3, 1, 2]
        topo = tuple(Coupling(i, (i + 1) % 5, lags[i], 0.5) for i in range(5))
        spec = GroundTruthSpec(n_processes=5, n_samples=10, topology=topo)
        assert companion_spectral_radius(spec) < 1.0

    def test_invalid_process_index(self):
        with pytest.raises(DataError):
            GroundTruthSpec(
                n_processes=2, n_samples=100, topology=(Coupling(0, 5, 1, 0.5),)
            )

    def test_deterministic_under_seed(self):
        spec = GroundTruthSpec(
            n_processes=2, n_samples=500, topology=(Coupling(0, 1, 1, 0.4),), seed=9
        )
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        assert np.array_equal(a.values, b.values)

    def test_replications_independent(self):
        spec = GroundTruthSpec(n_processes=1, n_samples=2000, n_replications=2, seed=10)
        ds = generate_dataset(spec)
        r = np.corrcoef(ds.values[0, :, 0], ds.values[0, :, 1])[0, 1]
        assert abs(r) < 0.06
        assert not np.array_equal(ds.values[0, :, 0], ds.values[0, :, 1])


class TestLogisticMap:
    def test_values_in_unit_interval(self):
        spec = GroundTruthSpec(
            n_processes=2,
            n_samples=3000,
            topology=(Coupling(0, 1, 1, 0.3),),
            generator="logistic_map_network",
            seed=11,
        )
        ds = generate_dataset(spec)
        assert ds.values.min() >= 0.0
        assert ds.values.max() <= 1.0

    def test_binarized_is_discrete(self):
        spec = GroundTruthSpec(
            n_processes=2,
            n_samples=1000,
            topology=(Coupling(0, 1, 1, 0.3),),
            generator="logistic_map_network",
            binarize=True,
            seed=12,
        )
        ds = generate_dataset(spec)
        assert ds.kind == "discrete"
        assert ds.alphabet_size == 2
        assert set(np.unique(ds.values)) <= {0.0, 1.0}

    def test_excessive_coupling_rejected(self):
        with pytest.raises(UnstableProcessError):
            GroundTruthSpec(
                n_processes=2,
                n_samples=100,
                topology=(Coupling(0, 1, 1, 0.7), Coupling(1, 1, 2, 0.5)),
                generator="logistic_map_network",
            )


class TestGroundTruth:
    def test_link_schema(self):
        spec = GroundTruthSpec(
            n_processes=2, n_samples=100, topology=(Coupling(0, 1, 3, 0.5),)
        )
        links = ground_truth_links(spec)
        assert links == [{"source": 0, "target": 1, "lag": 3, "coefficient": 0.5}]


class TestPinnedData:
    """Exact generated values, pinned by the sha256 of ``Dataset.values``.

    A change to a generator's loop that claims identical data must keep
    every pin; only a deliberate change of the random streams or of the
    arithmetic moves them.
    """

    EIGHT = tuple(
        Coupling(s, t, lag, 0.4)
        for s, t, lag in (
            (0, 4, 1), (1, 4, 2), (1, 5, 3), (2, 5, 1), (2, 6, 2), (3, 6, 3), (3, 7, 1), (0, 7, 2)
        )
    )
    SPECS = {
        "ar": dict(n_processes=8, n_samples=1500, topology=EIGHT, seed=41),
        "ar_replications": dict(
            n_processes=3,
            n_samples=100,
            n_replications=24,
            topology=(Coupling(0, 0, 1, 0.5), Coupling(1, 0, 1, 0.4), Coupling(1, 2, 2, 0.4)),
            seed=42,
        ),
        "logistic": dict(
            n_processes=3,
            n_samples=800,
            topology=(Coupling(0, 1, 1, 0.3), Coupling(1, 2, 2, 0.25)),
            generator="logistic_map_network",
            n_replications=2,
            seed=43,
        ),
        "logistic_binarized": dict(
            n_processes=3,
            n_samples=800,
            topology=(Coupling(0, 1, 1, 0.3), Coupling(1, 2, 2, 0.25)),
            generator="logistic_map_network",
            binarize=True,
            seed=44,
        ),
        "empty": dict(n_processes=2, n_samples=300, n_replications=3, seed=45),
    }

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("ar", "aaec5d242867cb4aca5007b5af2893ecc3fac5cce39ce5eb2ebecae0029742ee"),
            ("ar_replications", "37b9118056b1f9cc644761662ac1feef46e5ce8b23d0a7756fa5230b45457739"),
            ("logistic", "7e3ab1188778e9e9dbb7fa80a46dd1eaac0e53d08016f4a1fb7a5cda141fb506"),
            ("logistic_binarized", "ff828be5d550154e9f42f322dd7bf597dbc9292f1edf0c2807c2309bc5b740f4"),
            ("empty", "55e2c296c1733351ce84d4510339f6a93a96341426dd0f6a24e63a0490c5229c"),
        ],
    )
    def test_values_digest(self, name, digest):
        spec = GroundTruthSpec(**self.SPECS[name])
        values = generate_dataset(spec).values
        assert values.shape == (spec.n_processes, spec.n_samples, spec.n_replications)
        assert hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest() == digest
