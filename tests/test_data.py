"""Data container, ingestion, normalization and embedding behavior."""

import numpy as np
import pytest

from infonet import (
    DataError,
    Dataset,
    InsufficientSamplesError,
    InvalidValueError,
    VariableRef,
    embed,
    load_csv,
    normalize,
)


def _dataset_from_series(series, kind="continuous", alphabet_size=None):
    arr = np.asarray(series, dtype=np.float64)[np.newaxis, :, np.newaxis]
    return Dataset(values=arr, kind=kind, alphabet_size=alphabet_size)


class TestDataset:
    def test_shape_accessors(self):
        ds = Dataset(values=np.zeros((3, 100, 2)))
        assert (ds.n_processes, ds.n_samples, ds.n_replications) == (3, 100, 2)

    def test_rejects_nan(self):
        values = np.zeros((1, 5, 1))
        values[0, 2, 0] = np.nan
        with pytest.raises(InvalidValueError):
            Dataset(values=values)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DataError):
            Dataset(values=np.zeros((3, 100)))

    def test_discrete_requires_alphabet(self):
        with pytest.raises(DataError):
            Dataset(values=np.zeros((1, 5, 1)), kind="discrete")

    def test_discrete_rejects_out_of_alphabet(self):
        with pytest.raises(InvalidValueError):
            Dataset(values=np.full((1, 5, 1), 3.0), kind="discrete", alphabet_size=2)

    def test_discrete_rejects_non_integers(self):
        with pytest.raises(InvalidValueError):
            Dataset(values=np.full((1, 5, 1), 0.5), kind="discrete", alphabet_size=2)

    def test_values_are_immutable(self):
        ds = Dataset(values=np.zeros((1, 5, 1)))
        with pytest.raises(ValueError):
            ds.values[0, 0, 0] = 1.0

    def test_normalized_flag_validated(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DataError):
            Dataset(values=rng.normal(3.0, 2.0, size=(1, 50, 1)), normalized=True)
        ds = normalize(Dataset(values=rng.normal(3.0, 2.0, size=(2, 50, 1))))
        Dataset(values=ds.values, normalized=True)  # standardized data passes


class TestNormalize:
    def test_zscore_basic(self):
        ds = normalize(_dataset_from_series([1.0, 2.0, 3.0]))
        series = ds.series(0, 0)
        assert abs(series.mean()) < 1e-12
        assert abs(series.std(ddof=1) - 1.0) < 1e-12
        assert ds.normalized

    def test_constant_series_zeroed_with_warning(self):
        ds = normalize(_dataset_from_series([5.0, 5.0, 5.0]))
        assert np.all(ds.series(0, 0) == 0.0)
        assert any("constant" in w for w in ds.warnings)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = _dataset_from_series(rng.normal(size=200))
        once = normalize(ds)
        twice = normalize(once)
        assert np.max(np.abs(once.values - twice.values)) < 1e-12

    def test_rejects_discrete(self):
        ds = _dataset_from_series([0, 1, 0, 1], kind="discrete", alphabet_size=2)
        with pytest.raises(DataError):
            normalize(ds)

    def test_every_series_standardized(self):
        rng = np.random.default_rng(1)
        ds = Dataset(values=rng.normal(5.0, 3.0, size=(3, 50, 2)))
        out = normalize(ds)
        for p in range(3):
            for r in range(2):
                s = out.series(p, r)
                assert abs(s.mean()) < 1e-9
                assert abs(s.std(ddof=1) - 1.0) < 1e-9


class TestEmbed:
    def test_single_lag_shift(self):
        ds = _dataset_from_series([10.0, 20.0, 30.0, 40.0])
        real = embed(ds, 0, [VariableRef(0, 1)], max_lag=1)
        assert np.array_equal(real.present, [20.0, 30.0, 40.0])
        assert np.array_equal(real.lagged[:, 0], [10.0, 20.0, 30.0])

    def test_lag_exhausts_replication(self):
        ds = _dataset_from_series([1.0, 2.0, 3.0])
        with pytest.raises(InsufficientSamplesError):
            embed(ds, 0, [VariableRef(0, 3)])

    def test_row_count_formula(self):
        rng = np.random.default_rng(2)
        ds = Dataset(values=rng.normal(size=(2, 40, 2)))
        for max_lag in range(1, 40):
            real = embed(ds, 0, [VariableRef(1, 1)], max_lag=max_lag)
            assert real.n_rows == 2 * (40 - max_lag)

    def test_rows_stay_within_replications(self):
        values = np.zeros((1, 10, 2))
        values[0, :, 0] = np.arange(10)
        values[0, :, 1] = np.arange(100, 110)
        ds = Dataset(values=values)
        real = embed(ds, 0, [VariableRef(0, 2)], max_lag=2)
        first = real.replication_of_row == 0
        assert real.lagged[first, 0].max() < 100
        assert real.lagged[~first, 0].min() >= 100

    def test_shift_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=60)
        ds = _dataset_from_series(series)
        for lag in (1, 3, 7):
            real = embed(ds, 0, [VariableRef(0, lag)], max_lag=7)
            assert np.array_equal(real.lagged[:, 0], series[7 - lag : 60 - lag])
            assert np.array_equal(real.present, series[7:])

    def test_empty_variable_list_extracts_present(self):
        ds = _dataset_from_series([1.0, 2.0, 3.0, 4.0])
        real = embed(ds, 0, [], max_lag=1)
        assert np.array_equal(real.present, [2.0, 3.0, 4.0])
        assert real.lagged.shape == (3, 0)


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        path = tmp_path / "a.csv"
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(100, 3))
        path.write_text("\n".join(",".join(map(str, r)) for r in rows))
        ds = load_csv(path)
        assert (ds.n_processes, ds.n_samples, ds.n_replications) == (3, 100, 1)
        assert np.allclose(ds.values[:, :, 0], rows.T)

    def test_per_file_replications(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = []
        for r in range(2):
            p = tmp_path / f"rep{r}.csv"
            p.write_text(
                "\n".join(",".join(map(str, row)) for row in rng.normal(size=(100, 3)))
            )
            paths.append(p)
        ds = load_csv(paths)
        assert (ds.n_processes, ds.n_samples, ds.n_replications) == (3, 100, 2)

    def test_rep_column(self, tmp_path):
        path = tmp_path / "r.csv"
        lines = ["rep,x,y"]
        for rep in (0, 1):
            for t in range(5):
                lines.append(f"{rep},{t + rep * 100},{t}")
        path.write_text("\n".join(lines))
        ds = load_csv(path)
        assert (ds.n_processes, ds.n_samples, ds.n_replications) == (2, 5, 2)
        assert ds.values[0, 0, 1] == 100.0

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nNaN,3.0\n")
        with pytest.raises(InvalidValueError):
            load_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "txt.csv"
        path.write_text("a,b\n1.0,2.0\nx,3.0\n")
        with pytest.raises(InvalidValueError):
            load_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_discrete_alphabet_validated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1\n1,0\n2,1\n")
        with pytest.raises(InvalidValueError):
            load_csv(path, kind="discrete", alphabet_size=2)

    def test_unequal_replications_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("rep,x\n0,1\n0,2\n1,3\n")
        with pytest.raises(DataError):
            load_csv(path)
