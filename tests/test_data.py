"""Data container, ingestion, normalization and embedding behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        series = ds.values[0, :, 0]
        assert abs(series.mean()) < 1e-12
        assert abs(series.std(ddof=1) - 1.0) < 1e-12
        assert ds.normalized

    def test_constant_series_zeroed_with_warning(self):
        ds = normalize(_dataset_from_series([5.0, 5.0, 5.0]))
        assert np.all(ds.values[0, :, 0] == 0.0)
        assert any("constant" in w for w in ds.warnings)

    @pytest.mark.parametrize("value, n", [(0.1, 100), (3.7, 10), (1e3 / 7, 100)])
    def test_constant_series_whose_mean_rounds_away(self, value, n):
        # The mean of these copies is not the value, so the deviation is about
        # eps * value instead of 0; the series is still constant.
        series = np.full(n, value)
        assert series.mean() != value and series.std(ddof=1) > 0.0
        ds = normalize(_dataset_from_series(series))
        assert np.all(ds.values[0, :, 0] == 0.0)
        assert ds.warnings == ("constant series: process 0, replication 0",)

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
                s = out.values[p, :, r]
                assert abs(s.mean()) < 1e-9
                assert abs(s.std(ddof=1) - 1.0) < 1e-9

    @staticmethod
    def _per_series(dataset):
        """Values and warnings of a z-score taken one (process, replication) series at a time."""
        values = np.array(dataset.values)
        warnings = list(dataset.warnings)
        for p in range(dataset.n_processes):
            for r in range(dataset.n_replications):
                series = values[p, :, r]
                sd = series.std(ddof=1) if series.size > 1 else 0.0
                if np.all(series == series[0]) or sd < 1e-300:
                    values[p, :, r] = 0.0
                    msg = f"constant series: process {p}, replication {r}"
                    if msg not in warnings:
                        warnings.append(msg)
                else:
                    values[p, :, r] = (series - series.mean()) / sd
        return values, warnings

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_a_per_series_loop(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 300)), int(rng.integers(1, 6)))
        values = rng.normal(rng.uniform(-1e3, 1e3), rng.uniform(1e-3, 1e3), size=shape)
        for p, r in rng.integers(0, [shape[0], shape[2]], size=(int(rng.integers(0, 4)), 2)):
            values[p, :, r] = rng.normal()  # a constant series, some more than once
        dataset = Dataset(values=values, warnings=("constant series: process 0, replication 0",))
        out = normalize(dataset)
        expected, warnings = self._per_series(dataset)
        assert out.values.tobytes() == expected.tobytes()
        assert list(out.warnings) == warnings


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
        assert real.blocks == ((0, 8), (8, 16))
        first = slice(*real.blocks[0])
        assert real.lagged[first, 0].max() < 100
        assert np.delete(real.lagged[:, 0], first).min() >= 100

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
        assert real.blocks == ((0, 3),)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gather_equals_per_replication_slices(self, data):
        n_proc, n_samples = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 12))
        n_reps = data.draw(st.integers(1, 4))
        max_lag = data.draw(st.integers(0, n_samples - 1))
        # Repeated variables are allowed; without a lag to spare, none are drawn.
        variables = data.draw(
            st.lists(
                st.builds(VariableRef, st.integers(0, n_proc - 1), st.integers(1, max(max_lag, 1))),
                max_size=5 if max_lag else 0,
            )
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        ds = Dataset(values=np.random.default_rng(seed).normal(size=(n_proc, n_samples, n_reps)))
        target = data.draw(st.integers(0, n_proc - 1))
        real = embed(ds, target, variables, max_lag=max_lag)

        n_valid = n_samples - max_lag
        present = np.empty(n_reps * n_valid)
        lagged = np.empty((n_reps * n_valid, len(variables)))
        for r in range(n_reps):
            rows = slice(r * n_valid, (r + 1) * n_valid)
            present[rows] = ds.values[target, max_lag:, r]
            for j, v in enumerate(variables):
                lagged[rows, j] = ds.values[v.process, max_lag - v.lag : n_samples - v.lag, r]
        assert present.tobytes() == real.present.tobytes()
        assert lagged.shape == real.lagged.shape
        assert lagged.tobytes() == real.lagged.tobytes()
        # One block per replication, in order, tiling the rows.
        assert real.blocks == tuple((r * n_valid, (r + 1) * n_valid) for r in range(n_reps))
        # Fresh arrays: writable, and sharing no memory with the read-only dataset.
        for array in (real.present, real.lagged):
            assert array.flags.writeable and not np.shares_memory(array, ds.values)


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_first_row_is_data(self, tmp_path, cell):
        # A non-finite number parses as a float, so row 1 is data, not a header.
        path = tmp_path / "first.csv"
        path.write_text(f"1.0,{cell},3\n4,5,6\n7,8,9\n")
        with pytest.raises(InvalidValueError, match=f"non-finite value '{cell}' at row 1 "):
            load_csv(path)

    def test_text_first_row_is_header(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x,2.0,z\n4,5,6\n7,8,9\n")
        assert load_csv(path).values[:, :, 0].T.tolist() == [[4, 5, 6], [7, 8, 9]]

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
