"""Command-line behavior: exit codes, config validation, output formats."""

import json
import subprocess
import sys

import numpy as np
import pytest

from infonet import InferenceSettings, infer_network, load_csv, network_to_json
from infonet import cli
from infonet.cli import main


def run_cli(args):
    """Invoke main() in-process, capturing the exit code."""
    return main(args)


@pytest.fixture()
def ring_files(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(
        json.dumps(
            {
                "n_processes": 3,
                "n_samples": 1500,
                "topology": [[0, 1, 2, 0.6]],
                "seed": 5,
                "output_prefix": str(tmp_path / "ring"),
            }
        )
    )
    assert run_cli(["generate", "--config", str(config)]) == 0
    return tmp_path


class TestGenerate:
    def test_writes_data_and_truth(self, ring_files):
        data = ring_files / "ring_rep0.csv"
        truth = json.loads((ring_files / "ring_truth.json").read_text())
        assert data.exists()
        assert truth["links"] == [
            {"coefficient": 0.6, "lag": 2, "source": 0, "target": 1}
        ]

    def test_unstable_topology_exit_3(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps(
                {
                    "n_processes": 1,
                    "n_samples": 100,
                    "topology": [[0, 0, 1, 1.2]],
                    "output_prefix": str(tmp_path / "x"),
                }
            )
        )
        assert run_cli(["generate", "--config", str(config)]) == 3

    def test_missing_required_key_exit_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"n_processes": 2}))
        assert run_cli(["generate", "--config", str(config)]) == 2


class TestInfer:
    def test_end_to_end(self, ring_files, capsys):
        config = ring_files / "infer.json"
        config.write_text(
            json.dumps({"input": str(ring_files / "ring_rep0.csv"), "seed": 6})
        )
        out_path = ring_files / "net.json"
        code = run_cli(["infer", "--config", str(config), "--output", str(out_path)])
        assert code == 0
        result = json.loads(out_path.read_text())
        assert set(result) == {
            "links",
            "n_links_tested",
            "runtime_seconds",
            "seed",
            "settings",
            "targets",
        }
        found = {(l["source"], l["target"]) for l in result["links"] if l["fdr_significant"]}
        assert found == {(0, 1)}

    def test_unknown_config_key_exit_2_names_key(self, ring_files, capsys):
        config = ring_files / "infer.json"
        config.write_text(
            json.dumps({"input": str(ring_files / "ring_rep0.csv"), "alpa_max": 0.05})
        )
        assert run_cli(["infer", "--config", str(config)]) == 2
        assert "alpa_max" in capsys.readouterr().err

    def test_missing_input_file_exit_3(self, tmp_path):
        config = tmp_path / "infer.json"
        config.write_text(json.dumps({"input": str(tmp_path / "nope.csv")}))
        assert run_cli(["infer", "--config", str(config)]) == 3

    def test_thread_count_does_not_change_bytes(self, ring_files):
        config = ring_files / "infer.json"
        config.write_text(
            json.dumps({"input": str(ring_files / "ring_rep0.csv"), "seed": 7})
        )
        a = ring_files / "a.json"
        b = ring_files / "b.json"
        assert run_cli(["infer", "--config", str(config), "--threads", "1", "--output", str(a)]) == 0
        assert run_cli(["infer", "--config", str(config), "--threads", "8", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_output(self, ring_files, capsys):
        config = ring_files / "infer.json"
        config.write_text(
            json.dumps({"input": str(ring_files / "ring_rep0.csv"), "seed": 8})
        )
        assert run_cli(["infer", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["seed"] == 8


class TestPermutationCounts:
    @pytest.mark.parametrize("key", ["n_perm_max", "n_perm_min", "n_perm_omnibus", "n_perm_seq"])
    @pytest.mark.parametrize("topology", [[], [[0, 1, 2, 0.6]]], ids=["noise", "coupled"])
    def test_count_that_cannot_reject_exits_2_naming_the_key(
        self, tmp_path, capsys, key, topology
    ):
        # Rejected before any analysis, whether or not the data hold a link.
        gen = tmp_path / "gen.json"
        prefix = str(tmp_path / "net")
        gen.write_text(
            json.dumps({"n_processes": 2, "n_samples": 300, "topology": topology,
                        "seed": 3, "output_prefix": prefix})
        )
        assert run_cli(["generate", "--config", str(gen)]) == 0
        config = tmp_path / "infer.json"
        config.write_text(json.dumps({"input": f"{prefix}_rep0.csv", key: 10}))
        capsys.readouterr()
        assert run_cli(["infer", "--config", str(config)]) == 2
        assert f"configuration error: bad settings: {key} at " in capsys.readouterr().err


    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2_before_reading_data(self, tmp_path, capsys, threads):
        missing = tmp_path / "missing.csv"
        config = tmp_path / "infer.json"
        config.write_text(json.dumps({"input": str(missing)}))
        assert run_cli(["infer", "--config", str(config), "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: config key 'threads' must be >= 1, got {threads}" in err

    def test_compare_count_that_cannot_reject_exits_2_before_reading_files(
        self, tmp_path, capsys
    ):
        # No input or network file exists: the count is judged before any is read.
        config = tmp_path / "cmp.json"
        config.write_text(
            json.dumps({"input_a": "a.csv", "input_b": "b.csv", "networks": ["n.json"],
                        "n_perm": 10})
        )
        assert run_cli(["compare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: config key 'n_perm' at alpha_fdr: 10 permutations" in err

    def test_compare_default_count_judged_at_alpha_fdr(self, tmp_path, capsys):
        # The default 500 permutations cannot reach p below 1/501.
        config = tmp_path / "cmp.json"
        config.write_text(
            json.dumps({"input_a": "a.csv", "input_b": "b.csv", "networks": ["n.json"],
                        "alpha_fdr": 0.001})
        )
        assert run_cli(["compare", "--config", str(config)]) == 2
        assert "500 permutations cannot reject" in capsys.readouterr().err


class TestInferWarnings:
    def test_constant_replication_warned_and_output_unchanged(self, tmp_path, capsys):
        rng = np.random.default_rng(191)
        paths = []
        for r in range(2):
            x = rng.normal(size=400)
            y = np.concatenate([[0.0], 0.6 * x[:-1]]) + rng.normal(size=400)
            if r == 1:
                x[:] = 2.0
            path = tmp_path / f"rep{r}.csv"
            np.savetxt(path, np.column_stack([x, y]), delimiter=",")
            paths.append(str(path))
        config = tmp_path / "infer.json"
        config.write_text(json.dumps({"input": paths, "seed": 9}))
        out_path = tmp_path / "net.json"
        assert run_cli(["infer", "--config", str(config), "--output", str(out_path)]) == 0
        err = capsys.readouterr().err
        assert "warning: constant series: process 0, replication 1" in err
        expected = network_to_json(infer_network(load_csv(paths), InferenceSettings(seed=9)))
        assert out_path.read_text() == expected


class TestDatasetWarnings:
    """``ais`` and ``compare`` log the warnings of the data they read, as ``infer`` does."""

    @staticmethod
    def _replications(tmp_path, name, constant):
        rng = np.random.default_rng(194)
        paths = []
        for r in range(3):
            x = rng.normal(size=300)
            y = np.concatenate([[0.0], 0.6 * x[:-1]]) + rng.normal(size=300)
            if constant and r == 1:
                x[:] = 2.0
            path = tmp_path / f"{name}{r}.csv"
            np.savetxt(path, np.column_stack([x, y]), delimiter=",")
            paths.append(str(path))
        return paths

    def test_ais(self, tmp_path, capsys):
        config = tmp_path / "ais.json"
        paths = self._replications(tmp_path, "a", constant=True)
        config.write_text(json.dumps({"input": paths, "process": 1, "n_perm_omnibus": 50}))
        assert run_cli(["ais", "--config", str(config)]) == 0
        assert "warning: constant series: process 0, replication 1" in capsys.readouterr().err

    def test_compare(self, tmp_path, capsys):
        paths_a = self._replications(tmp_path, "a", constant=False)
        infer_cfg = tmp_path / "infer.json"
        infer_cfg.write_text(json.dumps({"input": paths_a}))
        net_path = tmp_path / "net.json"
        assert run_cli(["infer", "--config", str(infer_cfg), "--output", str(net_path)]) == 0
        assert "warning:" not in capsys.readouterr().err
        cfg = tmp_path / "cmp.json"
        paths_b = self._replications(tmp_path, "b", constant=True)
        cfg.write_text(
            json.dumps(
                {"input_a": paths_a, "input_b": paths_b, "networks": [str(net_path)], "n_perm": 40}
            )
        )
        assert run_cli(["compare", "--config", str(cfg)]) == 0
        assert "warning: constant series: process 0, replication 1" in capsys.readouterr().err


class TestAis:
    def test_reports_storage(self, tmp_path, capsys):
        rng = np.random.default_rng(190)
        x = np.zeros(4000)
        for t in range(1, 4000):
            x[t] = 0.8 * x[t - 1] + rng.normal()
        data = tmp_path / "ar.csv"
        data.write_text("\n".join(format(v, ".17g") for v in x))
        config = tmp_path / "ais.json"
        config.write_text(json.dumps({"input": str(data), "process": 0, "seed": 9}))
        assert run_cli(["ais", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["significant"] is True
        assert payload["ais_bits"] > 0.5


class TestPid:
    def test_xor_atoms(self, tmp_path, capsys):
        rng = np.random.default_rng(191)
        s1 = rng.integers(0, 2, size=2000)
        s2 = rng.integers(0, 2, size=2000)
        t = s1 ^ s2
        data = tmp_path / "xor.csv"
        data.write_text("\n".join(f"{a},{b},{c}" for a, b, c in zip(s1, s2, t)))
        assert run_cli(["pid", "--input", str(data)]) == 0
        atoms = json.loads(capsys.readouterr().out)
        assert atoms["synergy"] == pytest.approx(1.0, abs=0.01)
        assert atoms["redundancy"] == pytest.approx(0.0, abs=0.01)

    def test_alphabet_inferred_from_largest_symbol(self, tmp_path, capsys):
        # A ternary target needs an alphabet of 3; without alphabet_sizes it
        # comes from the file. Williams-Beer on SUM: 0.5 bit redundant, 1 synergistic.
        s1 = np.array([0, 0, 1, 1] * 50)
        s2 = np.array([0, 1, 0, 1] * 50)
        data = tmp_path / "sum.csv"
        data.write_text("\n".join(f"{a},{b},{a + b}" for a, b in zip(s1, s2)))
        assert run_cli(["pid", "--input", str(data)]) == 0
        atoms = json.loads(capsys.readouterr().out)
        assert atoms["redundancy"] == pytest.approx(0.5, abs=1e-12)
        assert atoms["synergy"] == pytest.approx(1.0, abs=1e-12)
        assert atoms["unique_1"] == pytest.approx(0.0, abs=1e-12)

    def test_every_replication_is_counted(self, tmp_path, capsys):
        # An XOR replication and an AND replication: PID counts the rows of
        # both, so the file gives the same atoms with and without its rep column.
        rows = ["0,0,0", "0,1,1", "1,0,1", "1,1,0", "0,0,0", "0,1,0", "1,0,0", "1,1,1"]
        pooled = tmp_path / "pooled.csv"
        pooled.write_text("\n".join(["s1,s2,target", *rows]) + "\n")
        split = tmp_path / "split.csv"
        split.write_text(
            "\n".join(["rep,s1,s2,target", *(f"{i // 4},{row}" for i, row in enumerate(rows))])
            + "\n"
        )
        outputs = []
        for data in (pooled, split):
            assert run_cli(["pid", "--input", str(data)]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[1]["redundancy"] == pytest.approx(0.0488, abs=1e-4)
        assert outputs[1]["synergy"] == pytest.approx(0.1556, abs=1e-4)

    def test_symbol_outside_given_alphabet_exit_3(self, tmp_path, capsys):
        # s1 holds a 2, but its given alphabet is binary.
        data = tmp_path / "pid.csv"
        data.write_text("0,0,0\n2,1,1\n1,2,0\n")
        config = tmp_path / "pid.json"
        config.write_text(json.dumps({"input": str(data), "alphabet_sizes": [2, 3, 2]}))
        assert run_cli(["pid", "--config", str(config)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_empty_alphabet_sizes_exit_3(self, tmp_path, capsys):
        # An explicit [] is passed on, not read as "infer the sizes".
        data = tmp_path / "pid.csv"
        data.write_text("0,0,0\n1,1,0\n0,1,1\n")
        config = tmp_path / "pid.json"
        config.write_text(json.dumps({"input": str(data), "alphabet_sizes": []}))
        assert run_cli(["pid", "--config", str(config)]) == 3
        assert "expected three alphabet sizes" in capsys.readouterr().err

    def test_wrong_column_count_exit_2(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("0,1\n1,0\n")
        assert run_cli(["pid", "--input", str(data)]) == 2


class TestCompare:
    def test_identical_conditions(self, tmp_path, capsys):
        rng = np.random.default_rng(192)
        paths = {}
        for name in ("a", "b"):
            files = []
            for rep in range(4):
                x = rng.normal(size=(300, 2))
                x[2:, 1] += 0.8 * x[:-2, 0]
                p = tmp_path / f"{name}{rep}.csv"
                p.write_text("\n".join(f"{u},{v}" for u, v in x))
                files.append(str(p))
            paths[name] = files
        # identical conditions: reuse the same files for both sides
        net_path = tmp_path / "net.json"
        infer_cfg = tmp_path / "infer.json"
        infer_cfg.write_text(json.dumps({"input": paths["a"], "seed": 10}))
        assert run_cli(["infer", "--config", str(infer_cfg), "--output", str(net_path)]) == 0
        cfg = tmp_path / "cmp.json"
        cfg.write_text(
            json.dumps(
                {
                    "input_a": paths["a"],
                    "input_b": paths["a"],
                    "networks": [str(net_path)],
                    "n_perm": 100,
                    "seed": 11,
                }
            )
        )
        assert run_cli(["compare", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(l["p_value"] == 1.0 for l in payload["links"])
        assert all(l["delta_bits"] == 0.0 for l in payload["links"])

    def test_rep_column_replications(self, tmp_path, capsys):
        # one headerless file per condition, replication ids in column 0
        rng = np.random.default_rng(193)
        inputs = {}
        for name in ("a", "b"):
            rows = []
            for rep in range(4):
                x = rng.normal(size=(300, 2))
                x[2:, 1] += 0.8 * x[:-2, 0]
                rows.extend(f"{rep},{u},{v}" for u, v in x)
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(rows))
            inputs[name] = str(path)
        common = {
            "replication_mode": "rep_column",
            "seed": 14,
            "n_perm_max": 50,
            "n_perm_min": 50,
            "n_perm_omnibus": 50,
            "n_perm_seq": 50,
        }
        net_path = tmp_path / "net.json"
        infer_cfg = tmp_path / "infer.json"
        infer_cfg.write_text(json.dumps({"input": inputs["a"], **common}))
        assert run_cli(["infer", "--config", str(infer_cfg), "--output", str(net_path)]) == 0
        assert "2 processes (300 samples x 4 replications)" in capsys.readouterr().err
        cfg = tmp_path / "cmp.json"
        cfg.write_text(
            json.dumps(
                {
                    "input_a": inputs["a"],
                    "input_b": inputs["b"],
                    "networks": [str(net_path)],
                    "n_perm": 100,
                    **common,
                }
            )
        )
        assert run_cli(["compare", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [(l["source"], l["target"]) for l in payload["links"]] == [(0, 1)]


class TestExport:
    def test_dot_and_csv(self, ring_files, capsys):
        config = ring_files / "infer.json"
        config.write_text(
            json.dumps({"input": str(ring_files / "ring_rep0.csv"), "seed": 12})
        )
        net_path = ring_files / "net.json"
        assert run_cli(["infer", "--config", str(config), "--output", str(net_path)]) == 0
        assert run_cli(["export", "--input", str(net_path), "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph")
        assert run_cli(["export", "--input", str(net_path), "--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        assert len(csv_text.strip().split("\n")) == 3

    def test_json_roundtrip_via_export(self, ring_files, capsys):
        config = ring_files / "infer.json"
        config.write_text(
            json.dumps({"input": str(ring_files / "ring_rep0.csv"), "seed": 13})
        )
        net_path = ring_files / "net.json"
        assert run_cli(["infer", "--config", str(config), "--output", str(net_path)]) == 0
        assert run_cli(["export", "--input", str(net_path), "--format", "json"]) == 0
        assert capsys.readouterr().out == net_path.read_text()


class TestUnreadablePaths:
    """A path that names a directory is a configuration error naming the path."""

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert run_cli(["infer", "--config", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_export_input_directory_exit_2(self, tmp_path, capsys):
        assert run_cli(["export", "--input", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "infonet.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "infer" in result.stdout


class TestConfigSchema:
    """Every key has its type; every flag overrides the one key it names."""

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("generate", {"n_processes": "three", "n_samples": 100}, "n_processes"),
            ("generate", {"n_processes": 2, "n_samples": 100, "noise_scale": "1"}, "noise_scale"),
            ("generate", {"n_processes": 2, "n_samples": 100, "binarize": 1}, "binarize"),
            ("generate", {"n_processes": 2, "n_samples": 9, "topology": [[0, 1, 1]]}, "topology"),
            ("infer", {"input": "x.csv", "threads": "two"}, "threads"),
            ("infer", {"input": "x.csv", "threads": True}, "threads"),
            ("infer", {"input": "x.csv", "seed": 2.0}, "seed"),
            ("infer", {"input": "x.csv", "n_perm_max": "many"}, "n_perm_max"),
            ("infer", {"input": ["x.csv", 3]}, "input"),
            ("ais", {"input": "x.csv", "process": True}, "process"),
            ("ais", {"input": "x.csv", "process": 0, "alpha_omnibus": "0.05"}, "alpha_omnibus"),
            ("pid", {"input": "x.csv", "alphabet_sizes": "2"}, "alphabet_sizes"),
            ("pid", {"input": 3}, "input"),
            ("compare", {"input_a": "a.csv", "n_perm": "many"}, "n_perm"),
            ("compare", {"input_a": "a.csv", "n_perm": "10"}, "n_perm"),
            ("compare", {"input_a": "a.csv", "normalize": "yes"}, "normalize"),
        ],
    )
    def test_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(path)]) == 2
        assert f"configuration error: config key {key!r} must be" in capsys.readouterr().err

    def test_compare_has_no_alpha_key(self, tmp_path, capsys):
        # Links are flagged at the settings' alpha_fdr; a second level is unknown.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"input_a": "a.csv", "alpha": 0.05}))
        assert run_cli(["compare", "--config", str(path)]) == 2
        assert "unknown config key for 'compare': alpha" in capsys.readouterr().err

    def test_null_alphabet_size_is_the_default(self, ring_files, capsys):
        config = ring_files / "infer.json"
        config.write_text(
            json.dumps({"input": str(ring_files / "ring_rep0.csv"), "alphabet_size": None})
        )
        assert run_cli(["infer", "--config", str(config)]) == 0
        expected = network_to_json(
            infer_network(load_csv(str(ring_files / "ring_rep0.csv")), InferenceSettings())
        )
        assert capsys.readouterr().out == expected

    def test_seed_flag_beats_the_file(self, ring_files, capsys):
        config = ring_files / "infer.json"
        config.write_text(json.dumps({"input": str(ring_files / "ring_rep0.csv"), "seed": 6}))
        assert run_cli(["infer", "--config", str(config), "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_threads_flag_beats_the_file(self, ring_files, monkeypatch):
        calls = []

        def recording(dataset, settings, **options):
            calls.append(options)
            return infer_network(dataset, settings, **options)

        monkeypatch.setattr(cli, "infer_network", recording)
        config = ring_files / "infer.json"
        config.write_text(json.dumps({"input": str(ring_files / "ring_rep0.csv"), "threads": 4}))
        out = ring_files / "net.json"
        assert run_cli(["infer", "--config", str(config), "--output", str(out)]) == 0
        assert run_cli(["infer", "--config", str(config), "--threads", "2"]) == 0
        assert calls == [{"threads": 4}, {"threads": 2}]

    def test_process_flag_beats_the_file(self, tmp_path, capsys):
        rng = np.random.default_rng(195)
        data = tmp_path / "two.csv"
        np.savetxt(data, rng.normal(size=(300, 2)), delimiter=",")
        config = tmp_path / "ais.json"
        config.write_text(json.dumps({"input": str(data), "process": 0, "n_perm_omnibus": 50}))
        assert run_cli(["ais", "--config", str(config), "--process", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["process"] == 1

    def test_generate_output_flag_sets_the_prefix(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(
            json.dumps(
                {"n_processes": 2, "n_samples": 50, "output_prefix": str(tmp_path / "file")}
            )
        )
        flag = str(tmp_path / "flag")
        assert run_cli(["generate", "--config", str(config), "--output", flag]) == 0
        assert (tmp_path / "flag_truth.json").exists()
        assert not (tmp_path / "file_truth.json").exists()

    def test_pid_has_no_seed_flag(self, tmp_path):
        data = tmp_path / "xor.csv"
        data.write_text("0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["pid", "--input", str(data), "--seed", "5"])
        assert exit_info.value.code == 2
