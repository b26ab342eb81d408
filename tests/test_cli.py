"""Command-line behavior: exit codes, config validation, output formats."""

import json
import subprocess
import sys

import numpy as np
import pytest

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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "infonet.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "infer" in result.stdout
