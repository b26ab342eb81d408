"""Serialization: canonical JSON stability, round trips, DOT and CSV."""

import json

import numpy as np
import pytest

from infonet import (
    Coupling,
    GroundTruthSpec,
    InferenceSettings,
    generate_dataset,
    infer_network,
    network_from_json,
    network_to_json,
    to_csv_adjacency,
    to_dot,
)
from infonet.errors import DataError
from infonet.export import canonical_json, network_from_dict, network_to_dict


def _small_network(seed=140):
    ds = generate_dataset(
        GroundTruthSpec(
            n_processes=2,
            n_samples=3000,
            topology=(Coupling(0, 1, 2, 0.7),),
            seed=seed,
        )
    )
    return infer_network(ds, InferenceSettings(seed=seed + 1))


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": 2, "c": [True, None, "x"]})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.10000000000000001" in text  # 17 significant digits

    def test_parses_as_json(self):
        obj = {"x": [1.5, 2, {"y": False}], "z": "text"}
        assert json.loads(canonical_json(obj)) == obj

    def test_float_roundtrip_exact(self):
        values = np.random.default_rng(141).normal(size=50).tolist()
        parsed = json.loads(canonical_json(values))
        assert parsed == values


class TestNetworkRoundTrip:
    def test_json_roundtrip_equal(self):
        net = _small_network()
        text = network_to_json(net)
        assert network_from_json(text) == net

    def test_seed_must_equal_the_settings_seed(self):
        d = network_to_dict(_small_network())
        assert d["seed"] == d["settings"]["seed"] == 141
        assert d["runtime_seconds"] == 0.0
        d["seed"] = 142
        with pytest.raises(DataError, match="seed 142 differs from the settings seed 141"):
            network_from_dict(d)

    def test_repeated_serialization_identical(self):
        net = _small_network(150)
        assert network_to_json(net) == network_to_json(net)


class TestDot:
    def test_empty_network_nodes_only(self):
        ds = generate_dataset(GroundTruthSpec(n_processes=3, n_samples=1200, seed=160))
        net = infer_network(ds, InferenceSettings(seed=161))
        if not net.adjacency:
            dot = to_dot(net)
            assert "->" not in dot
            assert "p0;" in dot and "p2;" in dot

    def test_edge_format(self):
        net = _small_network(170)
        dot = to_dot(net)
        link = net.adjacency[0]
        assert f'p0 -> p1 [label="w={link.weight_bits:.3f}, d={link.delay}"];' in dot


class TestCsvAdjacency:
    def test_dense_matrix(self):
        net = _small_network(180)
        rows = to_csv_adjacency(net).strip().split("\n")
        matrix = [[float(v) for v in row.split(",")] for row in rows]
        link = net.adjacency[0]
        assert matrix[0][1] == link.weight_bits
        assert matrix[1][0] == 0.0
        assert matrix[0][0] == 0.0
