"""Serialization round-trips and format guards."""

import json

import pytest

from repro.topology.generators import build_subcluster
from repro.topology.serialize import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from tests.topology.reference_isomorphism import networks_equal


class TestRoundTrip:
    def test_small_round_trip(self, two_switch_net):
        data = network_to_dict(two_switch_net)
        back = network_from_dict(data)
        assert networks_equal(two_switch_net, back)

    def test_subcluster_round_trip(self, subcluster_c):
        back = network_from_dict(network_to_dict(subcluster_c))
        assert networks_equal(subcluster_c, back)

    def test_metadata_preserved(self, subcluster_c):
        back = network_from_dict(network_to_dict(subcluster_c))
        assert back.meta("C-svc").get("utility") is True

    def test_file_round_trip(self, tmp_path, tiny_net):
        path = tmp_path / "map.json"
        save_network(tiny_net, path)
        assert networks_equal(load_network(path), tiny_net)

    def test_output_is_stable(self, two_switch_net):
        a = json.dumps(network_to_dict(two_switch_net))
        b = json.dumps(network_to_dict(two_switch_net.copy()))
        assert a == b


class TestFormatGuards:
    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a san-map"):
            network_from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            network_from_dict({"format": "san-map", "version": 99})

    def test_dict_shape(self, tiny_net):
        data = network_to_dict(tiny_net)
        assert data["format"] == "san-map"
        assert {h["name"] for h in data["hosts"]} == {"h0", "h1", "h2"}
        assert len(data["wires"]) == 3
