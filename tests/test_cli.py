"""CLI tests: the generate → analyze → map → routes lifecycle."""

import json

import pytest

from repro.cli import main
from repro.topology.generators import build_named_topology, build_ring
from repro.topology.serialize import load_network, network_to_dict, save_network


@pytest.fixture()
def ring_json(tmp_path):
    path = tmp_path / "ring.json"
    assert main(["generate", "--topology", "ring", "--size", "4",
                 "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_generate_now_c(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["generate", "--topology", "now-c", "--out", str(out)]) == 0
        net = load_network(out)
        assert (net.n_hosts, net.n_switches, net.n_wires) == (36, 13, 64)

    @pytest.mark.parametrize(
        "topology", ["chain", "mesh", "torus", "hypercube", "random"]
    )
    def test_generate_variants(self, tmp_path, topology):
        out = tmp_path / f"{topology}.json"
        assert main(["generate", "--topology", topology, "--size", "3",
                     "--out", str(out)]) == 0
        assert load_network(out).n_switches >= 1

    @pytest.mark.parametrize("topology", ["chain", "mesh", "random"])
    def test_omitted_flags_take_the_registry_defaults(self, tmp_path, topology):
        out = tmp_path / f"{topology}.json"
        assert main(["generate", "--topology", topology, "--out", str(out)]) == 0
        assert network_to_dict(load_network(out)) == network_to_dict(
            build_named_topology(topology, {})
        )


class TestAnalyze(object):
    def test_analyze_prints_decomposition(self, ring_json, capsys):
        assert main(["analyze", "--network", str(ring_json)]) == 0
        out = capsys.readouterr().out
        assert "diameter D" in out
        assert "search depth" in out


class TestMapCommand:
    def test_map_verifies_and_writes(self, ring_json, tmp_path, capsys):
        out = tmp_path / "map.json"
        code = main(["map", "--network", str(ring_json), "--out", str(out)])
        assert code == 0
        assert "isomorphic" in capsys.readouterr().out
        assert load_network(out).n_switches == 4

    @pytest.mark.parametrize("algorithm", ["myricom", "selfid"])
    def test_alternative_algorithms(self, ring_json, algorithm):
        assert main(["map", "--network", str(ring_json),
                     "--mapper", algorithm]) == 0

    @pytest.mark.parametrize("mapper", ["berkeley", "myricom"])
    def test_map_of_an_island_is_verified_against_that_island(
        self, tmp_path, capsys, mapper
    ):
        """The mapper host (``far-h0``, sorted first) sits on an island the
        ring is not wired to: a correct map of the island is the whole
        answer, so the verdict is taken on the mapper's own component."""
        net = build_ring(4)
        net.add_switch("far-s0")
        net.add_switch("far-s1")
        net.add_host("far-h0")
        net.add_host("far-h1")
        net.connect("far-s0", 0, "far-s1", 0)
        net.connect("far-h0", 0, "far-s0", 2)
        net.connect("far-h1", 0, "far-s1", 2)
        path = tmp_path / "two_islands.json"
        save_network(net, path)
        assert main(["map", "--network", str(path), "--mapper", mapper]) == 0
        out = capsys.readouterr().out
        assert "2 hosts, 2 switches, 3 wires" in out
        assert "verified against actual core: isomorphic" in out

    def test_render_flag(self, ring_json, capsys):
        main(["map", "--network", str(ring_json), "--render"])
        assert "interfaces" in capsys.readouterr().out

    def test_stats_flag_prints_cache_counters(self, ring_json, capsys):
        assert main(["map", "--network", str(ring_json), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "eval cache:" in out
        assert "hit rate" in out

    def test_stack_flag_prints_the_layer_chain(self, ring_json, capsys):
        assert main(["map", "--network", str(ring_json), "--stack"]) == 0
        out = capsys.readouterr().out
        assert "core: QuiescentProbeService(mapper=" in out
        assert "layers: (none)" in out

    def test_stack_flag_names_the_selfid_core(self, ring_json, capsys):
        assert main(["map", "--network", str(ring_json),
                     "--mapper", "selfid", "--stack"]) == 0
        assert "core: SelfIdProbeService(mapper=" in capsys.readouterr().out


class TestRoutesCommand:
    def test_routes_roundtrip(self, ring_json, tmp_path):
        map_path = tmp_path / "map.json"
        main(["map", "--network", str(ring_json), "--out", str(map_path)])
        routes_path = tmp_path / "routes.json"
        code = main([
            "routes",
            "--map", str(map_path),
            "--verify-against", str(ring_json),
            "--out", str(routes_path),
        ])
        assert code == 0
        doc = json.loads(routes_path.read_text())
        hosts = set(load_network(ring_json).hosts)
        assert set(doc) == hosts
        for host, table in doc.items():
            assert set(table) == hosts - {host}


class TestLashScheme:
    def test_lash_routes(self, ring_json, tmp_path, capsys):
        map_path = tmp_path / "map.json"
        main(["map", "--network", str(ring_json), "--out", str(map_path)])
        code = main([
            "routes",
            "--map", str(map_path),
            "--scheme", "lash",
            "--verify-against", str(ring_json),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "LASH layers" in out
        assert "deadlock-free: True" in out


class TestExperimentCommand:
    def test_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "Figure 3" in capsys.readouterr().out


class TestExportData:
    @pytest.mark.slow
    def test_writes_figure_series(self, tmp_path):
        """Runs the real Figure 8/9 sweeps; verifies files and headers."""
        import csv

        code = main(["export-data", "--out", str(tmp_path)])
        assert code == 0
        growth = tmp_path / "fig8_growth.csv"
        responders = tmp_path / "fig9_responders.csv"
        assert growth.exists() and responders.exists()
        with growth.open() as fh:
            header = next(csv.reader(fh))
        assert header == ["exploration", "n_nodes", "n_edges", "n_frontier"]
