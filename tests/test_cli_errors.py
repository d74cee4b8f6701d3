"""CLI failure paths and edge cases."""

import json

import pytest

from repro.cli import main
from repro.topology.serialize import save_network
from tests.topology.reference_builder import NetworkBuilder


class TestBadInputs:
    def test_missing_network_file(self, tmp_path, capsys):
        """Expected operational failures become exit code 2, not tracebacks."""
        code = main(["analyze", "--network", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "not-a-map"}))
        code = main(["map", "--network", str(bad)])
        assert code == 2
        assert "invalid input" in capsys.readouterr().err

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestExitCodes:
    def test_map_with_insufficient_depth_exits_nonzero(self, tmp_path, capsys):
        """A depth too small to map the network yields MISMATCH + exit 1."""
        net_path = tmp_path / "ring.json"
        main(["generate", "--topology", "ring", "--size", "6",
              "--out", str(net_path)])
        code = main(["map", "--network", str(net_path), "--depth", "2"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_map_refuses_a_depth_below_one(self, tmp_path, capsys, depth):
        """``--depth 0`` is a depth like ``--depth -3``, not "no depth
        given": both are refused instead of mapping at ``Q + D + 1``."""
        net_path = tmp_path / "c.json"
        main(["generate", "--topology", "now-c", "--out", str(net_path)])
        capsys.readouterr()
        code = main(["map", "--network", str(net_path), "--depth", depth])
        captured = capsys.readouterr()
        assert code == 2
        assert "search_depth must be at least 1" in captured.err
        assert "isomorphic" not in captured.out

    def test_routes_on_disconnected_map_exits_nonzero(self, tmp_path, capsys):
        b = NetworkBuilder()
        b.switches("s0", "s1")
        b.hosts("h0", "h1", "h2", "h3")
        b.attach("h0", "s0")
        b.attach("h1", "s0")
        b.attach("h2", "s1")
        b.attach("h3", "s1")
        net = b.build(validate=False)  # two islands
        path = tmp_path / "split.json"
        save_network(net, path)
        # Routing an island map: pairs across islands have no routes, so
        # verification against the same file reports missing deliveries...
        # but deadlock-freedom still holds; the exit code reflects safety
        # of what was computed.
        code = main(["routes", "--map", str(path)])
        out = capsys.readouterr().out
        assert "deadlock-free: True" in out
        assert code == 0


class TestMapperChoice:
    def test_explicit_mapper_host(self, tmp_path, capsys):
        net_path = tmp_path / "c.json"
        main(["generate", "--topology", "now-c", "--out", str(net_path)])
        code = main(
            ["analyze", "--network", str(net_path), "--mapper", "C-n17"]
        )
        assert code == 0
        assert "C-n17" in capsys.readouterr().out
