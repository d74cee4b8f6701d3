"""Compliant-path computation and route compilation tests."""

import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.routing import updown
from repro.routing.compile_routes import (
    CompiledRoute,
    compile_route_tables,
    path_to_turns,
)
from repro.routing.paths import all_pairs_updown_paths, build_phase_graph
from repro.routing.updown import orient_updown
from repro.service.serialize import route_tables_from_dict, route_tables_to_dict
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.topology.generators import (
    build_hypercube,
    build_mesh,
    build_named_topology,
    build_ring,
)
from tests.routing.reference_paths import bfs_updown_lengths


class TestDistances:
    def test_fw_matches_bfs_cross_check(self, ring_net):
        ori = orient_updown(ring_net)
        graph = build_phase_graph(ring_net, ori)  # shared across the roots
        paths = all_pairs_updown_paths(ring_net, ori)
        for src in ring_net.hosts:
            bfs = bfs_updown_lengths(ring_net, ori, src, graph=graph)
            for dst in ring_net.nodes:
                assert paths.distance(src, dst) == bfs.get(dst), (src, dst)

    @pytest.mark.parametrize(
        "net_builder",
        [
            lambda: build_ring(5, hosts_per_switch=1),
            lambda: build_mesh(3, 3, hosts_per_switch=1),
            lambda: build_hypercube(3, hosts_per_switch=1),
        ],
    )
    def test_fw_matches_bfs_on_regular_topologies(self, net_builder):
        net = net_builder()
        ori = orient_updown(net)
        graph = build_phase_graph(net, ori)
        paths = all_pairs_updown_paths(net, ori)
        hosts = sorted(net.hosts)[:4]
        for src in hosts:
            bfs = bfs_updown_lengths(net, ori, src, graph=graph)
            for dst in hosts:
                assert paths.distance(src, dst) == bfs.get(dst)

    def test_compliant_at_least_shortest(self, ring_net):
        """Turn restriction can only lengthen paths, never shorten them."""
        import networkx as nx

        g = nx.Graph(ring_net.to_networkx())
        ori = orient_updown(ring_net)
        paths = all_pairs_updown_paths(ring_net, ori)
        for src in ring_net.hosts:
            plain = nx.single_source_shortest_path_length(g, src)
            for dst in ring_net.hosts:
                d = paths.distance(src, dst)
                assert d is not None
                assert d >= plain[dst]

    def test_self_distance_zero(self, ring_net):
        ori = orient_updown(ring_net)
        paths = all_pairs_updown_paths(ring_net, ori)
        assert paths.distance("h0", "h0") == 0


class TestNodePaths:
    def test_path_endpoints(self, ring_net):
        ori = orient_updown(ring_net)
        paths = all_pairs_updown_paths(ring_net, ori)
        p = paths.node_path("h0", "h2")
        assert p[0] == "h0" and p[-1] == "h2"
        assert len(p) - 1 == paths.distance("h0", "h2")

    def test_paths_are_updown_compliant(self, ring_net):
        ori = orient_updown(ring_net)
        paths = all_pairs_updown_paths(ring_net, ori)
        for src in ring_net.hosts:
            for dst in ring_net.hosts:
                if src == dst:
                    continue
                p = paths.node_path(src, dst)
                went_down = False
                for u, v in zip(p, p[1:]):
                    if ori.is_up(u, v):
                        assert not went_down, f"down->up turn in {p}"
                    else:
                        went_down = True


class TestCompilation:
    def test_turns_deliver_on_network(self, ring_net):
        ori = orient_updown(ring_net)
        paths = all_pairs_updown_paths(ring_net, ori)
        tables = compile_route_tables(ring_net, paths)
        for table in tables.values():
            for dst, route in table.routes.items():
                out = evaluate_route(ring_net, table.host, route.turns)
                assert out.status is PathStatus.DELIVERED
                assert out.delivered_to == dst

    def test_turn_count_is_switch_count(self, ring_net):
        ori = orient_updown(ring_net)
        paths = all_pairs_updown_paths(ring_net, ori)
        p = paths.node_path("h0", "h1")
        route = path_to_turns(ring_net, p)
        assert len(route.turns) == len(p) - 2  # one turn per switch

    def test_parallel_wire_choice_is_seeded(self, two_switch_net):
        ori = orient_updown(two_switch_net)
        paths = all_pairs_updown_paths(two_switch_net, ori)
        a = compile_route_tables(two_switch_net, paths, seed=1)
        b = compile_route_tables(two_switch_net, paths, seed=1)
        assert all(
            a[h].routes[d].turns == b[h].routes[d].turns
            for h in a
            for d in a[h].routes
        )

    @pytest.mark.parametrize("fixture", ["ring_net", "two_switch_net"])
    def test_routes_share_one_object_per_channel(self, fixture, request):
        """A channel is a directed wire half: however many routes cross it,
        a generation holds it once. And each route still follows the node
        path ``RoutingPaths.node_path`` gives for its pair."""
        net = request.getfixturevalue(fixture)
        ori = orient_updown(net)
        paths = all_pairs_updown_paths(net, ori)
        tables = compile_route_tables(net, paths, seed=3)
        routes = [r for table in tables.values() for r in table.routes.values()]
        held = [t for route in routes for t in route.traversals]
        assert len({id(t) for t in held}) == len(set(held)) <= 2 * len(net.wires)
        assert len(set(held)) < len(held)
        for route in routes:
            nodes = [route.src] + [t.dst.node for t in route.traversals]
            assert nodes == paths.node_path(route.src, route.dst)

    def test_hosts_on_one_switch_share_one_tail_per_destination(self):
        """A route is its host's own channel plus the chain from its switch
        on, and a generation holds that chain once: per (entry switch,
        destination) one tail object, whichever host on the switch asks."""
        net = build_named_topology("now-c", {})
        ori = orient_updown(net)
        paths = all_pairs_updown_paths(net, ori)
        tables = compile_route_tables(net, paths)
        routes = [r for table in tables.values() for r in table.routes.values()]
        by_entry: dict[tuple[str, str], set[int]] = {}
        for route in routes:
            assert route.head.src.node == route.src
            assert route.traversals == (route.head, *route.tail[0])
            assert route.turns == (route.first_turn, *route.tail[1])
            assert route.hops == len(route.turns) + 1
            entry = (route.head.dst.node, route.dst)
            by_entry.setdefault(entry, set()).add(id(route.tail))
        assert all(len(ids) == 1 for ids in by_entry.values())
        assert len({id(r.tail) for r in routes}) == len(by_entry) < len(routes) / 2

    def test_a_route_over_parallel_cables_owns_its_tail(self, two_switch_net):
        """The draw among parallel cables is made once per route, in route
        order (the seed-0 / seed-11 goldens pin that), so such a route
        cannot share: its tail is its own object even where the draws of
        two routes happen to agree."""
        ori = orient_updown(two_switch_net)
        paths = all_pairs_updown_paths(two_switch_net, ori)
        tables = compile_route_tables(two_switch_net, paths, seed=0)
        crossing = [
            r
            for table in tables.values()
            for r in table.routes.values()
            if r.hops == 3
        ]
        assert len(crossing) == 8
        assert len({id(r.tail) for r in crossing}) == 8
        assert len({r.tail for r in crossing}) == 5  # some draws do agree
        local = [tables[a].routes[b] for a, b in (("h0", "h1"), ("h1", "h0"))]
        assert [r.hops for r in local] == [2, 2]

    def test_route_table_len(self, ring_net):
        ori = orient_updown(ring_net)
        paths = all_pairs_updown_paths(ring_net, ori)
        tables = compile_route_tables(ring_net, paths)
        for table in tables.values():
            assert len(table) == len(ring_net.hosts) - 1

    def test_rejects_trivial_path(self, ring_net):
        with pytest.raises(ValueError):
            path_to_turns(ring_net, ["h0"])

    def test_rejects_switch_endpoints(self, ring_net):
        with pytest.raises(ValueError):
            path_to_turns(ring_net, ["s0", "s1"])


class TestCompiledRouteIsAValue:
    """A route is a named tuple of five fields: immutable, hashable, and
    the same value whether compiled, decoded off the wire or unpickled."""

    @pytest.fixture(scope="class")
    def now_tables(self):
        net = build_named_topology("now-full", {})
        ori = orient_updown(net)
        return compile_route_tables(
            net, all_pairs_updown_paths(net, ori)
        )

    def test_fields_are_fixed_and_read_only(self, now_tables):
        assert CompiledRoute._fields == ("src", "dst", "head", "first_turn", "tail")
        hosts = sorted(now_tables)
        route = now_tables[hosts[0]].routes[hosts[-1]]
        for name in (*CompiledRoute._fields, "turns", "traversals", "hops"):
            with pytest.raises(AttributeError):
                setattr(route, name, None)
        assert route.turns == (route.first_turn, *route.tail[1])
        assert route.hops == len(route.traversals) == 1 + len(route.tail[0])

    def test_decoder_output_equals_compile_output(self, now_tables):
        decoded = route_tables_from_dict(route_tables_to_dict(now_tables))
        pairs = [
            (route, decoded[host].routes[dst])
            for host, table in now_tables.items()
            for dst, route in table.routes.items()
        ]
        assert len(pairs) == 100 * 99
        for route, got in pairs:
            assert type(got) is CompiledRoute
            assert got == route and hash(got) == hash(route)

    def test_pickle_round_trip_keeps_values_and_sharing(self, now_tables):
        back = pickle.loads(pickle.dumps(now_tables))
        before = [r for table in now_tables.values() for r in table.routes.values()]
        after = [r for table in back.values() for r in table.routes.values()]
        assert after == before
        for field in ("head", "tail"):  # one shared object before <-> one after
            ids = {(id(getattr(o, field)), id(getattr(n, field))) for o, n in zip(before, after)}
            assert len(ids) == len({o for o, _ in ids}) == len({n for _, n in ids})


class TestHostsAreLeaves:
    """The shape the routing layer is built on: only the switch core is
    swept, a leaf host is a column and a derived row."""

    def test_full_now_matrix_is_core_sized(self):
        net = build_named_topology("now-full", {})
        ori = orient_updown(net)
        paths = all_pairs_updown_paths(net, ori)
        assert len(paths.core) == net.n_switches == 40
        assert sorted(paths.leaf_switch) == sorted(net.hosts)
        # 2 x 40 core states; their columns plus one DOWN column per host
        assert paths.dist.shape == paths.succ.shape == (80, 180)
        root, far = ori.root, max(net.switches, key=lambda s: ori.label(s))
        host = sorted(net.hosts)[0]
        for src, dst in ((root, far), (far, root), (far, host), (host, far)):
            path = paths.node_path(src, dst)
            assert path[0] == src and path[-1] == dst
            assert len(path) - 1 == paths.distance(src, dst)

    def test_route_cycle_never_asks_updown_for_networkx(self):
        """``updown.py`` is plain Python now: neither importing it nor a
        whole ``route_cycle`` on a fresh interpreter imports networkx on
        the routing layer's behalf."""
        source = Path(updown.__file__).read_text()
        assert "networkx" not in source and "nx." not in source
        script = textwrap.dedent(
            """
            import builtins, sys
            asked = set()
            real = builtins.__import__
            def recording(name, globals=None, *args, **kwargs):
                if name.partition(".")[0] == "networkx" and globals:
                    asked.add(globals.get("__name__"))
                return real(name, globals, *args, **kwargs)
            builtins.__import__ = recording
            import repro.routing.updown
            from repro.core.remapper import route_cycle
            from repro.topology.generators import build_ring
            tables, ok = route_cycle(build_ring(4))
            assert ok and len(tables) == 4
            cycle = {"repro.routing.updown", "repro.routing.paths",
                     "repro.routing.compile_routes", "repro.routing.deadlock",
                     "repro.core.remapper"}
            print(sorted(asked & cycle))
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(updown.__file__).parents[2])},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
