"""The route memo (docs/ALGORITHM.md §6): a generation patched from the
last one committed equals a full compile of the same map.

For every generation a :class:`RouteMemo` hands back — patched or
compiled whole — the suite requires, against ``compile_route_tables``
with no memo on the same map and paths:

- equal ``channels``, ``chains``, ``pairs``, ``heads`` and ``numbered``,
  hence a byte-identical version-4 document, and equal turn keys;
- the same Dally–Seitz verdict;
- a diff against the previously committed generation (through the
  inherited moved tails) equal to the route-by-route oracle's diff of
  the full compile, and an equal ``DistributionReport``.

Over hypothesis sequences of cuts, heals, plugs (new pairs and parallel
cables), host moves (to another port or another switch), added hosts and
stranded hosts on random fabrics; over a scripted sequence that reaches
every fallback reason; over ``now_recover``'s ``CutPlanner`` epochs
(seeds 1–3, three epochs of eight cuts each) through the daemon; and
over a daemon cycle whose routing raises, which must leave the memo, the
map and the tables as they were.

Hand-run mutants of the patch, each failing this suite:

- the channel half of the dirty test dropped (a cell kept when its walk
  is unchanged but a channel on it changed value);
- the replay numbering channels in id order instead of first-seen
  order;
- the recompiled chains' ids not spliced into the walk;
- a chain, or a tail's last channel, renumbered but not respelled;
- the reachability fallback dropped (the patch then follows an
  unreachable cell's successors for ever: the suite hangs);
- the host → switch assignment fallback dropped;
- a tail's key inherited although its last channel changed value;
- the parallel-cable check on the new map dropped.

Reading each walk off the old successors instead of the new ones is an
equivalent mutant: the two walks agree up to the first state whose
successor changed, and both flag that state.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.remapper import RemapperDaemon, route_cycle
from repro.routing.compile_routes import RouteGeneration, RouteMemo, compile_route_tables
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.incremental import diff_route_tables, distribute_incremental
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import route_tables_to_dict
from repro.topology.model import Network
from tests.routing.reference_incremental import reference_diff_route_tables

PARTS = ("channels", "chains", "pairs", "heads", "numbered")


def assert_same_generation(got: RouteGeneration, fresh: RouteGeneration) -> None:
    for part in PARTS:
        assert getattr(got, part) == getattr(fresh, part), part
    assert route_tables_to_dict(got) == route_tables_to_dict(fresh)
    assert got.turn_keys == fresh.turn_keys


def assert_exact(net: Network, got, fresh, old) -> None:
    assert_same_generation(got, fresh)
    assert routes_deadlock_free(got) == routes_deadlock_free(fresh)
    want = reference_diff_route_tables(old, fresh)
    assert list(diff_route_tables(old, got).items()) == list(want.items())
    mapper = sorted(net.hosts)[0]
    report = distribute_incremental(net, mapper, got, old)
    assert report == distribute_incremental(net, mapper, fresh, old)


def step(net: Network, memo: RouteMemo, old):
    """Route ``net`` through ``memo``, check it against a full compile and
    commit it; returns the committed generation (``old`` when the fabric
    cannot be oriented)."""
    try:
        paths = all_pairs_updown_paths(net, orient_updown(net))
    except ValueError:
        return old
    got = compile_route_tables(net, paths, memo=memo)
    assert_exact(net, got, compile_route_tables(net, paths), old)
    memo.commit(got)
    return got


def _trunk(net: Network) -> list:
    return sorted(
        (w for w in net.wires if net.is_switch(w.a.node) and net.is_switch(w.b.node)),
        key=lambda w: w.key,
    )


def _roomy(net: Network) -> list[str]:
    return sorted(s for s in net.switches if net.free_ports(s))


def _leaves(net: Network) -> list[tuple[str, object]]:
    return [
        (host, end)
        for host in sorted(net.hosts)
        if (end := net.host_attachment(host)) is not None and net.is_switch(end.node)
    ]


def _adjacent(net: Network, a: str, b: str) -> bool:
    return any(b in wire.nodes for wire in net.wires_of(a))


class Fabric:
    """A fabric and the edits a sequence applies to it."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.cut: list = []
        self.added = 0

    def apply(self, kind: str, at: int) -> None:
        net, rng = self.net, random.Random(at)
        if kind == "cut" and _trunk(net):
            wire = _trunk(net)[at % len(_trunk(net))]
            net.disconnect(wire)
            self.cut.append((wire.a, wire.b))
        elif kind == "heal" and self.cut:
            a, b = self.cut.pop(at % len(self.cut))
            if a.port in net.free_ports(a.node) and b.port in net.free_ports(b.node):
                net.connect(a.node, a.port, b.node, b.port)
        elif kind == "plug" and len(_roomy(net)) >= 2:
            # a new pair when there is one, else a parallel cable
            roomy = _roomy(net)
            pairs = [(a, b) for a in roomy for b in roomy if a < b]
            apart = [(a, b) for a, b in pairs if not _adjacent(net, a, b)]
            a, b = rng.choice(apart or pairs)
            net.connect(a, net.free_ports(a)[0], b, net.free_ports(b)[0])
        elif kind in ("port", "move") and _leaves(net):
            host, end = _leaves(net)[at % len(_leaves(net))]
            targets = [end.node] if kind == "port" else [s for s in _roomy(net) if s != end.node]
            targets = [s for s in targets if net.free_ports(s)]
            if targets:
                switch = targets[at % len(targets)]
                net.disconnect(net.wire_at(host, 0))
                net.connect(host, 0, switch, net.free_ports(switch)[at % len(net.free_ports(switch))])
        elif kind == "add" and _roomy(net):
            switch = _roomy(net)[at % len(_roomy(net))]
            name = f"extra-{self.added}"
            self.added += 1
            net.add_host(name)
            net.connect(name, 0, switch, net.free_ports(switch)[0])
        elif kind == "strand" and _leaves(net):
            host, _ = _leaves(net)[at % len(_leaves(net))]
            net.disconnect(net.wire_at(host, 0))


def _fabric(seed: int, n_switches: int, n_hosts: int, extra: int, parallel: bool) -> Network:
    """A random connected fabric: a random switch tree, ``extra`` more
    switch-to-switch cables (a pair cabled twice only when ``parallel``)
    and ``n_hosts`` leaves."""
    rng = random.Random(seed)
    net = Network()
    switches = [f"s{i}" for i in range(n_switches)]
    for i, switch in enumerate(switches):
        net.add_switch(switch)
        if i:
            other = rng.choice([s for s in switches[:i] if net.free_ports(s)])
            net.connect(switch, net.free_ports(switch)[0], other, net.free_ports(other)[0])
    for _ in range(extra):
        a, b = rng.sample(switches, 2)
        if net.free_ports(a) and net.free_ports(b) and (parallel or not _adjacent(net, a, b)):
            net.connect(a, net.free_ports(a)[0], b, net.free_ports(b)[0])
    for j in range(n_hosts):
        roomy = [s for s in switches if net.free_ports(s)]
        if roomy:
            switch = rng.choice(roomy)
            net.add_host(f"h{j}")
            net.connect(f"h{j}", 0, switch, rng.choice(net.free_ports(switch)))
    return net


KINDS = ["cut", "cut", "cut", "heal", "heal", "port", "port", "plug", "move", "add", "strand"]

_steps = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(min_value=0, max_value=10**4)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_switches=st.integers(min_value=2, max_value=8),
    n_hosts=st.integers(min_value=2, max_value=10),
    extra=st.integers(min_value=0, max_value=6),
    parallel=st.sampled_from([False, False, False, True]),
    steps=_steps,
)
def test_cut_heal_plug_sequences_on_random_fabrics(
    seed, n_switches, n_hosts, extra, parallel, steps
):
    net = _fabric(seed, n_switches, n_hosts, extra, parallel)
    fabric, memo = Fabric(net), RouteMemo()
    old = step(net, memo, None)
    for kind, at in steps:
        fabric.apply(kind, at)
        old = step(net, memo, old)


def _ring(n: int = 5, hosts: int = 2) -> Network:
    """A ring of ``n`` switches, ``hosts`` leaves on each."""
    net = Network()
    for i in range(n):
        net.add_switch(f"s{i}")
    for i in range(n):
        net.connect(f"s{i}", 0, f"s{(i + 1) % n}", 1)
        for j in range(hosts):
            net.add_host(f"h{i}{j}")
            net.connect(f"h{i}{j}", 0, f"s{i}", 2 + j)
    return net


def test_a_scripted_sequence_reaches_every_fallback_reason():
    net, memo = _ring(), RouteMemo()
    script = [
        ("start", None, "first call"),
        ("cut a ring wire", lambda: net.disconnect(net.wire_at("s0", 0)), None),
        ("move a host to another port", lambda: _repoint("h21", "s2", 6), None),
        ("cut the ring in two", lambda: net.disconnect(net.wire_at("s2", 0)), "a cell's reachability changed"),
        ("heal it", lambda: net.connect("s2", 0, "s3", 1), "a cell's reachability changed"),
        ("move a host to another switch", lambda: _repoint("h10", "s4", 6), "a host changed switch"),
        ("add a host", lambda: _plug_host("h99", "s3", 5), "different state numbering"),
        ("a parallel cable", lambda: net.connect("s3", 6, "s4", 7), "parallel cables"),
        ("pull it", lambda: net.disconnect(net.wire_at("s3", 6)), "parallel cables"),
        ("a quiet step", lambda: None, None),
        ("strand a host", lambda: net.disconnect(net.wire_at("h99", 0)), "a host that is not a leaf"),
        ("plug it back", lambda: net.connect("h99", 0, "s3", 5), "a host that is not a leaf"),
        ("heal the first cut", lambda: net.connect("s0", 0, "s1", 1), None),
    ]

    def _repoint(host: str, switch: str, port: int) -> None:
        net.disconnect(net.wire_at(host, 0))
        net.connect(host, 0, switch, port)

    def _plug_host(host: str, switch: str, port: int) -> None:
        net.add_host(host)
        net.connect(host, 0, switch, port)

    old = None
    seen = []
    for label, edit, reason in script:
        if edit is not None:
            edit()
        old = step(net, memo, old)
        seen.append((label, memo.fallback))
        if reason is None:
            assert memo.cells_run < len(old.chains), label
    assert seen == [(label, reason) for label, _, reason in script]


def _load_workloads():
    """``benchmarks/e2e/workloads.py``, whose ``CutPlanner`` draws the
    cuts of the ``now_recover`` workload."""
    if "e2e_workloads" in sys.modules:
        return sys.modules["e2e_workloads"]
    e2e = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
    spec = importlib.util.spec_from_file_location("e2e_workloads", e2e / "workloads.py")
    module = sys.modules["e2e_workloads"] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(e2e))  # it imports its sibling ``meter``
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(e2e))
    return module


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_now_recover_cut_epochs_through_the_daemon(seed):
    """Every generation the daemon routes after a ``CutPlanner`` cut is a
    fresh ``route_cycle`` of its map, patched or not, with the same
    deadlock verdict and distribution report."""
    workloads = _load_workloads()
    planner = workloads.CutPlanner(seed, False)
    patched = routed = 0
    for _ in range(3):
        net = workloads._now_fabric(False)
        mapper = sorted(net.hosts)[0]
        daemon = RemapperDaemon(net, mapper, incremental=True)
        daemon.run_cycle()
        assert daemon.state.route_memo.fallback == "first call"
        for (node, port), _ in planner.epoch():
            net.disconnect(net.wire_at(node, port))
            old = daemon.current_tables
            cycle = daemon.run_cycle()
            if not cycle.routes_recomputed:
                continue
            routed += 1
            fresh = route_cycle(daemon.current_map)
            assert_same_generation(daemon.current_tables, fresh)
            assert cycle.deadlock_free == routes_deadlock_free(fresh)
            assert cycle.distribution == distribute_incremental(
                daemon.current_map, mapper, fresh, old
            )
            if daemon.state.route_memo.fallback is None:
                patched += 1
                assert daemon.state.route_memo.cells_run < len(fresh.chains)
            else:  # a re-explored switch took another's name
                assert daemon.state.route_memo.fallback == "a host changed switch"
    assert routed == 24
    assert patched >= 20


def test_a_cycle_whose_routing_fails_leaves_the_memo_as_it_was():
    """The mapper host stranded by a cut (the chain tenant of the served
    burst) makes routing raise. That cycle leaves the route memo, the
    map and the tables exactly as they were, and the next cycle that
    routes is patched from the last committed generation and equals a
    fresh ``route_cycle`` of its map."""
    net = _ring(4)
    net.add_switch("edge")
    net.connect("edge", 0, "s0", 6)
    net.add_host("mapper")
    net.connect("mapper", 0, "edge", 1)
    daemon = RemapperDaemon(net, "mapper", incremental=True)
    daemon.run_cycle()
    net.disconnect(net.wire_at("s1", 0))
    daemon.run_cycle()
    memo = daemon.state.route_memo
    assert memo.fallback is None and memo.cells_run > 0
    held = (memo.fallback, memo.cells_run, memo._generation, memo._basis)
    current = (daemon.current_map, daemon.current_tables)

    net.disconnect(net.wire_at("edge", 0))
    with pytest.raises(ValueError):
        daemon.run_cycle()
    assert (memo.fallback, memo.cells_run, memo._generation, memo._basis) == held
    assert memo._generation is held[2] and memo._basis is held[3]
    assert daemon.current_map is current[0] and daemon.current_tables is current[1]

    net.connect("edge", 0, "s0", 6)
    net.connect("s1", 0, "s2", 1)
    old = daemon.current_tables
    cycle = daemon.run_cycle()
    assert cycle.routes_recomputed and memo.fallback is None
    fresh = route_cycle(daemon.current_map)
    assert_same_generation(daemon.current_tables, fresh)
    assert cycle.deadlock_free == routes_deadlock_free(fresh)
    assert list(diff_route_tables(old, daemon.current_tables).items()) == list(
        reference_diff_route_tables(old, fresh).items()
    )


def test_a_generation_compiled_without_a_memo_is_not_committed():
    net = _ring()
    paths = all_pairs_updown_paths(net, orient_updown(net))
    with pytest.raises(ValueError):
        RouteMemo().commit(compile_route_tables(net, paths))
