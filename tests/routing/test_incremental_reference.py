"""Differential suite: distribution reads a route generation by number —
first turns and tail turns straight off its rows, no route built just to
be compared — and sends exactly what the route-by-route diff sent.

The oracle is ``reference_incremental.py``, the diff as it stood before
generations were held by number. Over hypothesis sequences of trunk cuts,
re-plugs and host moves (a host re-plugged into another port of its
switch changes its first turns and no tail) on subcluster C and on seeded
random fabrics (parallel and loopback cables, pendant switches, islands),
each cycle's routes against the previous cycle's:

- every ``RouteTableDelta``, in host order, equals the oracle's — for the
  generations as compiled and for plain dicts of their tables (the
  hand-built path, numbered by ``as_generation``);
- ``distribute_incremental`` reports the same ``bytes_sent``, time and
  ``delivered`` / ``failed`` lists as it does over the oracle's diff, and
  as the oracle's distribution loop does — on the first cycle too, a full
  push, which counts its routes and builds no turn string.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.core.remapper import route_cycle
from repro.routing import incremental
from repro.routing.compile_routes import RouteTable
from repro.routing.incremental import diff_route_tables, distribute_incremental
from repro.topology.generators import build_named_topology
from repro.topology.model import Network, TopologyError
from tests.routing.reference_incremental import reference_diff_route_tables, reference_distribute
from tests.topology.test_analysis_reference import seeded_fabric


def _plain(tables):
    """The same routes as hand-built tables: plain dicts of route values."""
    if tables is None:
        return None
    return {host: RouteTable(host, dict(table.routes)) for host, table in tables.items()}


def assert_distribution_agrees(net: Network, old, new) -> None:
    for before, after in ((old, new), (_plain(old), _plain(new))):
        got = diff_route_tables(before, after)
        want = reference_diff_route_tables(before, after)
        assert list(got.items()) == list(want.items())
    mapper = sorted(net.hosts)[0]
    report = distribute_incremental(net, mapper, new, old)
    assert report == reference_distribute(net, mapper, new, old)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "diff_route_tables", reference_diff_route_tables)
        assert report == distribute_incremental(net, mapper, new, old)


def _trunk(net: Network) -> list:
    return sorted(
        (w for w in net.wires if net.is_switch(w.a.node) and net.is_switch(w.b.node)),
        key=lambda w: w.key,
    )


def _move_a_host(net: Network, at: int) -> str | None:
    """Re-plug a host into another free port of its switch: its first
    turns change, the tails it uses do not. Returns the host moved."""
    movable = [
        (host, end)
        for host in sorted(net.hosts)
        if (end := net.host_attachment(host)) is not None
        and net.is_switch(end.node)
        and net.free_ports(end.node)
    ]
    if movable:
        host, end = movable[at % len(movable)]
        free = net.free_ports(end.node)  # the host's own port is not one
        net.disconnect(net.wire_at(host, 0))
        net.connect(host, 0, end.node, free[at % len(free)])
        return host
    return None


def replay(net: Network, steps: list[tuple[int, int]]) -> int:
    """Route ``net``, then per step cut a trunk (0), re-plug a cut one (1)
    or move a host to another port of its switch (2), routing again after
    each; every cycle's distribution is checked against the last routed
    cycle's. Returns the cycles routed."""
    cut: list = []
    old = None
    cycles = 0
    for kind, at in [(-1, 0), *steps]:
        trunk = _trunk(net)
        if kind == 0 and trunk:
            wire = trunk[at % len(trunk)]
            net.disconnect(wire)
            cut.append((wire.a, wire.b))
        elif kind == 1 and cut:
            a, b = cut.pop(at % len(cut))
            if a.port in net.free_ports(a.node) and b.port in net.free_ports(b.node):
                net.connect(a.node, a.port, b.node, b.port)
        elif kind == 2:
            _move_a_host(net, at)
        try:
            new = route_cycle(net)
        except ValueError:
            continue  # nothing left to orient; a later step may heal it
        assert_distribution_agrees(net, old, new)
        old = new
        cycles += 1
    return cycles


_steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10**4)),
    max_size=5,
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=_steps)
def test_cut_and_plug_sequences_on_subcluster_c(steps):
    assert replay(build_named_topology("now-c", {}), steps) >= 1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_switches=st.integers(min_value=1, max_value=7),
    n_hosts=st.integers(min_value=2, max_value=6),
    extra_links=st.integers(min_value=0, max_value=4),
    pendants=st.integers(min_value=0, max_value=2),
    loopbacks=st.integers(min_value=0, max_value=2),
    steps=_steps,
)
def test_cut_and_plug_sequences_on_drawn_fabrics(
    seed, n_switches, n_hosts, extra_links, pendants, loopbacks, steps
):
    try:
        net = seeded_fabric(seed, n_switches, n_hosts, extra_links, pendants, loopbacks)
    except TopologyError:
        reject()  # density does not fit the radix
    replay(net, steps)


def test_a_cut_changes_some_routes_and_a_replug_restores_them():
    """The sequences above are only a differential test if deltas are not
    all empty: one fixed cut on subcluster C moves routes, and plugging
    the cable back moves them back."""
    net = build_named_topology("now-c", {})
    before = route_cycle(net)
    wire = _trunk(net)[0]
    net.disconnect(wire)
    after = route_cycle(net)
    assert_distribution_agrees(net, before, after)
    assert sum(d.n_updates for d in diff_route_tables(before, after).values()) > 0
    net.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
    healed = route_cycle(net)
    assert_distribution_agrees(net, after, healed)
    assert all(d.empty for d in diff_route_tables(before, healed).values())


def test_a_moved_host_changes_first_turns_only():
    """A host re-plugged into another port of its switch: every route out
    of it changes where it meets its tail, and nothing else changes."""
    net = build_named_topology("now-c", {})
    before = route_cycle(net)
    host = _move_a_host(net, 0)
    after = route_cycle(net)
    assert_distribution_agrees(net, before, after)
    changed = diff_route_tables(before, after)[host].changed
    assert changed and all(
        turns[1:] == before[host].routes[dst].turns[1:] for dst, turns in changed.items()
    )


def test_a_full_push_builds_no_turn_string():
    """With no previous generation every route is an addition: the push
    counts them per host and never spells a turn string (it used to build
    all 9 900 on the full NOW only to count them)."""
    net = build_named_topology("now-full", {})
    tables = route_cycle(net)
    mapper = sorted(net.hosts)[0]
    spelled = []
    real = incremental._sent
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "_sent", lambda *a: spelled.append(a) or real(*a))
        report = distribute_incremental(net, mapper, tables, None)
        assert not spelled
        # A cut's push does diff, and spells what it sends.
        wire = _trunk(net)[0]
        net.disconnect(wire)
        after = route_cycle(net)
        assert distribute_incremental(net, mapper, after, tables).ok
        assert spelled
    assert report == reference_distribute(net, mapper, tables, None)
    assert report.ok and report.bytes_sent == 16 * sum(
        len(t.routes) for host, t in tables.items() if host != mapper
    )
