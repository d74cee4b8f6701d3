"""Differential suite: ``diff_networks`` (one scan per switch) equals the
per-host oracle (``reference_diff.py``) field for field.

Sequences of seeded cuts, plugs, host moves, arrivals and departures run
on subcluster C and on random fabrics; after every step the diff against
the previous map and against the first one must be the same ``MapDiff``,
and so must the diff against the last map with its switches renamed (a
fresh map names them anew). Plugs land on any free port, so host–host
cables, loopbacks and detached hosts all occur.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.topology.diff import diff_networks
from repro.topology.generators import build_subcluster, random_san
from repro.topology.model import Network, TopologyError
from tests.topology.reference_diff import reference_diff_networks

OPS = ("cut", "plug", "move", "add", "drop")


def _free_switch_port(net: Network, rng: random.Random) -> tuple[str, int] | None:
    roomy = [s for s in sorted(net.switches) if net.free_ports(s)]
    if not roomy:
        return None
    s = rng.choice(roomy)
    return s, rng.choice(net.free_ports(s))


def mutate(net: Network, rng: random.Random, op: str, serial: int) -> None:
    """One seeded change; a change that finds nothing to act on is a no-op."""
    if op == "cut":
        wires = sorted(net.wires, key=lambda w: w.key)
        if wires:
            net.disconnect(rng.choice(wires))
    elif op == "plug":
        ends = [(n, p) for n in sorted(net.nodes) for p in net.free_ports(n)]
        if len(ends) >= 2:
            (a, pa), (b, pb) = rng.sample(ends, 2)
            net.connect(a, pa, b, pb)
    elif op == "move":
        attached = [h for h in sorted(net.hosts) if net.wire_at(h, 0) is not None]
        if attached:
            host = rng.choice(attached)
            net.disconnect(net.wire_at(host, 0))
            end = _free_switch_port(net, rng)
            if end is not None:
                net.connect(host, 0, *end)
    elif op == "add":
        host = net.add_host(f"new-{serial}")
        end = _free_switch_port(net, rng)
        if end is not None:
            net.connect(host, 0, *end)
    elif op == "drop":
        if net.n_hosts > 2:
            net.remove_node(rng.choice(sorted(net.hosts)))


def renamed(net: Network, rng: random.Random) -> Network:
    """``net`` with its switches renamed the way a fresh map names them."""
    switches = sorted(net.switches)
    names = [f"switch-{i}" for i in range(len(switches))]
    rng.shuffle(names)
    name = dict(zip(switches, names))
    out = Network(default_radix=net.default_radix)
    for node in net.nodes:
        if net.is_host(node):
            out.add_host(node)
        else:
            out.add_switch(name[node], radix=net.radix(node))
    for w in net.wires:
        out.connect(name.get(w.a.node, w.a.node), w.a.port, name.get(w.b.node, w.b.node), w.b.port)
    return out


def assert_diffs_agree(old: Network, new: Network) -> None:
    assert diff_networks(old, new) == reference_diff_networks(old, new)


def run_sequence(net: Network, seed: int, ops: list[str]) -> None:
    rng = random.Random(seed)
    first = net.copy()
    for serial, op in enumerate(ops):
        before = net.copy()
        mutate(net, rng, op, serial)
        assert_diffs_agree(before, net)
        assert_diffs_agree(first, net)
        assert_diffs_agree(net, first)
    assert_diffs_agree(first, renamed(net, rng))


SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SEQUENCES = st.lists(st.sampled_from(OPS), min_size=1, max_size=6)


class TestDiffEqualsPerHostOracle:
    @settings(SETTINGS, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10**6), ops=SEQUENCES)
    def test_subcluster_c(self, seed, ops):
        run_sequence(build_subcluster("C"), seed, ops)

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_switches=st.integers(min_value=1, max_value=5),
        n_hosts=st.integers(min_value=2, max_value=9),
        extra_links=st.integers(min_value=0, max_value=3),
        ops=SEQUENCES,
    )
    def test_random_fabrics(self, seed, n_switches, n_hosts, extra_links, ops):
        try:
            net = random_san(
                n_switches=n_switches,
                n_hosts=n_hosts,
                extra_links=extra_links,
                parallel_link_prob=0.5,
                seed=seed,
            )
        except TopologyError:
            return  # density does not fit the radix
        run_sequence(net, seed, ops)

    def test_every_field_can_differ(self):
        """The sequences above reach every non-default ``MapDiff`` field."""
        net = build_subcluster("C")
        first = net.copy()
        rng = random.Random(0)
        for serial, op in enumerate(["move", "add", "drop", "cut", "plug"]):
            mutate(net, rng, op, serial)
        d = diff_networks(first, net)
        assert d == reference_diff_networks(first, net)
        assert d.hosts_added and d.hosts_removed and d.hosts_moved
        assert d.degree_profile_changed
