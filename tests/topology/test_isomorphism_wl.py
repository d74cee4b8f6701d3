"""Production matching against the pairwise oracle, on host-anchored fabrics.

``match_networks`` is host-anchored propagation plus a witness check; it
once also ran a Weisfeiler-Leman class prefilter and a backtracking
fallback (hence the file name, kept so the test ids stay put). On a
fabric where every switch shares a component with a host, propagation
alone decides, so ``reference_isomorphism.match_networks_pairwise`` — the
same propagation followed by an exhaustive search — must reach the same
verdict on every pair, including pendants, parallel wires and loopbacks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import (
    build_mesh,
    build_ring,
    build_three_tier_fat_tree,
    build_torus,
    random_san,
)
from repro.topology.isomorphism import match_networks
from repro.topology.model import Network, TopologyError
from tests.topology.reference_isomorphism import match_networks_pairwise
from tests.topology.reference_queries import used_ports


def _shifted_copy(net: Network, rng: random.Random) -> Network:
    """Same wiring with a random per-switch port offset (legal by radix)."""
    out = Network()
    shift: dict[str, int] = {}
    for s in net.switches:
        out.add_switch(s, radix=net.radix(s))
        ports = used_ports(net, s)
        lo = min(ports) if ports else 0
        hi = max(ports) if ports else 0
        shift[s] = rng.randint(-lo, net.radix(s) - 1 - hi)
    for h in net.hosts:
        out.add_host(h)
        shift[h] = 0
    for w in net.wires:
        out.connect(
            w.a.node, w.a.port + shift[w.a.node],
            w.b.node, w.b.port + shift[w.b.node],
        )
    return out


def _assert_verdicts_agree(model: Network, actual: Network) -> None:
    auto = match_networks(model, actual)
    oracle = match_networks_pairwise(model, actual)
    assert auto.isomorphic == oracle.isomorphic, (
        auto.reason, oracle.reason
    )
    if auto.isomorphic:
        # Each search may pick a different witness, but both must be
        # complete over the switch set.
        assert set(auto.node_map) == set(oracle.node_map)


class TestStrategyDispatch:
    def test_wl_refutes_without_search(self):
        """Structurally different same-size networks are refuted by
        propagation, with no class prefilter and no search."""
        a = build_mesh(2, 3)
        b = build_ring(6)
        report = match_networks(a, b)
        assert not report


class TestMergeHeavyRegularTopologies:
    """The regular families are the merge-heaviest maps the repo builds:
    every switch looks locally alike, so signatures must separate them by
    structure alone."""

    @pytest.mark.parametrize("build", [
        lambda: build_ring(6),
        lambda: build_mesh(3, 3),
        lambda: build_torus(3, 3),
        lambda: build_three_tier_fat_tree(4),
    ])
    def test_self_match_both_strategies(self, build):
        _assert_verdicts_agree(build(), build())

    @pytest.mark.parametrize("build", [
        lambda: build_ring(6),
        lambda: build_torus(3, 3),
        lambda: build_three_tier_fat_tree(4),
    ])
    def test_port_shifted_copies_match(self, build):
        net = build()
        _assert_verdicts_agree(net, _shifted_copy(net, random.Random(7)))


class TestRandomDifferential:
    def test_random_sans_verdicts_agree(self):
        """Shifted copies (isomorphic) and independent draws (usually not):
        120 verdict pairs, zero disagreements allowed."""
        rng = random.Random(42)
        checked = 0
        for trial in range(120):
            try:
                model = random_san(
                    n_switches=rng.randint(1, 6),
                    n_hosts=rng.randint(2, 5),
                    extra_links=rng.randint(0, 4),
                    parallel_link_prob=rng.choice([0.0, 0.5]),
                    seed=rng.randint(0, 10_000),
                )
            except TopologyError:
                continue
            if trial % 2 == 0:
                actual = _shifted_copy(model, rng)
            else:
                try:
                    actual = random_san(
                        n_switches=model.n_switches,
                        n_hosts=model.n_hosts,
                        extra_links=rng.randint(0, 4),
                        parallel_link_prob=0.0,
                        seed=rng.randint(0, 10_000),
                    )
                except TopologyError:
                    continue
            _assert_verdicts_agree(model, actual)
            checked += 1
        assert checked >= 60


class TestHostFreeClusters:
    """Pendants behind a switch-bridge carry no host but share the core's
    component: propagation crosses the bridge, and both matchers agree."""

    def _pendant(self, ports=(0, 3), tail=5):
        b = NetworkBuilder()
        b.switches("core", "f0", "f1")
        b.hosts("h0", "h1")
        b.attach("h0", "core", port=0)
        b.attach("h1", "core", port=1)
        b.link("core", "f0", port_a=6, port_b=ports[0])
        b.link("f0", "f1", port_a=ports[1], port_b=tail)
        return b.build()

    def test_offset_pendants_agree(self):
        _assert_verdicts_agree(
            self._pendant(ports=(0, 3), tail=5),
            self._pendant(ports=(2, 5), tail=1),
        )

    def test_spacing_mismatch_agree(self):
        _assert_verdicts_agree(
            self._pendant(ports=(0, 3)), self._pendant(ports=(0, 4))
        )

    def test_permuted_pendants_agree(self):
        def build(order):
            b = NetworkBuilder()
            b.switches("core", *order)
            b.hosts("h0", "h1")
            b.attach("h0", "core", port=0)
            b.attach("h1", "core", port=1)
            b.link("core", order[0], port_a=5, port_b=0)
            b.link("core", order[1], port_a=6, port_b=0)
            return b.build()

        _assert_verdicts_agree(build(("fa", "fb")), build(("fb", "fa")))


@st.composite
def _host_anchored_pair(draw):
    """A connected fabric with at least one host (so every switch shares a
    component with one), and a second network to compare it with.

    The fabric is a random switch tree — its host-free leaves are
    pendants — plus parallel wires, loopbacks and extra links. The second
    network is a port-shifted, renamed copy (isomorphic), or that copy
    with one wire end moved to a free port (usually not).
    """
    switches = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    model = Network()
    free = {}
    for s in switches:
        model.add_switch(s, radix=8)
        free[s] = list(range(8))

    def port(node):
        p = draw(st.sampled_from(free[node]))
        free[node].remove(p)
        return p

    def wire(a, b):
        if len(free[a]) >= 1 + (a == b) and free[b]:
            model.connect(a, port(a), b, port(b))

    for i in range(1, len(switches)):
        wire(switches[i], switches[draw(st.integers(0, i - 1))])
    for h in range(draw(st.integers(1, 4))):
        s = switches[0] if h == 0 else draw(st.sampled_from(switches))
        if free[s]:
            model.add_host(f"h{h}")
            model.connect(f"h{h}", 0, s, port(s))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("parallel", "loopback", "extra")))
        a = draw(st.sampled_from(switches))
        if kind == "loopback":
            b = a
        elif kind == "parallel":
            peers = sorted(
                {w.b.node if w.a.node == a else w.a.node for w in model.wires_of(a)}
                & set(switches)
            )
            if not peers:
                continue
            b = draw(st.sampled_from(peers))
        else:
            b = draw(st.sampled_from(switches))
        wire(a, b)

    rng = random.Random(draw(st.integers(0, 2**16)))
    shifted = _shifted_copy(model, rng)
    rename = dict(zip(switches, rng.sample(switches, len(switches))))
    wires = [
        (rename.get(w.a.node, w.a.node), w.a.port, rename.get(w.b.node, w.b.node), w.b.port)
        for w in shifted.wires
    ]
    if wires and draw(st.booleans()):
        i = draw(st.integers(0, len(wires) - 1))
        a, pa, b, pb = wires[i]
        used = {(x, px) for x, px, _, _ in wires} | {(y, py) for _, _, y, py in wires}
        spare = [p for p in range(8) if (b, p) not in used]
        if b in rename.values() and spare:
            wires[i] = (a, pa, b, draw(st.sampled_from(spare)))
    actual = Network()
    for s in switches:
        actual.add_switch(rename[s], radix=8)
    for h in model.hosts:
        actual.add_host(h)
    for a, pa, b, pb in wires:
        actual.connect(a, pa, b, pb)
    return model, actual


@settings(max_examples=150, deadline=None)
@given(_host_anchored_pair())
def test_host_anchored_verdicts_equal_the_pairwise_oracle(pair):
    model, actual = pair
    assert model.n_hosts >= 1
    _assert_verdicts_agree(model, actual)
