"""Property test: the remapping daemon converges after arbitrary mutations.

The abstract's claim — "dynamically reconfigurable, automatically adapting
to the addition or removal of hosts, switches and links" — as a property:
apply a random sequence of legal mutations to a live network, run a remap
cycle after each, and the daemon must always end up with a correct map and
valid deadlock-free routes for whatever the network currently is.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.remapper import RemapperDaemon
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.topology.analysis import core_network
from repro.topology.generators import random_san
from repro.topology.isomorphism import match_networks
from repro.topology.model import TopologyError

_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _mutate(net, rng: random.Random, mapper_host: str) -> str:
    """Apply one random legal mutation; returns a description."""
    choice = rng.randrange(4)
    if choice == 0:
        # add a host on a free switch port
        candidates = [s for s in net.switches if net.free_ports(s)]
        if candidates:
            sw = rng.choice(sorted(candidates))
            name = f"new-h{rng.randrange(10_000)}"
            while name in net:
                name = f"new-h{rng.randrange(10_000)}"
            net.add_host(name)
            net.connect(name, 0, sw, net.free_ports(sw)[0])
            return f"added {name} on {sw}"
    if choice == 1:
        # add a redundant switch-switch cable
        pairs = [
            (a, b)
            for a in net.switches
            for b in net.switches
            if a < b and net.free_ports(a) and net.free_ports(b)
        ]
        if pairs:
            a, b = rng.choice(sorted(pairs))
            net.connect(a, net.free_ports(a)[0], b, net.free_ports(b)[0])
            return f"cabled {a}-{b}"
    if choice == 2:
        # remove a non-mapper host
        removable = [h for h in net.hosts if h != mapper_host]
        if len(removable) > 1:
            victim = rng.choice(sorted(removable))
            net.remove_node(victim)
            return f"removed {victim}"
    # remove a redundant cable (keep the network connected)
    for wire in sorted(
        (w for w in net.wires if net.is_switch(w.a.node) and net.is_switch(w.b.node)),
        key=lambda w: (w.a, w.b),
    ):
        net.disconnect(wire)
        if net.is_connected():
            return f"cut {wire}"
        net.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
    return "no-op"


class TestRemapperConvergence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_mutations=st.integers(min_value=1, max_value=4),
    )
    @settings(**_SETTINGS)
    def test_always_correct_after_mutations(self, seed, n_mutations):
        try:
            net = random_san(
                n_switches=4, n_hosts=4, extra_links=2, seed=seed
            )
        except TopologyError:
            return
        rng = random.Random(seed)
        mapper_host = sorted(net.hosts)[0]
        daemon = RemapperDaemon(net, mapper_host)
        daemon.run_cycle()
        for _ in range(n_mutations):
            _mutate(net, rng, mapper_host)
            cycle = daemon.run_cycle()
            if cycle.routes_recomputed:
                assert cycle.deadlock_free
            # The daemon's map must match the CURRENT core exactly.
            report = match_networks(daemon.current_map, core_network(net))
            assert report, report.reason
            # Spot-check routes deliver on the current network.
            hosts = sorted(daemon.current_map.hosts)
            for dst in hosts[:3]:
                if dst == mapper_host:
                    continue
                turns = daemon.route(mapper_host, dst)
                if turns is None:
                    continue
                outcome = evaluate_route(net, mapper_host, turns)
                assert outcome.status is PathStatus.DELIVERED
                assert outcome.delivered_to == dst
