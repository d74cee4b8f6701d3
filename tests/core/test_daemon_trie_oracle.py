"""Oracle: a daemon whose probe trie spans cycles ≡ one that flushes it.

The probe trie lives with the network, so a ``RemapperDaemon`` running on
one network re-reads, cycle after cycle, the walks its earlier cycles
cached, pruned by the journal after each cut. The trie is a cache: a
twin daemon on an identical network, whose trie is flushed whole before
every cycle, must produce the same cycles to the byte — maps, witnesses
and entry ports, probe counts and simulated time, route generations and
fallback reasons — over any sequence of cuts, heals and cut-and-plugs.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.mapper import MappingError
from repro.core.remapper import RemapperDaemon
from repro.service.serialize import route_tables_to_dict
from repro.simulator.path_eval import IncrementalPathEvaluator
from repro.topology.generators import random_san
from repro.topology.model import Network, TopologyError
from repro.topology.serialize import network_to_dict

_fabrics = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=2, max_value=6),
        "n_hosts": st.integers(min_value=2, max_value=6),
        "extra_links": st.integers(min_value=0, max_value=4),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)
_steps = st.lists(
    st.tuples(
        st.sampled_from(["cut", "heal", "cut+plug"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=5,
)


def _trunks(net: Network) -> list[tuple[str, int, str, int]]:
    return sorted(
        (w.a.node, w.a.port, w.b.node, w.b.port)
        for w in net.wires
        if net.is_switch(w.a.node) and net.is_switch(w.b.node)
    )


def _free_ports(net: Network) -> list[tuple[str, int]]:
    return [(s, p) for s in sorted(net.switches) for p in net.free_ports(s)]


def _step(net: Network, op: str, draw: int, cut: list) -> None:
    """Apply one step; both twins see the same draws on equal networks."""
    rnd = random.Random(draw)
    if op == "heal":
        free = set(_free_ports(net))
        open_cuts = [w for w in cut if {w[:2], w[2:]} <= free]
        if open_cuts:
            wire = rnd.choice(open_cuts)
            cut.remove(wire)
            net.connect(*wire)
        return
    trunks = _trunks(net)
    if trunks:
        wire = rnd.choice(trunks)
        net.disconnect(net.wire_at(wire[0], wire[1]))
        cut.append(wire)
    if op == "cut+plug":
        free = _free_ports(net)
        if len(free) >= 2:
            (a, pa), (b, pb) = rnd.sample(free, 2)
            net.connect(a, pa, b, pb)


def _cycle(daemon: RemapperDaemon):
    try:
        cycle = daemon.run_cycle()
    except (MappingError, TopologyError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    result = cycle.map_result
    return (
        network_to_dict(result.network),
        result.witnesses,
        result.entry_ports,
        result.stats.total_probes,
        cycle.elapsed_ms,
        route_tables_to_dict(daemon.current_tables),
        cycle.seed_fallback,
    )


@given(fabric=_fabrics, steps=_steps)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kept_trie_daemon_equals_flushed_trie_daemon(fabric, steps):
    try:
        nets = [random_san(**fabric), random_san(**fabric)]
    except TopologyError:
        return
    h0 = sorted(nets[0].hosts)[0]
    kept, flushed = (RemapperDaemon(net, h0, incremental=True) for net in nets)
    cuts: list[list] = [[], []]
    assert _cycle(kept) == _cycle(flushed)
    for op, draw in steps:
        for net, cut in zip(nets, cuts):
            _step(net, op, draw, cut)
        IncrementalPathEvaluator(nets[1]).invalidate()
        assert _cycle(kept) == _cycle(flushed)
