"""A seeded map keeps the names of the switches it kept.

Switch names are what routes are written against: a switch renamed
between two maps moves every route through it in the route diff, though
nothing physical changed. A seed adopts the clean region of the prior map
in name order, so numbering switches afresh by vertex order renamed most
of them on every cut (``switch-10`` is adopted before ``switch-2``).
Here each adopted switch keeps its prior name, a re-explored switch takes
the lowest free ``switch-N``, and a cold map is numbered as before.
"""

from __future__ import annotations

import random

from repro.core.mapper import BerkeleyMapper, MapSeed
from repro.core.model_graph import KIND_HOST, KIND_SWITCH, ModelGraph
from repro.core.remapper import RemapperDaemon
from repro.routing.incremental import diff_route_tables
from repro.simulator.faults import FaultModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import bridges, recommended_search_depth
from repro.topology.generators import build_full_now
from repro.topology.model import Network

#: The seeded cut sequence: six cumulative cuts of switch-to-switch cables,
#: never a bridge, drawn with this seed; the remap after each one seeds.
CUT_SEED = 2
CUTS = 6


def _switch_witnesses(result) -> dict[tuple, str]:
    return {tuple(w): n for n, w in result.witnesses.items() if n.startswith("switch-")}


def test_a_cut_sequence_keeps_names_and_most_routes():
    net = build_full_now()
    daemon = RemapperDaemon(net, sorted(net.hosts)[0], incremental=True)
    daemon.run_cycle()
    trunk = sorted(
        (
            w
            for w in net.wires
            if net.is_switch(w.a.node) and net.is_switch(w.b.node) and w.a.node != w.b.node
        ),
        key=lambda w: w.key,
    )
    random.Random(CUT_SEED).shuffle(trunk)
    cuts = kept = 0
    for wire in trunk:
        if wire.key in {b.key for b in bridges(net)}:
            continue
        prior, old = daemon.state.last_result, daemon.current_tables
        net.disconnect(wire)
        cycle = daemon.run_cycle()
        assert cycle.incremental, cycle.seed_fallback
        before = _switch_witnesses(prior)
        for witness, name in _switch_witnesses(cycle.map_result).items():
            if witness in before:
                assert before[witness] == name, (wire, witness)
                kept += 1
        deltas = diff_route_tables(old, daemon.current_tables)
        changed = sum(delta.n_updates for delta in deltas.values())
        assert cycle.n_routes == 9_900
        assert changed <= 0.15 * 9_900, (wire, changed)
        cuts += 1
        if cuts == CUTS:
            break
    assert cuts == CUTS and kept > 30 * CUTS


def _now_prior():
    net = build_full_now()
    h0 = sorted(net.hosts)[0]
    svc = QuiescentProbeService(net=net, mapper=h0, faults=FaultModel())
    depth = recommended_search_depth(net, h0)
    return svc, depth, BerkeleyMapper(svc, search_depth=depth).map()


def _renamed_seed(prior, witnesses=None) -> MapSeed:
    """``prior``'s map with every switch given a name no fresh map uses."""
    name = {s: f"kept-{s}" for s in prior.network.switches}
    net = Network(default_radix=prior.network.default_radix)
    for node in prior.network.nodes:
        if prior.network.is_host(node):
            net.add_host(node)
        else:
            net.add_switch(name[node], radix=prior.network.radix(node))
    for w in prior.network.wires:
        net.connect(
            name.get(w.a.node, w.a.node), w.a.port, name.get(w.b.node, w.b.node), w.b.port
        )
    return MapSeed(
        network=net,
        witnesses={name.get(n, n): w for n, w in (witnesses or prior.witnesses).items()},
        affected=frozenset(),
        entries={name[n]: port for n, port in prior.entry_ports.items()},
    )


def test_an_adopted_switch_keeps_whatever_name_it_had():
    svc, depth, prior = _now_prior()
    seed = _renamed_seed(prior)
    mapper = BerkeleyMapper(svc, search_depth=depth)
    mapper.seed_with(seed)
    result = mapper.map()
    assert result.seeded
    assert sorted(result.network.nodes) == sorted(seed.network.nodes)
    assert result.witnesses == seed.witnesses


def test_a_seed_fallback_names_the_map_as_a_cold_run_does():
    svc, depth, prior = _now_prior()
    witnesses = dict(prior.witnesses)
    victim = sorted(n for n in witnesses if witnesses[n])[0]
    witnesses[victim] = (7, -7, 7)  # adopted, then contradicted
    mapper = BerkeleyMapper(svc, search_depth=depth)
    mapper.seed_with(_renamed_seed(prior, witnesses))
    result = mapper.map()
    assert not result.seeded and result.seed_fallback
    assert sorted(result.network.nodes) == sorted(prior.network.nodes)
    assert result.witnesses == prior.witnesses


def test_fresh_names_fill_the_lowest_free_numbers():
    """Kept names stay, through a merge too; every other switch takes the
    lowest ``switch-N`` no kept switch or host holds, in vertex order."""
    graph = ModelGraph(radix=8)
    h0 = graph._new_vertex(KIND_HOST, (), host_name="h0")
    switches = [graph._new_vertex(KIND_SWITCH, (i,)) for i in range(5)]
    graph._link(h0, 0, switches[0], 0)
    for a, b in zip(switches, switches[1:]):
        graph._link(a, 1, b, 2)
    odd = graph._new_vertex(KIND_HOST, (9,), host_name="switch-2")
    graph._link(odd, 0, switches[4], 0)
    graph._names[switches[1]] = "switch-4"
    graph._names[switches[3]] = "switch-0"
    lone = graph._new_vertex(KIND_SWITCH, (8,))
    graph._names[lone] = "switch-9"
    graph._merge(switches[2], lone, 0)
    net, witnesses, _ = graph._build_network()
    named = {witness: name for name, witness in witnesses.items()}
    names = [named[s.probe_string] for s in switches]
    assert names == [
        "switch-1",
        "switch-4",
        "switch-9",
        "switch-0",
        "switch-3",
    ]
    assert sorted(net.nodes) == sorted(["h0", "switch-2", *names])
