"""Differential suite: what the evaluator derives instead of storing.

A trie node is a parent pointer plus a shared hop record, so several things
that used to be stored per node are now computed: ``ProbeInfo.traversals``
is rebuilt from the parent chain on read (a loopback's retrace from the
same hops), ``hops`` comes from the depth, the circuit verdict from
small-int channel ids, and a walk's node list and failing turn
(``walk_result``) from the traversals and the depth. Each
is held against the pure :func:`evaluate_route` here — on fabrics with
parallel cables and a cable looping one switch back to itself, under all
three collision models, and again after a cut and a plug on a walked path
(a re-created hop reuses its source end's channel id, possibly towards a
different far end).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.simulator.collision import CircuitModel, CutThroughModel, PacketModel
from repro.simulator.path_eval import IncrementalPathEvaluator, PathStatus, evaluate_route
from repro.topology.generators import random_san
from repro.topology.model import TopologyError
from tests.simulator.reference_service import switch_probe_turns
from tests.simulator.trie_view import walk_result

_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=1, max_value=5),
        "n_hosts": st.integers(min_value=2, max_value=5),
        "extra_links": st.integers(min_value=0, max_value=3),
        "parallel_link_prob": st.just(0.5),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)
_turns = st.lists(
    st.integers(min_value=-4, max_value=4).filter(bool), min_size=1, max_size=7
).map(tuple)
#: Port picks steering a walk along wired ports (see ``_steered``): random
#: strings mostly fail early, steered ones run deep and re-cross channels.
_picks = st.lists(st.integers(min_value=0, max_value=63), min_size=2, max_size=7)
_collisions = st.sampled_from(
    [CircuitModel(), CutThroughModel(slack_hops=2), PacketModel()]
)


def _fabric(params):
    """``random_san`` plus one cable from a switch back to itself."""
    net = random_san(**params)
    for switch in sorted(net.switches):
        free = net.free_ports(switch)
        if len(free) >= 2:
            net.connect(switch, free[0], switch, free[1])
            break
    return net


def _steered(net, h0, picks) -> tuple[int, ...]:
    """A probe string that follows wired ports for as long as it can."""
    turns: list[int] = []
    at = net.neighbor_at(h0, 0)
    for pick in picks:
        if at is None or net.is_host(at.node):
            break
        wired = [
            port
            for port in range(net.radix(at.node))
            if port != at.port and net.neighbor_at(at.node, port) is not None
        ]
        if not wired:
            break
        out = wired[pick % len(wired)]
        turns.append(out - at.port)
        at = net.neighbor_at(at.node, out)
    return tuple(turns) or (1,)


def _check(ev, net, h0, turns, collision) -> None:
    want = evaluate_route(net, h0, turns)
    info = ev.probe_info(h0, turns, collision)
    assert (info.status, info.hops, info.delivered_to) == (
        want.status,
        want.hops,
        want.delivered_to,
    )
    assert info.traversals == tuple(want.traversals)
    if want.status is PathStatus.DELIVERED:
        assert info.blocked == collision.blocked_at(want.traversals)
    full = walk_result(ev, h0, turns)
    assert (full.status, full.nodes, full.traversals) == (
        want.status,
        want.nodes,
        want.traversals,
    )
    assert (full.delivered_to, full.failed_at_turn) == (
        want.delivered_to,
        want.failed_at_turn,
    )

    # The switch-probe of the same prefix, from the forward walk only.
    want = evaluate_route(net, h0, switch_probe_turns(turns))
    loop = ev.loopback_info(h0, turns, collision)
    assert (loop.status, loop.hops, loop.delivered_to) == (
        want.status,
        want.hops,
        want.delivered_to,
    )
    assert loop.traversals == tuple(want.traversals)
    if want.status is PathStatus.DELIVERED:
        assert loop.hops == 2 * info.hops
        assert loop.blocked == collision.blocked_at(want.traversals)


@given(
    params=_params,
    collision=_collisions,
    strings=st.lists(_turns, min_size=2, max_size=6),
    walks=st.lists(_picks, min_size=2, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_derived_views_match_the_pure_walk(
    params, collision, strings, walks, seed
):
    try:
        net = _fabric(params)
    except TopologyError:
        return
    h0 = sorted(net.hosts)[0]
    probes = strings + [_steered(net, h0, picks) for picks in walks]
    ev = IncrementalPathEvaluator(net)
    rnd = random.Random(seed)

    def check_all() -> None:
        for turns in probes:
            _check(ev, net, h0, turns, collision)

    check_all()
    walked = [
        tr for turns in probes for tr in evaluate_route(net, h0, turns).traversals
    ]
    if not walked:
        return
    cut = rnd.choice(walked)
    net.disconnect(net.wire_at(cut.src.node, cut.src.port))
    check_all()
    # Plug the freed source end back in: to its old far end, or to any
    # other free port — the same channel id then names a new channel.
    free = [
        (name, port)
        for name in sorted(net.switches)
        for port in net.free_ports(name)
        if (name, port) != (cut.src.node, cut.src.port)
    ]
    far = rnd.choice([(cut.dst.node, cut.dst.port), *free])
    net.connect(cut.src.node, cut.src.port, *far)
    check_all()
