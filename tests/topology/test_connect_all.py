"""One-pass wiring: ``Network.connect_all`` is ``connect`` in bulk.

A network built whole (assembled from a map's records, copied, induced,
decoded) is wired by one ``connect_all`` call. It must be the network that
wiring one ``connect`` at a time builds — same document, same wire keys in
the same order — journal the batch as one delta naming every end it
wired, and refuse each malformed wire with ``connect``'s own error while
leaving the network as it was.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.relative import MappingError, assemble
from repro.topology.generators import random_san
from repro.topology.model import Network, TopologyError
from repro.topology.serialize import network_to_dict

_fabrics = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=1, max_value=8),
        "n_hosts": st.integers(min_value=2, max_value=10),
        "extra_links": st.integers(min_value=0, max_value=6),
        "parallel_link_prob": st.sampled_from([0.0, 0.5]),
        "pendant_switches": st.integers(min_value=0, max_value=2),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


def _bare(source: Network) -> Network:
    """``source``'s nodes, in its order, and no wires."""
    net = Network(default_radix=source.default_radix)
    for name in source.nodes:
        if source.is_host(name):
            net.add_host(name, **source.meta(name))
        else:
            net.add_switch(name, radix=source.radix(name), **source.meta(name))
    return net


def _cables(net: Network) -> list[tuple[str, int, str, int]]:
    return [(w.a.node, w.a.port, w.b.node, w.b.port) for w in net.wires]


def _wire_list(net: Network) -> list[tuple]:
    return [(w.a, w.b, w.key) for w in net.wires]


@given(fabric=_fabrics)
@settings(max_examples=60, deadline=None)
def test_one_pass_builds_what_one_connect_at_a_time_builds(fabric):
    try:
        source = random_san(**fabric)
    except TopologyError:
        return
    one_by_one, batch = _bare(source), _bare(source)
    for cable in _cables(source):
        one_by_one.connect(*cable)
    made = batch.connect_all(_cables(source))
    assert network_to_dict(batch) == network_to_dict(one_by_one)
    assert _wire_list(batch) == _wire_list(one_by_one)
    assert [(w.a, w.b, w.key) for w in made] == _wire_list(batch)
    for copy in (source.copy(), source.induced_subnetwork(source.nodes)):
        assert network_to_dict(copy) == network_to_dict(source)


@given(fabric=_fabrics)
@settings(max_examples=40, deadline=None)
def test_a_batch_is_one_journal_entry_naming_every_end(fabric):
    try:
        source = random_san(**fabric)
    except TopologyError:
        return
    net = _bare(source)
    epoch = net.topology_epoch
    net.connect_all(_cables(source))
    assert net.topology_epoch == epoch + 1
    delta = net.affected_since(epoch)
    ends = {(n, p) for a, pa, b, pb in _cables(source) for n, p in ((a, pa), (b, pb))}
    assert delta.added == ends
    assert not delta.removed


def test_an_empty_batch_changes_nothing():
    net = Network()
    net.add_switch("s")
    epoch = net.topology_epoch
    assert net.connect_all([]) == []
    assert net.topology_epoch == epoch


def _two_switches() -> Network:
    net = Network(default_radix=4)
    net.add_switch("s")
    net.add_switch("t")
    net.add_host("h")
    net.connect("s", 0, "h", 0)
    return net


@pytest.mark.parametrize(
    "bad, message",
    [
        (("ghost", 0, "t", 0), "no such node: ghost"),
        (("s", 1, "t", 4), r"port 4 out of range for t \(radix 4\)"),
        (("s", -1, "t", 0), r"port -1 out of range for s \(radix 4\)"),
        (("t", 0, "s", 0), "port s:0 already wired"),
        (("t", 2, "t", 2), "cannot wire port t:2 to itself"),
        # Taken by an earlier wire of the same batch.
        (("t", 1, "s", 3), "port t:1 already wired"),
    ],
    ids=["unknown-node", "port-out-of-range", "negative-port", "taken-port",
         "self-wire", "taken-in-batch"],
)
def test_each_malformed_wire_raises_connects_error_and_wires_nothing(bad, message):
    good = [("s", 2, "t", 1), ("s", 3, "t", 3)]
    alone = _two_switches()
    for cable in good:
        alone.connect(*cable)
    with pytest.raises(TopologyError, match=message):
        alone.connect(*bad)
    net = _two_switches()
    before = (network_to_dict(net), _wire_list(net), net.topology_epoch)
    with pytest.raises(TopologyError, match=message):
        net.connect_all([*good, bad])
    assert (network_to_dict(net), _wire_list(net), net.topology_epoch) == before
    # The keys the refused batch would have used are still the next ones.
    assert net.connect("s", 2, "t", 1).key == 1


def test_assemble_still_names_the_contradictory_ends():
    nodes = {"a": {0: ("b", 2)}, "b": {2: ("a", 0)}, "c": {1: ("b", 2)}}
    with pytest.raises(
        MappingError,
        match="contradictory wire records at c:0 -- b:0: port b:0 already wired",
    ):
        assemble(nodes, 8)
