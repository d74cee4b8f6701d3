"""One wire-end type and one channel type.

``PortRef`` is the ``(node, port)`` pair of Section 2.1 and ``Traversal``
a directed channel ``(src, dst)``; both are named tuples. A journal delta,
a probe-trie footprint, a seed's affected set and a channel-keyed table
therefore meet a ``PortRef`` or a ``Traversal`` with no conversion, and
every hash and order equals the plain tuple's, which keeps set and dict
iteration orders, sorts and the goldens unchanged.
"""

from __future__ import annotations

from repro.simulator.path_eval import Traversal
from repro.topology.model import Network, PortRef


def _net() -> Network:
    net = Network()
    net.add_switch("s0")
    net.add_switch("s1")
    return net


def test_a_wires_own_ends_are_members_of_its_deltas():
    net = _net()
    before = net.topology_epoch
    wire = net.connect("s0", 3, "s1", 5)
    added = net.affected_since(before).added
    assert wire.a in added and wire.b in added
    cut_at = net.topology_epoch
    net.disconnect(wire)
    removed = net.affected_since(cut_at).removed
    assert wire.a in removed and wire.b in removed


def test_a_traversal_is_its_plain_pair():
    a, b = PortRef("s0", 3), PortRef("s1", 5)
    assert Traversal(a, b) == (a, b)
    assert Traversal(a, b) == (("s0", 3), ("s1", 5))
    loads = {Traversal(a, b): 1, Traversal(b, a): 2}
    assert loads[(a, b)] == 1
    assert loads[Traversal(b, a)] == 2
    assert loads[(("s1", 5), ("s0", 3))] == 2


def test_hash_and_order_agree_with_plain_tuples():
    ends = [PortRef("s1", 0), PortRef("s0", 7), PortRef("s0", 2), PortRef("h", 0)]
    plain = [tuple(end) for end in ends]
    assert [hash(end) for end in ends] == [hash(p) for p in plain]
    assert sorted(ends) == sorted(plain)
    channels = [Traversal(x, y) for x in ends for y in ends if x != y]
    pairs = [(tuple(x), tuple(y)) for x, y in channels]
    assert [hash(c) for c in channels] == [hash(p) for p in pairs]
    assert sorted(channels) == sorted(pairs)
    assert [tuple(map(tuple, c)) for c in sorted(channels)] == sorted(pairs)
