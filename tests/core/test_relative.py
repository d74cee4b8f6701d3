"""The relative-port model: canonical-offset assembly and the record kit."""

from __future__ import annotations

import pytest

from repro.core.relative import (
    MappingError,
    SwitchRecord,
    assemble,
    record_wire,
    x_sweep,
)
from repro.extensions.parallel_maps import (
    MergeConflict,
    PartialMap,
    merge_partial_maps,
)
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.model import TopologyError


class TestAssemble:
    def test_shifts_each_switch_so_its_lowest_index_is_port_0(self):
        nodes = {
            "h0": None,
            "a": {0: ("h0", 0), -2: ("b", 3), 4: ("h1", 0)},
            "b": {3: ("a", -2), 5: ("b", 6), 6: ("b", 5)},
            "h1": None,
        }
        net, offsets = assemble(nodes, 8, {"h1": {"rack": 7}})
        assert offsets == {"a": 2, "b": -3}
        assert list(net.nodes) == ["h0", "a", "b", "h1"]
        assert net.meta("h1")["rack"] == 7
        # Node order is wire order; a host's wire is laid when the host
        # comes up, every cable once (the loopback too). A Wire keeps its
        # two ends sorted.
        assert [(w.a.node, w.a.port, w.b.node, w.b.port) for w in net.wires] == [
            ("a", 2, "h0", 0),
            ("a", 0, "b", 0),
            ("a", 6, "h1", 0),
            ("b", 2, "b", 3),
        ]

    def test_isolated_switch_and_unattached_host_are_kept(self):
        net, offsets = assemble({"s": {}, "h": None}, 8)
        assert offsets == {"s": 0}
        assert (net.n_switches, net.n_hosts, net.n_wires) == (1, 1, 0)

    def test_span_of_radix_or_more_is_a_contradiction(self):
        with pytest.raises(MappingError, match="s spans 9 port indices"):
            assemble({"s": {-1: ("a", 0), 7: ("b", 0)}, "a": None, "b": None}, 8)
        # One short of the radix is the widest legal switch.
        assemble({"s": {-1: ("a", 0), 6: ("b", 0)}, "a": None, "b": None}, 8)

    @pytest.mark.parametrize(
        "nodes",
        [
            # Two switch ports claim the one port of b.
            {"a": {0: ("b", 2)}, "b": {2: ("a", 0)}, "c": {1: ("b", 2)}},
            # A host with two attachments.
            {"a": {0: ("h", 0)}, "b": {0: ("h", 0)}, "h": None},
            # A far end that is no node at all.
            {"a": {0: ("ghost", 0)}},
            # A cable from a port to itself.
            {"a": {1: ("a", 1)}},
        ],
        ids=["switch-port", "host-port", "unknown-node", "self-wire"],
    )
    def test_contradictory_records_are_mapping_errors(self, nodes):
        with pytest.raises(MappingError, match="contradictory") as exc:
            assemble(nodes, 8)
        assert not isinstance(exc.value, TopologyError)
        assert isinstance(exc.value.__cause__, TopologyError)


class TestMergedViews:
    def _view(self, switch: str, near: str, far: str) -> PartialMap:
        b = NetworkBuilder()
        b.switches(switch)
        b.hosts(near, far)
        b.attach(near, switch, port=0)
        b.attach(far, switch, port=7)
        return PartialMap(owner=near, network=b.build(), probes=0, elapsed_ms=0.0)

    def test_assembly_contradiction_is_a_merge_conflict(self):
        """Each view is a legal radix-8 switch and every port they name is
        free, so nothing clashes until the union is assembled: h0 at 0,
        h1 at 7, h2 at 14 is one switch spanning 15 ports."""
        views = [self._view("x", "h0", "h1"), self._view("y", "h1", "h2")]
        with pytest.raises(MergeConflict, match="spans 15 port indices"):
            merge_partial_maps(views)


class TestRecordKit:
    def test_record_wire_is_double_entry_and_idempotent(self):
        a = SwitchRecord("a", (), (0, 7))
        b = SwitchRecord("b", (2,), (0, 7))
        record_wire(a, 2, b, 0)
        record_wire(b, 0, a, 2)
        assert a.ports == {2: ("b", 0)} and b.ports == {0: ("a", 2)}
        assert b.depth == 1

    def test_record_wire_refuses_a_second_far_end(self):
        a = SwitchRecord("a", (), (0, 7))
        b = SwitchRecord("b", (2,), (0, 7))
        a.ports[2] = ("h0", 0)
        with pytest.raises(MappingError, match="a index 2 resolved to two"):
            record_wire(a, 2, b, 0)
        c = SwitchRecord("c", (3,), (0, 7))
        record_wire(a, 3, c, 0)
        with pytest.raises(MappingError, match="c index 0 resolved to two"):
            record_wire(b, 5, c, 0)

    def test_x_sweep_order_and_window_pruning(self):
        assert list(x_sweep((0, 3), 4)) == [0, 1, -1, 2, -2, 3, -3]
        # Entry port pinned to 0: index -X must be a port in [0, 3].
        assert list(x_sweep((0, 0), 4)) == [0, -1, -2, -3]
        assert list(x_sweep((3, 3), 4)) == [0, 1, 2, 3]
