"""Applying scheduled events to a live ``(Network, FaultModel)`` pair.

The applier is the single writer through which a chaos campaign disturbs the
system under test. A failed cable answers no probe, exactly like a cable
that is not there (Section 5.6), so every cable failure is a topology
mutation, journaled and epoch-bumped by the
:class:`~repro.topology.model.Network` itself:

- ``cut``/``kill_*`` disconnect the cable, or every cable of the node, and
  ``heal``/``revive_*`` reconnect the same ends with one ``connect_all``;
- ``unplug``/``plug`` remove and add physical cables;
- ``drop``/``corrupt`` go through the
  :class:`~repro.simulator.faults.FaultModel` mutators, bumping
  ``fault_epoch``.

Incoherent events — healing a cable that is not cut, killing a node twice,
plugging an occupied port — raise :class:`ScenarioError` rather than being
silently ignored: the shrinker relies on "this schedule is invalid" being
distinguishable from "this schedule reproduces the failure".
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.chaos.scenario import ChaosEvent, ScenarioError
from repro.simulator.faults import FaultModel
from repro.topology.model import Network, PortRef, TopologyError

__all__ = ["ScenarioApplier"]

#: A cable by its two ends, in :class:`~repro.topology.model.Wire` order.
Cable = tuple[PortRef, PortRef]


class ScenarioApplier:
    """Stateful interpreter for :class:`~repro.chaos.scenario.ChaosEvent`.

    Holds every down cable by its ends, in ``down``: a cable is down while
    it is cut or touches a killed node, and a down cable is missing from
    the network. So a ``plug`` onto a killed switch gives a cable that is
    down from birth, and a ``revive`` brings back exactly the node's
    cables that nothing else keeps down.
    """

    def __init__(self, net: Network, faults: FaultModel) -> None:
        self._net = net
        #: The down cables, in the order they went down.
        self.down: dict[Cable, None] = {}
        self._cut: set[Cable] = set()
        self._killed: set[str] = set()
        self._dispatch: dict[str, Callable[..., None]] = {
            "cut": self._cut_cable,
            "heal": self._heal_cable,
            "kill_switch": self._kill,
            "revive_switch": self._revive,
            "kill_host": self._kill,
            "revive_host": self._revive,
            "drop": faults.set_drop_prob,
            "corrupt": faults.set_corrupt_prob,
            "unplug": self._unplug,
            "plug": self._plug,
        }

    # ------------------------------------------------------------------
    def apply(self, event: ChaosEvent) -> None:
        """Apply one event; raises :class:`ScenarioError` on incoherence."""
        try:
            self._dispatch[event.action](*event.args)
        except ScenarioError:
            raise
        except (TopologyError, ValueError) as exc:
            raise ScenarioError(f"cannot apply {event}: {exc}") from exc

    # ------------------------------------------------------------------
    def _down_at(self, end: PortRef) -> Cable | None:
        for cable in self.down:
            if end in cable:
                return cable
        return None

    def _cable_at(self, node: str, port: int) -> Cable:
        """The cable plugged into ``node:port``, up or down."""
        wire = self._net.wire_at(node, int(port))
        if wire is not None:
            return wire.a, wire.b
        cable = self._down_at(PortRef(node, int(port)))
        if cable is None:
            raise ScenarioError(f"no cable at {node}:{port}")
        return cable

    def _take_down(self, cables: Iterable[Cable]) -> None:
        for a, b in cables:
            if (a, b) not in self.down:
                self._net.disconnect(self._net.wire_at(*a))
                self.down[a, b] = None

    def _bring_up(self, cables: Iterable[Cable]) -> None:
        """Reconnect the given down cables that nothing keeps down."""
        up = [
            (a, b)
            for a, b in cables
            if (a, b) not in self._cut
            and a.node not in self._killed
            and b.node not in self._killed
        ]
        for cable in up:
            del self.down[cable]
        self._net.connect_all((*a, *b) for a, b in up)

    def _cut_cable(self, node: str, port: int) -> None:
        cable = self._cable_at(node, port)
        if cable in self._cut:
            raise ScenarioError(f"cable at {node}:{port} is already cut")
        self._cut.add(cable)
        self._take_down([cable])

    def _heal_cable(self, node: str, port: int) -> None:
        cable = self._cable_at(node, port)
        if cable not in self._cut:
            raise ScenarioError(f"cable at {node}:{port} is not cut")
        self._cut.discard(cable)
        self._bring_up([cable])

    def _kill(self, name: str) -> None:
        if name not in self._net:
            raise ScenarioError(f"no such node: {name}")
        if name in self._killed:
            raise ScenarioError(f"{name} is already dead")
        self._killed.add(name)
        self._take_down([(w.a, w.b) for w in self._net.wires_of(name)])

    def _revive(self, name: str) -> None:
        if name not in self._killed:
            raise ScenarioError(f"{name} is not dead")
        self._killed.discard(name)
        self._bring_up([c for c in self.down if name in (c[0].node, c[1].node)])

    def _unplug(self, node: str, port: int) -> None:
        cable = self._cable_at(node, port)
        if cable in self.down:
            # A cable that no longer exists cannot also be down.
            del self.down[cable]
            self._cut.discard(cable)
        else:
            self._net.disconnect(self._net.wire_at(node, int(port)))

    def _plug(self, node_a: str, port_a: int, node_b: str, port_b: int) -> None:
        for node, port in ((node_a, port_a), (node_b, port_b)):
            end = PortRef(node, int(port))
            if self._down_at(end) is not None:
                raise TopologyError(f"port {end} already wired")
        wire = self._net.connect(node_a, int(port_a), node_b, int(port_b))
        # The new cable of a killed node is down from birth.
        if node_a in self._killed or node_b in self._killed:
            self._take_down([(wire.a, wire.b)])
