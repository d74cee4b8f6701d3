"""Applying scheduled events to a live ``(Network, FaultModel)`` pair.

The applier is the single writer through which a chaos campaign disturbs the
system under test. It funnels every change through the two existing epoch
counters so the PR-2 evaluation cache invalidates exactly when it must:

- fault-level events (``cut``/``heal``/``kill_*``/``revive_*``/``drop``/
  ``corrupt``) go through the :class:`~repro.simulator.faults.FaultModel`
  mutators, bumping ``fault_epoch``;
- structural events (``unplug``/``plug``) mutate the
  :class:`~repro.topology.model.Network` itself, bumping ``topology_epoch``.

Incoherent events — healing a cable that is not cut, killing a node twice,
plugging an occupied port — raise :class:`ScenarioError` rather than being
silently ignored: the shrinker relies on "this schedule is invalid" being
distinguishable from "this schedule reproduces the failure".
"""

from __future__ import annotations

from typing import Callable

from repro.chaos.scenario import ChaosEvent, ScenarioError
from repro.simulator.faults import FaultModel
from repro.topology.model import Network, PortRef, TopologyError, Wire

__all__ = ["ScenarioApplier"]


def _ends(wire: Wire) -> frozenset[PortRef]:
    return frozenset((wire.a, wire.b))


class ScenarioApplier:
    """Stateful interpreter for :class:`~repro.chaos.scenario.ChaosEvent`.

    Tracks which cables were cut explicitly and which nodes are killed; the
    fault model's dead-wire set is always the union of the two views, so a
    ``plug`` onto a killed switch correctly yields a dead new cable, and a
    ``revive`` resurrects exactly the node's *current* cables.
    """

    def __init__(self, net: Network, faults: FaultModel) -> None:
        self._net = net
        self._faults = faults
        self._cut: set[frozenset[PortRef]] = set(faults.dead_wires)
        self._killed: set[str] = set()
        self._dispatch: dict[str, Callable[..., None]] = {
            "cut": self._cut_cable,
            "heal": self._heal_cable,
            "kill_switch": self._kill,
            "revive_switch": self._revive,
            "kill_host": self._kill,
            "revive_host": self._revive,
            "drop": self._faults.set_drop_prob,
            "corrupt": self._faults.set_corrupt_prob,
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
    def _wire_at(self, node: str, port: int) -> Wire:
        wire = self._net.wire_at(node, int(port))
        if wire is None:
            raise ScenarioError(f"no cable at {node}:{port}")
        return wire

    def _sync(self) -> None:
        """Recompute the fault model's dead set from cuts + killed nodes."""
        dead = set(self._cut)
        for node in self._killed:
            for wire in self._net.wires_of(node):
                dead.add(_ends(wire))
        self._faults.set_dead_wires(dead)

    def _cut_cable(self, node: str, port: int) -> None:
        ends = _ends(self._wire_at(node, port))
        if ends in self._cut:
            raise ScenarioError(f"cable at {node}:{port} is already cut")
        self._cut.add(ends)
        self._sync()

    def _heal_cable(self, node: str, port: int) -> None:
        ends = _ends(self._wire_at(node, port))
        if ends not in self._cut:
            raise ScenarioError(f"cable at {node}:{port} is not cut")
        self._cut.discard(ends)
        self._sync()

    def _kill(self, name: str) -> None:
        if name not in self._net:
            raise ScenarioError(f"no such node: {name}")
        if name in self._killed:
            raise ScenarioError(f"{name} is already dead")
        self._killed.add(name)
        self._sync()

    def _revive(self, name: str) -> None:
        if name not in self._killed:
            raise ScenarioError(f"{name} is not dead")
        self._killed.discard(name)
        self._sync()

    def _unplug(self, node: str, port: int) -> None:
        wire = self._wire_at(node, port)
        self._net.disconnect(wire)
        # A cable that no longer exists cannot also be "silently dead".
        if _ends(wire) in self._cut:
            self._cut.discard(_ends(wire))
        self._sync()

    def _plug(self, node_a: str, port_a: int, node_b: str, port_b: int) -> None:
        self._net.connect(node_a, int(port_a), node_b, int(port_b))
        # The new cable of a killed node must be dead from birth.
        if node_a in self._killed or node_b in self._killed:
            self._sync()
