"""Hypothetical self-identifying-switch mapper (Section 6 discussion).

"It is tempting to believe that architectural support for self-identifying
switches would make the network mapping problem trivial. ... if a probe made
it to a switch and back, it would carry a unique identifier and the
exploration process would be simpler."

The probe service's ``probe_switch_id`` kind implements that hypothetical:
a switch-probe that returns the far switch's unique id (simulating the
hardware change). This module is the BFS mapper that exploits it. Replicates never exist — every
discovered switch is recognized on sight — so each switch is explored
exactly once, and identifying which *port* of an already-known switch a new
wire lands on needs a single bounded X-sweep against that one switch (the
Myricom Algorithm needs the same sweep against *every* explored switch).

The paper's caveat stands: self-identification removes replicate detection,
not the probe-collision or cross-traffic problems — the service still
applies the collision model, so a sweep probe can fail and the wire's far
index stay unresolved (counted in ``SelfIdMapper.unresolved_wires``).
Every switch reached is identified, ``F`` included, and the map is pruned
to ``N - F`` as the Berkeley Algorithm's PRUNE stage does.
"""

from __future__ import annotations

from collections import deque

from repro.core.mapper import MapResult
from repro.core.mapper_protocol import maps_once, register_mapper
from repro.core.planner import PortPlan
from repro.core.relative import (
    MappingError,
    SwitchRecord,
    assemble,
    record_wire,
    x_sweep,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import Turns, reverse_turns
from repro.topology.analysis import core_network
from repro.topology.model import Network

__all__ = ["SelfIdMapper"]


@register_mapper(
    "selfid",
    summary="hypothetical self-identifying-switch BFS (Section 6)",
)
class SelfIdMapper:
    """BFS mapping with self-identifying switches: no replicates, ever."""

    def __init__(self, service: QuiescentProbeService, *, search_depth: int) -> None:
        if search_depth < 1:
            raise ValueError("search_depth must be at least 1")
        self._svc = service
        self._depth = search_depth
        self._radix = service.radix
        #: Wires whose far port no sweep probe pinned, after :meth:`map`.
        self.unresolved_wires = 0

    @maps_once
    def map(self) -> MapResult:
        """Explore breadth-first, recognizing every switch on sight.

        Self-identification makes every switch final on first sight, so
        explorations and peak model size both equal the switch count and
        nothing merges.
        """
        svc = self._svc
        root_id = svc.probe_switch_id(())
        if root_id is None:
            raise MappingError("mapper host is not attached to a switch")
        switches = {root_id: self._new_switch(root_id, ())}
        switches[root_id].ports[0] = (svc.mapper_host, 0)
        frontier: deque[str] = deque([root_id])
        while frontier:
            sw = switches[frontier.popleft()]
            if len(sw.route) >= self._depth:
                continue
            self._scan(sw, switches, frontier)
        n = len(switches)
        return MapResult(
            network=core_network(self._build(switches)),
            stats=svc.stats.snapshot(),
            mapper_host=svc.mapper_host,
            search_depth=self._depth,
            explorations=n,
            merges=0,
            peak_model_nodes=n,
        )

    # ------------------------------------------------------------------
    def _new_switch(self, sid: str, route: Turns) -> SwitchRecord:
        """Records go by the hardware id; the map's names come later."""
        return SwitchRecord(sid, route, (0, self._radix - 1))

    def _scan(
        self,
        sw: SwitchRecord,
        switches: dict[str, SwitchRecord],
        frontier: deque[str],
    ) -> None:
        plan = PortPlan(radix=self._radix)
        for idx in sw.ports:
            plan.feed(idx, True)
        while (turn := plan.next_turn()) is not None:
            if turn in sw.ports:
                continue
            probe = sw.route + (turn,)
            far_id = self._svc.probe_switch_id(probe)
            if far_id is not None:
                plan.feed(turn, True)
                if far_id not in switches:
                    far = switches[far_id] = self._new_switch(far_id, probe)
                    record_wire(sw, turn, far, 0)
                    frontier.append(far_id)
                else:
                    far = switches[far_id]
                    rel = self._pin(probe, far)
                    if rel is None:
                        self.unresolved_wires += 1
                    else:
                        record_wire(sw, turn, far, rel)
                continue
            host = self._svc.probe_host(probe)
            plan.feed(turn, host is not None)
            if host is not None:
                sw.ports[turn] = (host, 0)
        sw.window = plan.entry_port_window

    def _pin(self, route: Turns, far: SwitchRecord) -> int | None:
        """One X-sweep against the (single, known) far switch's route.

        Probe ``route + (X,) + reverse(far.route)`` loops back iff turn X
        steps from this wire's entry port onto the far route's entry port,
        i.e. the wire enters ``far`` at relative index ``-X``.
        """
        retrace = reverse_turns(far.route)
        for x in x_sweep(far.window, self._radix):
            if -x in far.ports:
                continue  # that far port is already known to hold another wire
            if self._svc.probe_loopback(route + (x,) + retrace):
                return -x
        return None

    # ------------------------------------------------------------------
    def _build(self, switches: dict[str, SwitchRecord]) -> Network:
        """Name the switches ``switch-<rank of hardware id>`` and assemble."""
        names = {sid: f"switch-{i}" for i, sid in enumerate(sorted(switches))}
        nodes: dict[str, dict | None] = {
            names[sid]: {
                rel: (names.get(far, far), far_rel)
                for rel, (far, far_rel) in sw.ports.items()
            }
            for sid, sw in switches.items()
        }
        hosts = {
            far
            for sw in switches.values()
            for far, _ in sw.ports.values()
            if far not in switches
        }
        nodes.update(dict.fromkeys(sorted(hosts)))
        return assemble(nodes, self._radix)[0]
