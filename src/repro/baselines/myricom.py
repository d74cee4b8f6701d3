"""The Myricom Algorithm (Section 4 of the paper).

"The Myricom Algorithm performs a breadth-first exploration of the network
... While switches remain on their frontier queue, it pops off each one and
explores it. ... The Myricom Algorithm uses relative switch port addressing
and a generalization of loopback probe messages to test if the current
switch (the one just popped off the frontier queue) has been explored. ...
To test if A is B, the Myricom Algorithm sends probes of the form
``T1...Tn X -Sm...-S1`` where X spans any single turn."

Where the Berkeley Algorithm discovers replicates *lazily* (structural
deductions propagating backwards from hosts), the Myricom Algorithm is
*eager*: every frontier candidate is compared, with O(N) probes, against
every already-explored switch before being explored itself — O(N²) messages
with a large constant (Section 4.2).

Implementation notes (faithful to the text, with two documented choices):

- the paper's X sweep is the 14 turns ``{-7..-1, +1..+7}``; we additionally
  send ``X = 0``, which covers the case where the candidate's route enters
  the explored switch at exactly its comparison route's entry port (the
  14-turn sweep is blind there);
- the X sweep is pruned with the same sound entry-port-window arithmetic as
  the Berkeley planner ("employs a variety of heuristics to reduce the
  total number of probes"), and explored switches at the candidate's BFS
  depth are compared first so matches exit early;
- the per-category accounting matches Figure 10's columns: ``loop``
  (self-comparison probes, which is what detects loopback cables), ``host``
  and ``sw`` (per-port probes when exploring a new switch), and ``comp``
  (comparisons against other explored switches), kept on the mapper as
  :attr:`MyricomMapper.breakdown`;
- every switch reached is explored, ``F`` included, and the map is pruned
  to ``N - F`` as the Berkeley Algorithm's PRUNE stage does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.mapper import MapResult
from repro.core.mapper_protocol import maps_once, register_mapper
from repro.core.planner import PortPlan
from repro.core.relative import (
    Candidate,
    MappingError,
    SwitchRecord,
    assemble,
    record_wire,
    x_sweep,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import Turns, reverse_turns
from repro.topology.analysis import core_network

__all__ = ["MyricomMapper", "ProbeBreakdown"]


@dataclass(slots=True)
class ProbeBreakdown:
    """Figure 10's probe categories."""

    loop: int = 0
    host: int = 0
    switch: int = 0
    compare: int = 0

    @property
    def total(self) -> int:
        return self.loop + self.host + self.switch + self.compare


@register_mapper(
    "myricom",
    summary="eager O(N²) compare-all baseline (Section 4)",
)
class MyricomMapper:
    """Drive the Myricom Algorithm against a probe service.

    Requires a service with the raw ``probe_loopback`` facility
    (:class:`~repro.simulator.quiescent.QuiescentProbeService` provides it).
    After :meth:`map`, :attr:`breakdown` holds Figure 10's probe counts.
    """

    def __init__(
        self,
        service: QuiescentProbeService,
        *,
        search_depth: int,
    ) -> None:
        if search_depth < 1:
            raise ValueError("search_depth must be at least 1")
        self._svc = service
        self._depth = search_depth
        self._radix = service.radix
        self._explored: list[SwitchRecord] = []
        self._hosts: dict[str, tuple[SwitchRecord, int]] = {}
        self.breakdown = ProbeBreakdown()

    # ------------------------------------------------------------------
    @maps_once
    def map(self) -> MapResult:
        """Explore breadth-first, identifying each candidate eagerly.

        Eager identification means each explored switch is final:
        explorations and peak model size are both the explored-switch
        count, and nothing ever merges.
        """
        root = self._new_switch(())
        frontier: deque[Candidate] = deque()
        self._explore(root, frontier)
        while frontier:
            cand = frontier.popleft()
            match = self._identify(cand)
            if match is not None:
                switch, rel = match
                record_wire(cand.parent, cand.parent_turn, switch, rel)
                continue
            new = self._new_switch(cand.route)
            record_wire(cand.parent, cand.parent_turn, new, 0)
            if new.depth < self._depth:
                self._explore(new, frontier)
        nodes = {sw.name: sw.ports for sw in self._explored}
        nodes.update(dict.fromkeys(self._hosts))
        n = len(self._explored)
        return MapResult(
            network=core_network(assemble(nodes, self._radix)[0]),
            stats=self._svc.stats.snapshot(),
            mapper_host=self._svc.mapper_host,
            search_depth=self._depth,
            explorations=n,
            merges=0,
            peak_model_nodes=n,
        )

    # ------------------------------------------------------------------
    # exploration of a confirmed-new switch
    # ------------------------------------------------------------------
    def _new_switch(self, route: Turns) -> SwitchRecord:
        sw = SwitchRecord(
            f"switch-{len(self._explored)}", route, (0, self._radix - 1)
        )
        self._explored.append(sw)
        return sw

    def _explore(self, sw: SwitchRecord, frontier: deque[Candidate]) -> None:
        plan = PortPlan(radix=self._radix)
        if not sw.route:
            # The root switch is entered over the mapper's own wire.
            self._hosts[self._svc.mapper_host] = (sw, 0)
            sw.ports[0] = (self._svc.mapper_host, 0)
        while (turn := plan.next_turn()) is not None:
            route = sw.route + (turn,)
            host = self._svc.probe_host(route)
            self.breakdown.host += 1
            if host is not None:
                plan.feed(turn, True)
                if host in self._hosts:
                    raise MappingError(
                        f"host {host} appeared on two switch ports; "
                        "violates the single-attachment assumption"
                    )
                self._hosts[host] = (sw, turn)
                sw.ports[turn] = (host, 0)
                continue
            self.breakdown.switch += 1
            if self._svc.probe_switch(route):
                plan.feed(turn, True)
                frontier.append(Candidate(route, sw, turn))
            else:
                plan.feed(turn, False)
        sw.window = plan.entry_port_window

    # ------------------------------------------------------------------
    # eager replicate identification (the comparison probes)
    # ------------------------------------------------------------------
    def _identify(self, cand: Candidate) -> tuple[SwitchRecord, int] | None:
        """Compare the candidate against explored switches; None = new.

        The self-comparison against the candidate's parent runs first and is
        counted in the ``loop`` category (it is what detects loopback
        cables); remaining switches are ordered by BFS-depth proximity,
        oldest first among equals (the sort is stable).
        """
        others = [s for s in self._explored if s is not cand.parent]
        others.sort(key=lambda s: abs(s.depth - len(cand.route)))
        for category, sw in [("loop", cand.parent)] + [("comp", s) for s in others]:
            rel = self._compare(cand.route, sw, category)
            if rel is not None:
                return sw, rel
        return None

    def _compare(
        self, route: Turns, sw: SwitchRecord, category: str
    ) -> int | None:
        """Is the switch at ``route`` the explored ``sw``? Returns the
        relative index at which ``route`` enters ``sw``, else None.

        Probe: ``route + (X,) + reverse(sw.route)``. It loops back to the
        mapper iff the candidate is ``sw`` and turn X moves the worm from
        the candidate's entry port onto ``sw``'s comparison-route entry
        port: the entry's relative index at ``sw`` is then ``-X``.
        """
        retrace = reverse_turns(sw.route)
        for x in x_sweep(sw.window, self._radix):
            if category == "loop":
                self.breakdown.loop += 1
            else:
                self.breakdown.compare += 1
            if self._svc.probe_loopback(route + (x,) + retrace):
                return -x
        return None
