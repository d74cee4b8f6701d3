"""Spanning-tree-first mapping (after Casteigts et al.'s local views).

A genuinely different point in the discovery design space from both the
Berkeley algorithm (lazy merging driven by deductions) and the Myricom
algorithm (eager O(N) comparison sweeps per candidate):

1. **Grow a BFS spanning tree.** Pop a candidate wire off the frontier,
   walk through it and explore the far switch completely (the same
   window-pruned host/switch probe pairs as everyone else). The first
   wire that discovers a switch becomes its *tree edge*; every later
   wire landing on an already-known switch is a *cross edge*.
2. **Recognize, don't compare-all.** A freshly explored view is matched
   against known switches by its *local view*, cheapest evidence first:

   * **Host anchors** — host names are globally unique, so one shared
     host pins the identity *and* the port offset with zero extra
     probes (the Lemma 3 anchor, used eagerly).
   * **Port signatures** — exploration is complete (the entry-port
     window only skips turns that are guaranteed illegal), so two views
     of one physical switch see the same used-port pattern up to a
     shift. The shift is forced: minimum used index must map to
     minimum used index. A single shift-aligned loopback probe
     ``route_B + (x,) + reverse(route_C)`` (the Myricom comparison
     probe, but exactly one per signature-compatible switch instead of
     an X-sweep against every explored switch) confirms or refutes.

3. **Resolve cross edges once.** When a candidate's far end is
   recognized, both port records are written; the mirror candidate for
   the same physical wire — still queued from the other side — is
   skipped on pop without spending a single probe.

Like the Myricom baseline this needs the raw ``probe_loopback``
facility; unlike it, comparison cost is proportional to signature
collisions, not to the number of explored switches. Like it, every
switch reached is explored, ``F`` included, and the map is pruned to
``N - F`` as the Berkeley Algorithm's PRUNE stage does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.mapper import MapResult
from repro.core.mapper_protocol import maps_once, register_mapper
from repro.core.planner import PortPlan
from repro.core.relative import (
    Candidate,
    MappingError,
    SwitchRecord,
    assemble,
    record_wire,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import Turns, reverse_turns
from repro.topology.analysis import core_network

__all__ = ["SpanningTreeMapper"]


@dataclass(slots=True)
class _View:
    """One completed exploration, pre-recognition."""

    route: Turns
    hosts: dict[int, str] = field(default_factory=dict)
    switch_turns: list[int] = field(default_factory=list)

    def used(self) -> list[int]:
        return sorted(set(self.hosts) | set(self.switch_turns) | {0})


@register_mapper(
    "spanning-tree",
    summary="BFS tree + local-view recognition (after Casteigts et al.)",
)
class SpanningTreeMapper:
    """Drive the spanning-tree-first algorithm against a probe service.

    Requires a service with the raw ``probe_loopback`` facility
    (:class:`~repro.simulator.quiescent.QuiescentProbeService`).
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
        #: Adopted switches. A record's ``ports`` holds only *resolved*
        #: wires; switch-hits whose far end is still a queued candidate are
        #: in ``_used`` but not there yet. Views recognized as duplicates
        #: are discarded outright (their evidence folds into the adopted
        #: switch), so every far end names an adopted switch.
        self._switches: list[SwitchRecord] = []
        #: Switch name -> complete used-index pattern from its exploration.
        self._used: dict[str, frozenset[int]] = {}
        self._hosts: dict[str, tuple[SwitchRecord, int]] = {}
        self._sigs: dict[tuple, list[SwitchRecord]] = {}
        #: Switches explored (tree nodes plus merged-away duplicate views).
        self._explorations = 0
        #: Views recognized as an already-known switch (cross-edge far ends).
        self._merges = 0

    # ------------------------------------------------------------------
    @maps_once
    def map(self) -> MapResult:
        """Grow the tree, recognizing each explored view by its local view;
        peak model size is the adopted-switch count."""
        root = self._new_switch(())
        root.ports[0] = (self._svc.mapper_host, 0)
        self._hosts[self._svc.mapper_host] = (root, 0)
        frontier: deque[Candidate] = deque()
        view = self._explore(())
        self._adopt(root, view)
        self._enqueue_children(root, view, frontier)
        while frontier:
            cand = frontier.popleft()
            parent, pturn = cand.parent, cand.parent_turn
            if parent.ports.get(pturn) is not None:
                # The wire was already resolved from its other end — the
                # cross-edge dedup that makes the tree structure pay.
                continue
            view = self._explore(cand.route)
            known = self._recognize(view)
            if known is None:
                sw = self._new_switch(cand.route)
                self._adopt(sw, view)
                record_wire(parent, pturn, sw, 0)
                if sw.depth < self._depth:
                    self._enqueue_children(sw, view, frontier)
            else:
                far, shift = known
                self._merges += 1
                record_wire(parent, pturn, far, shift)
        nodes = {sw.name: dict(sorted(sw.ports.items())) for sw in self._switches}
        nodes.update(dict.fromkeys(self._hosts))
        return MapResult(
            network=core_network(assemble(nodes, self._radix)[0]),
            stats=self._svc.stats.snapshot(),
            mapper_host=self._svc.mapper_host,
            search_depth=self._depth,
            explorations=self._explorations,
            merges=self._merges,
            peak_model_nodes=len(self._switches),
        )

    # ------------------------------------------------------------------
    # exploration: complete the local view of the switch at ``route``
    # ------------------------------------------------------------------
    def _explore(self, route: Turns) -> _View:
        view = _View(route)
        plan = PortPlan(radix=self._radix)
        plan.feed(0, True)  # the wire we came in on
        self._explorations += 1
        while (turn := plan.next_turn()) is not None:
            probe = route + (turn,)
            host = self._svc.probe_host(probe)
            if host is not None:
                plan.feed(turn, True)
                if host in view.hosts.values():
                    raise MappingError(
                        f"host {host} appeared on two ports of one switch; "
                        "violates the single-attachment assumption"
                    )
                view.hosts[turn] = host
                continue
            if self._svc.probe_switch(probe):
                plan.feed(turn, True)
                view.switch_turns.append(turn)
            else:
                plan.feed(turn, False)
        return view

    # ------------------------------------------------------------------
    # recognition: is this view an already-known switch?
    # ------------------------------------------------------------------
    def _signature(self, used: list[int], hosts: dict[int, str]) -> tuple:
        """Shift-invariant local view: used-port gaps plus host labels."""
        lo = used[0]
        return tuple(
            (i - lo, hosts.get(i, "")) for i in used
        )

    def _recognize(self, view: _View) -> tuple[SwitchRecord, int] | None:
        """Match a completed view against known switches.

        Returns ``(switch, shift)`` — view index i is switch index
        i + shift — or None for a genuinely new switch.
        """
        used = view.used()
        # Host anchor: a shared unique host name pins switch and shift.
        for i in sorted(view.hosts):
            entry = self._hosts.get(view.hosts[i])
            if entry is not None:
                far, j = entry
                shift = j - i
                self._check_alignment(view, used, far, shift)
                return far, shift
        # Signature + one shift-aligned confirmation probe per collision.
        sig = self._signature(used, view.hosts)
        peers = list(self._sigs.get(sig, ()))
        # Nearest BFS depth first; the stable sort keeps adoption order.
        peers.sort(key=lambda s: abs(s.depth - len(view.route)))
        for peer in peers:
            shift = min(self._used[peer.name]) - used[0]
            if self._confirm(view.route, peer, shift):
                return peer, shift
        return None

    def _check_alignment(
        self, view: _View, used: list[int], far: SwitchRecord, shift: int
    ) -> None:
        """A host-anchored merge must align both complete views exactly."""
        if frozenset(i + shift for i in used) != self._used[far.name]:
            raise MappingError(
                f"host anchor aligns switch views with different port "
                f"patterns (shift {shift} onto {far.name})"
            )
        for i, name in view.hosts.items():
            entry = self._hosts.get(name)
            if entry is None or entry != (far, i + shift):
                raise MappingError(
                    f"host {name} does not sit where the anchored far "
                    f"view recorded it"
                )

    def _confirm(self, route: Turns, peer: SwitchRecord, shift: int) -> bool:
        """One loopback probe: does ``route`` enter ``peer`` at rel -x?

        The comparison probe is the Myricom ``route + (X,) +
        reverse(peer.route)`` with X fixed to ``-shift`` — the only
        shift compatible with the signatures — so each signature
        collision costs one probe, not an X-sweep.
        """
        x = -shift
        if abs(x) >= self._radix:
            return False
        return self._svc.probe_loopback(
            route + (x,) + reverse_turns(peer.route)
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _new_switch(self, route: Turns) -> SwitchRecord:
        return SwitchRecord(
            f"switch-{len(self._switches)}", route, (0, self._radix - 1)
        )

    def _adopt(self, sw: SwitchRecord, view: _View) -> None:
        """Commit a completed view as a new (tree) switch."""
        used = view.used()
        if used[-1] - used[0] >= self._radix:
            raise MappingError(
                f"{sw.name} spans more ports than the radix"
            )
        self._used[sw.name] = frozenset(used)
        for i, name in view.hosts.items():
            if name in self._hosts:
                raise MappingError(
                    f"host {name} appeared on two switches; violates "
                    "the single-attachment assumption"
                )
            sw.ports[i] = (name, 0)
            self._hosts[name] = (sw, i)
        self._switches.append(sw)
        self._sigs.setdefault(self._signature(used, view.hosts), []).append(sw)

    def _enqueue_children(
        self, sw: SwitchRecord, view: _View, frontier: deque[Candidate]
    ) -> None:
        for turn in sorted(view.switch_turns):
            frontier.append(Candidate(sw.route + (turn,), sw, turn))
