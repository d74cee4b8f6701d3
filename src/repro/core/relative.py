"""The relative-port model every mapper shares.

Myrinet turns are relative and never reduced modulo the switch degree, so
in-band probing pins the ports of a switch only up to one additive offset:
a mapper knows each wire by its *relative index* (port minus the entry
port of the route it first reached the switch by), never by its absolute
port. Every producer of a map therefore makes the same decision, and makes
it here:

* :func:`assemble` turns relative-index records into a
  :class:`~repro.topology.model.Network` under the canonical offset —
  each switch shifted so its lowest used index is port 0, a span of
  ``radix`` or more refused, every cable wired once;
* :class:`SwitchRecord`, :class:`Candidate`, :func:`record_wire` and
  :func:`x_sweep` are the bookkeeping of a breadth-first mapper that
  identifies switches with loopback comparison probes (the Myricom,
  self-identifying and spanning-tree mappers), with ports kept in
  :func:`assemble`'s end format so nothing is translated on the way out.

The offsets cancel wherever the map is used (``docs/ALGORITHM.md``,
"offsets cancel"): routes are turns, and a turn is a port difference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.simulator.turns import Turns
from repro.topology.model import Network, TopologyError

__all__ = [
    "Candidate",
    "End",
    "MappingError",
    "SwitchRecord",
    "assemble",
    "record_wire",
    "x_sweep",
]

#: One end of a wire: ``(node name, relative index)``; a host's index is 0.
End = tuple[str, int]


class MappingError(RuntimeError):
    """The deduction engine found a contradiction.

    Under the paper's assumptions (quiescent network, correct responses)
    this cannot happen: deductions are sound (Lemma 2). A contradiction
    means the network violates the system model or responses were corrupted.
    """


def assemble(
    nodes: Mapping[str, Mapping[int, End] | None],
    radix: int,
    host_meta: Mapping[str, Mapping] | None = None,
) -> tuple[Network, dict[str, int]]:
    """Build the canonical-offset network of a set of relative-port records.

    ``nodes`` maps every node name to its wire ends by relative index —
    ``{index: (far name, far index)}`` for a switch, ``None`` for a host —
    and its order is the order of the result: nodes are added in it, and
    wires are laid node by node in each record's own order (a host's one
    wire when the host comes up), each cable once. ``host_meta`` carries
    keyword metadata for hosts that have any. Returns the network and each
    switch's offset (port = relative index + offset), which is also the
    port its index 0 landed on. Raises :class:`MappingError` when a switch
    spans ``radix`` indices or more, or two records claim one port.
    """
    net = Network(default_radix=radix)
    offsets: dict[str, int] = {}
    attached: dict[str, dict[int, End]] = {}
    for name, ports in nodes.items():
        if ports is None:
            net.add_host(name, **(host_meta or {}).get(name, {}))
            continue
        lo, hi = min(ports, default=0), max(ports, default=0)
        if hi - lo >= radix:
            raise MappingError(
                f"{name} spans {hi - lo + 1} port indices > radix {radix}"
            )
        offsets[name] = -lo
        net.add_switch(name, radix=radix)
        for index, (far, _) in ports.items():
            if far in nodes and nodes[far] is None:
                attached[far] = {0: (name, index)}
    handed: list[tuple[End, End]] = []  # connect_all consumes lazily

    def cables() -> Iterator[tuple[str, int, str, int]]:
        seen: set[tuple[End, End]] = set()
        for name, ports in nodes.items():
            if ports is None:
                ports = attached.get(name, {})
            for index, (far, far_index) in ports.items():
                a = (name, index + offsets.get(name, 0))
                b = (far, far_index + offsets.get(far, 0))
                key = (a, b) if a < b else (b, a)
                if key in seen:
                    continue
                seen.add(key)
                handed.append((a, b))
                yield (*a, *b)

    try:
        net.connect_all(cables())
    except TopologyError as exc:
        a, b = handed[-1]
        raise MappingError(
            f"contradictory wire records at {a[0]}:{a[1]} -- "
            f"{b[0]}:{b[1]}: {exc}"
        ) from exc
    return net, offsets


@dataclass(slots=True)
class SwitchRecord:
    """What a breadth-first mapper knows about one explored switch."""

    name: str
    #: Brings a worm from the mapper host into this switch; relative
    #: indices count from the port it arrives on.
    route: Turns
    #: Feasible absolute entry ports, narrowed by hits (the planner window).
    window: tuple[int, int]
    #: Relative index -> far end, for every wire resolved so far.
    ports: dict[int, End] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.route)


@dataclass(slots=True)
class Candidate:
    """A frontier entry: a wire out of ``parent`` not yet identified."""

    route: Turns
    parent: SwitchRecord
    parent_turn: int


def record_wire(
    a: SwitchRecord, a_index: int, b: SwitchRecord, b_index: int
) -> None:
    """Record one cable at both of its ends, refusing a second far end."""
    for sw, index, end in (
        (a, a_index, (b.name, b_index)),
        (b, b_index, (a.name, a_index)),
    ):
        if sw.ports.setdefault(index, end) != end:
            raise MappingError(
                f"{sw.name} index {index} resolved to two different far "
                f"ends: {sw.ports[index]} vs {end}"
            )


def x_sweep(window: tuple[int, int], radix: int) -> Iterator[int]:
    """The turns X worth sending in ``route + (X,) + reverse(sw.route)``.

    That probe loops back iff ``route`` enters the explored switch ``sw``
    at relative index ``-X``. Order: 0 first (same entry port), then
    outward by size. Sound pruning: index ``-X`` must be a legal port for
    some absolute entry port in ``sw``'s ``window``.
    """
    lo, hi = window
    for x in itertools.chain(
        (0,), (sign * mag for mag in range(1, radix) for sign in (1, -1))
    ):
        if -hi <= -x <= (radix - 1) - lo:
            yield x
