"""Port-aware isomorphism tests for produced maps.

The mapping algorithm can name hosts (they carry unique identifiers) but not
switches, and it observes switch ports only *relatively*: all port indices at
one switch are recovered up to a common additive offset. Consequently the
strongest guarantee a mapper can give is an isomorphism that

- fixes every host (by name),
- maps switches to switches,
- maps wires to wires such that at each switch the port numbers on
  corresponding wire ends differ by a per-switch constant offset.

:func:`match_networks` decides exactly that relation (a report that is
truthy iff the networks correspond, with the witness or a reason); it is
what the theorem "``M / L`` is isomorphic to ``N - F``" is checked against in
tests and experiments.

The matcher is host-anchored propagation plus a full witness check. It is
complete on networks where every switch shares a connected component with
a host — every core ``N - F`` the mappers are checked against — because a
host pins its attachment switch and its port offset, and a pinned switch
pins every switch it is wired to. A switch in a host-free component has
nothing to anchor it; the matcher refuses such a pair with a named reason
instead of searching. The exhaustive search over host-free clusters is
the differential oracle in ``tests/topology/reference_isomorphism.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.model import Network, PortRef

__all__ = [
    "IsomorphismReport",
    "match_networks",
]


@dataclass(slots=True)
class IsomorphismReport:
    """Outcome of a map-vs-truth comparison, with a witness or a reason."""

    isomorphic: bool
    node_map: dict[str, str] = field(default_factory=dict)
    port_offsets: dict[str, int] = field(default_factory=dict)
    reason: str = ""

    def __bool__(self) -> bool:
        return self.isomorphic


def match_networks(model: Network, actual: Network) -> IsomorphismReport:
    """Find a host-anchored, offset-tolerant isomorphism ``model -> actual``.

    The match is propagated breadth-first from the hosts: a host pins its
    attachment switch and that switch's port offset; a pinned switch pins
    every neighbor it has a wire to (and the neighbor's offset). A
    contradiction at any point, or counts that do not agree, refutes the
    isomorphism. Networks whose every switch shares a component with a host
    (true of every core ``N - F``) are matched completely by propagation; a
    model switch propagation cannot reach lies in a host-free component,
    and the pair is refused with that reason, without a search.
    """
    if set(model.hosts) != set(actual.hosts):
        return IsomorphismReport(False, reason="host sets differ")
    if model.n_switches != actual.n_switches:
        return IsomorphismReport(
            False,
            reason=f"switch counts differ: {model.n_switches} vs {actual.n_switches}",
        )
    if model.n_wires != actual.n_wires:
        return IsomorphismReport(
            False, reason=f"wire counts differ: {model.n_wires} vs {actual.n_wires}"
        )

    node_map: dict[str, str] = {h: h for h in model.hosts}
    reverse: dict[str, str] = dict(node_map)
    offsets: dict[str, int] = {}
    queue: list[str] = []

    def pin(m_switch: str, a_switch: str, offset: int) -> str | None:
        """Record model switch -> actual switch with a port offset.

        Returns an error string on contradiction, ``None`` on success.
        """
        if m_switch in node_map:
            if node_map[m_switch] != a_switch:
                return (
                    f"{m_switch} maps to both {node_map[m_switch]} and {a_switch}"
                )
            if offsets[m_switch] != offset:
                return (
                    f"{m_switch}: conflicting port offsets "
                    f"{offsets[m_switch]} vs {offset}"
                )
            return None
        if a_switch in reverse:
            return f"{a_switch} already matched by {reverse[a_switch]}"
        if not actual.is_switch(a_switch):
            return f"{a_switch} is not a switch in the actual network"
        node_map[m_switch] = a_switch
        reverse[a_switch] = m_switch
        offsets[m_switch] = offset
        queue.append(m_switch)
        return None

    # Seed: each host anchors its attachment switch.
    for host in model.hosts:
        m_at = model.host_attachment(host)
        a_at = actual.host_attachment(host)
        if m_at is None or a_at is None:
            if m_at is not a_at:
                return IsomorphismReport(
                    False, reason=f"host {host} attached in only one network"
                )
            continue
        if model.is_host(m_at.node):  # a host-host cable anchors no switch
            if a_at != m_at:
                return IsomorphismReport(
                    False, reason=f"host {host} wired differently (actual end {a_at})"
                )
            continue
        err = pin(m_at.node, a_at.node, a_at.port - m_at.port)
        if err:
            return IsomorphismReport(False, reason=err)

    # Propagate across switch-switch wires.
    while queue:
        m_switch = queue.pop()
        a_switch = node_map[m_switch]
        delta = offsets[m_switch]
        for wire in model.wires_of(m_switch):
            for end in _ends_on(wire, m_switch):
                a_port = end.port + delta
                if not 0 <= a_port < actual.radix(a_switch):
                    return IsomorphismReport(
                        False,
                        reason=(
                            f"model wire at {end} maps outside "
                            f"{a_switch}'s port range (port {a_port})"
                        ),
                    )
                a_wire = actual.wire_at(a_switch, a_port)
                if a_wire is None:
                    return IsomorphismReport(
                        False,
                        reason=(
                            f"model wire at {end} has no counterpart at "
                            f"{a_switch}:{a_port}"
                        ),
                    )
                m_far = wire.other_end(end)
                a_far = a_wire.other_end(PortRef(a_switch, a_port))
                if model.is_host(m_far.node):
                    if m_far.node != a_far.node:
                        return IsomorphismReport(
                            False,
                            reason=(
                                f"host {m_far.node} wired differently "
                                f"(actual end {a_far})"
                            ),
                        )
                    continue
                if not actual.is_switch(a_far.node):
                    return IsomorphismReport(
                        False,
                        reason=f"switch {m_far.node} corresponds to host {a_far.node}",
                    )
                err = pin(m_far.node, a_far.node, a_far.port - m_far.port)
                if err:
                    return IsomorphismReport(False, reason=err)

    unmatched = [s for s in model.switches if s not in node_map]
    if unmatched:
        return IsomorphismReport(
            False,
            reason=f"host-free switches {unmatched}: no host anchors their component",
        )

    if not _verify(model, actual, node_map, offsets):
        return IsomorphismReport(False, reason="verification of witness failed")
    return IsomorphismReport(True, node_map=node_map, port_offsets=offsets)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------


def _ends_on(wire, node: str):
    """Both ends of ``wire`` that sit on ``node`` (two for loopbacks)."""
    ends = []
    if wire.a.node == node:
        ends.append(wire.a)
    if wire.b.node == node:
        ends.append(wire.b)
    return ends


def _verify(
    model: Network,
    actual: Network,
    node_map: dict[str, str],
    offsets: dict[str, int],
) -> bool:
    """Full witness check: every model wire lands on a distinct actual wire."""
    if len(set(node_map.values())) != len(node_map):
        return False
    seen: set[tuple[PortRef, PortRef]] = set()
    for wire in model.wires:
        ends = []
        for end in (wire.a, wire.b):
            mapped = node_map.get(end.node)
            if mapped is None:
                return False
            shift = offsets.get(end.node, 0)
            ends.append(PortRef(mapped, end.port + shift))
        a, b = sorted(ends)
        if not 0 <= a.port < actual.radix(a.node):
            return False
        a_wire = actual.wire_at(*a)
        if a_wire is None or {a_wire.a, a_wire.b} != {a, b}:
            return False
        if (a, b) in seen:
            return False
        seen.add((a, b))
    return True
