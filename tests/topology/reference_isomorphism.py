"""The pairwise isomorphism search: propagation + exhaustive backtracking.

The same host-anchored propagation as ``match_networks``, then — for
host-free switch clusters, which production refuses — every remaining
actual switch tried under every port offset in range. Slow and obviously
complete; kept as the differential oracle of
``test_isomorphism_differential.py``. The witness check is production's
own (one definition of "matches"); the wire-signature and
local-consistency checks live here, the only place that searches.

``networks_equal`` is the strict comparison (identical names, ports and
wires) the serialization round-trip tests use.
"""

from __future__ import annotations

from repro.topology.isomorphism import IsomorphismReport, _ends_on, _verify
from repro.topology.model import Network, PortRef


def networks_equal(a: Network, b: Network) -> bool:
    """Strict structural equality: same nodes, kinds, and wired ports."""
    if set(a.hosts) != set(b.hosts) or set(a.switches) != set(b.switches):
        return False
    wires_a = {(w.a, w.b) for w in a.wires}
    wires_b = {(w.a, w.b) for w in b.wires}
    return wires_a == wires_b


def match_networks_pairwise(model: Network, actual: Network) -> IsomorphismReport:
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
        remaining_actual = [s for s in actual.switches if s not in reverse]
        solution = _backtrack(
            model, actual, unmatched, remaining_actual, node_map, reverse, offsets
        )
        if solution is None:
            return IsomorphismReport(
                False, reason=f"no assignment for host-free switches {unmatched}"
            )
        node_map, offsets = solution

    if not _verify(model, actual, node_map, offsets):
        return IsomorphismReport(False, reason="verification of witness failed")
    return IsomorphismReport(True, node_map=node_map, port_offsets=offsets)


def _backtrack(
    model: Network,
    actual: Network,
    todo: list[str],
    candidates: list[str],
    node_map: dict[str, str],
    reverse: dict[str, str],
    offsets: dict[str, int],
):
    """Exhaustive assignment for switches unreachable from any host."""
    if not todo:
        return dict(node_map), dict(offsets)
    m_switch = todo[0]
    for a_switch in candidates:
        if a_switch in reverse:
            continue
        for delta in range(-(model.radix(m_switch) - 1), actual.radix(a_switch)):
            if _wire_signature(model, m_switch, delta) != _wire_signature(
                actual, a_switch, 0
            ):
                continue
            node_map[m_switch] = a_switch
            reverse[a_switch] = m_switch
            offsets[m_switch] = delta
            if _locally_consistent(model, actual, m_switch, node_map, offsets):
                result = _backtrack(
                    model, actual, todo[1:], candidates, node_map, reverse, offsets
                )
                if result is not None:
                    return result
            del node_map[m_switch]
            del reverse[a_switch]
            del offsets[m_switch]
    return None


def _wire_signature(net: Network, node: str, offset: int) -> frozenset[tuple]:
    """Offset-normalized wire stubs at ``node``: (shifted port, far kind)."""
    sig = []
    for wire in net.wires_of(node):
        for end in _ends_on(wire, node):
            far = wire.other_end(end)
            far_kind = "host" if net.is_host(far.node) else "switch"
            sig.append((end.port + offset, far_kind))
    return frozenset(sig)


def _locally_consistent(
    model: Network,
    actual: Network,
    m_switch: str,
    node_map: dict[str, str],
    offsets: dict[str, int],
) -> bool:
    """Check the wires of ``m_switch`` against all currently pinned neighbors."""
    a_switch = node_map[m_switch]
    delta = offsets[m_switch]
    for wire in model.wires_of(m_switch):
        for end in _ends_on(wire, m_switch):
            a_port = end.port + delta
            if not 0 <= a_port < actual.radix(a_switch):
                return False
            a_wire = actual.wire_at(a_switch, a_port)
            if a_wire is None:
                return False
            m_far = wire.other_end(end)
            a_far = a_wire.other_end(PortRef(a_switch, a_port))
            if m_far.node in node_map:
                if node_map[m_far.node] != a_far.node:
                    return False
                if model.is_switch(m_far.node):
                    if offsets[m_far.node] != a_far.port - m_far.port:
                        return False
    return True
