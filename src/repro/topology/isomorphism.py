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
tests and experiments. :func:`networks_equal` is the strict comparison
(identical names, ports and wires) used for serialization round-trips.

The matcher first refines both networks into *canonical signature classes*
— an iterative Weisfeiler-Leman-style coloring over (radix, attached host
names, offset-normalized port structure) — refuting non-isomorphic pairs
without any assignment search and restricting the host-free backtracking
fallback to same-class candidates with the one port offset that aligns
their used-port ranges. The original exhaustive candidates-times-offsets
scan is the differential oracle in ``tests/topology/reference_isomorphism.py``:
both provably explore the same witness space (a non-aligned offset can
never equate wire signatures), so their verdicts always agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.topology.model import Network, PortRef

__all__ = [
    "IsomorphismReport",
    "match_networks",
    "networks_equal",
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


def networks_equal(a: Network, b: Network) -> bool:
    """Strict structural equality: same nodes, kinds, and wired ports."""
    if set(a.hosts) != set(b.hosts) or set(a.switches) != set(b.switches):
        return False
    wires_a = {(w.a, w.b) for w in a.wires}
    wires_b = {(w.a, w.b) for w in b.wires}
    return wires_a == wires_b


def match_networks(model: Network, actual: Network) -> IsomorphismReport:
    """Find a host-anchored, offset-tolerant isomorphism ``model -> actual``.

    The match is propagated breadth-first from the hosts: a host pins its
    attachment switch and that switch's port offset; a pinned switch pins
    every neighbor it has a wire to (and the neighbor's offset). A
    contradiction at any point, or counts that do not agree, refutes the
    isomorphism. Networks whose every switch lies on some path between hosts
    (true of every core ``N - F``) are matched completely by propagation; a
    backtracking fallback covers host-free switch clusters, pruned by
    canonical WL signature classes (which also refute up front when the
    class multisets disagree).
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

    colors = _wl_colors(model, actual)
    if Counter(colors[(0, s)] for s in model.switches) != Counter(
        colors[(1, s)] for s in actual.switches
    ):
        return IsomorphismReport(
            False,
            reason=(
                "canonical signature classes differ (WL refinement "
                "over radix, host anchors and port structure)"
            ),
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
        # Host-free switch clusters (e.g. comparing full networks that still
        # contain F). Solve the remainder by backtracking.
        solution = _backtrack_wl(
            model, actual, unmatched, node_map, reverse, offsets, colors
        )
        if solution is None:
            return IsomorphismReport(
                False, reason=f"no assignment for host-free switches {unmatched}"
            )
        node_map, offsets = solution

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


def _wire_signature(net: Network, node: str, offset: int) -> frozenset[tuple]:
    """Offset-normalized wire stubs at ``node``: (shifted port, far kind)."""
    sig = []
    for wire in net.wires_of(node):
        for end in _ends_on(wire, node):
            far = wire.other_end(end)
            far_kind = "host" if net.is_host(far.node) else "switch"
            sig.append((end.port + offset, far_kind))
    return frozenset(sig)


def _wl_colors(
    model: Network, actual: Network
) -> dict[tuple[int, str], int]:
    """Canonical signature classes for every switch of both networks.

    Iterative Weisfeiler-Leman-style refinement computed *jointly* (one
    class table spans both sides, so equal ids mean equal signatures across
    networks). Features are invariant under the per-switch port offset the
    mapper cannot observe: ports are normalized by the minimum used port,
    hosts anchor by name, and each round folds in the neighbor's class and
    the normalized far-end port. Class ids are assigned by sorting the
    canonical keys — never by ``hash()`` — so the refinement is
    deterministic across processes.

    Soundness: any isomorphism-up-to-offsets preserves every feature, so
    switches in different classes can never correspond. Equal classes are
    *not* sufficient — the backtracking assignment still verifies.
    """
    nets = (model, actual)
    base: dict[tuple[int, str], int] = {}
    for side, net in enumerate(nets):
        for s in net.switches:
            ports = net.used_ports(s)
            base[(side, s)] = min(ports) if ports else 0

    keys: dict[tuple[int, str], tuple] = {}
    for side, net in enumerate(nets):
        for s in net.switches:
            b = base[(side, s)]
            stub = []
            for wire in net.wires_of(s):
                for end in _ends_on(wire, s):
                    far = wire.other_end(end)
                    tag = (
                        "h:" + far.node if net.is_host(far.node) else "s"
                    )
                    stub.append((end.port - b, tag))
            keys[(side, s)] = (net.radix(s), tuple(sorted(stub)))
    colors = _assign_class_ids(keys)

    n_switches = model.n_switches + actual.n_switches
    n_classes = len(set(colors.values()))
    for _ in range(n_switches):
        keys = {}
        for side, net in enumerate(nets):
            for s in net.switches:
                b = base[(side, s)]
                nbr = []
                for wire in net.wires_of(s):
                    for end in _ends_on(wire, s):
                        far = wire.other_end(end)
                        if net.is_host(far.node):
                            nbr.append((end.port - b, -1, "h:" + far.node, 0))
                        else:
                            nbr.append(
                                (
                                    end.port - b,
                                    colors[(side, far.node)],
                                    "s",
                                    far.port - base[(side, far.node)],
                                )
                            )
                keys[(side, s)] = (colors[(side, s)], tuple(sorted(nbr)))
        colors = _assign_class_ids(keys)
        refined = len(set(colors.values()))
        if refined == n_classes:
            break  # stable partition: refinement only ever splits classes
        n_classes = refined
    return colors


def _assign_class_ids(keys: dict[tuple[int, str], tuple]) -> dict[tuple[int, str], int]:
    ids = {key: i for i, key in enumerate(sorted(set(keys.values())))}
    return {node: ids[key] for node, key in keys.items()}


def _min_aligned_delta(
    model: Network, m_switch: str, actual: Network, a_switch: str
) -> int | None:
    """The only port offset that can equate the two wire signatures.

    Shifting preserves order, so ``{m_ports + delta} == {a_ports}`` forces
    ``delta = min(a_ports) - min(m_ports)`` — every other delta fails the
    signature comparison, which is exactly why the exhaustive oracle's
    delta sweep finds at most this one (wireless switches match under any
    in-range delta; 0 is as good a canonical choice as any).
    """
    m_ports = model.used_ports(m_switch)
    a_ports = actual.used_ports(a_switch)
    if not m_ports and not a_ports:
        return 0
    if not m_ports or not a_ports:
        return None
    return min(a_ports) - min(m_ports)


def _backtrack_wl(
    model: Network,
    actual: Network,
    todo: list[str],
    node_map: dict[str, str],
    reverse: dict[str, str],
    offsets: dict[str, int],
    colors: dict[tuple[int, str], int],
):
    """Class-pruned assignment for switches unreachable from any host.

    Same witness space as the exhaustive oracle
    (``tests/topology/reference_isomorphism.py``), minus the candidate
    pairs WL already proved impossible and the port offsets that cannot
    align the used-port ranges.
    """
    by_class: dict[int, list[str]] = {}
    for s in actual.switches:
        if s not in reverse:
            by_class.setdefault(colors[(1, s)], []).append(s)
    for group in by_class.values():
        group.sort()
    # Most-constrained first: small candidate pools fail (and prune) early.
    order = sorted(
        todo, key=lambda s: (len(by_class.get(colors[(0, s)], ())), s)
    )
    return _assign_wl(
        model, actual, order, 0, node_map, reverse, offsets, colors, by_class
    )


def _assign_wl(
    model: Network,
    actual: Network,
    order: list[str],
    i: int,
    node_map: dict[str, str],
    reverse: dict[str, str],
    offsets: dict[str, int],
    colors: dict[tuple[int, str], int],
    by_class: dict[int, list[str]],
):
    if i == len(order):
        return dict(node_map), dict(offsets)
    m_switch = order[i]
    for a_switch in by_class.get(colors[(0, m_switch)], ()):
        if a_switch in reverse:
            continue
        delta = _min_aligned_delta(model, m_switch, actual, a_switch)
        if delta is None:
            continue
        if _wire_signature(model, m_switch, delta) != _wire_signature(
            actual, a_switch, 0
        ):
            continue
        node_map[m_switch] = a_switch
        reverse[a_switch] = m_switch
        offsets[m_switch] = delta
        if _locally_consistent(model, actual, m_switch, node_map, offsets):
            result = _assign_wl(
                model, actual, order, i + 1, node_map, reverse, offsets,
                colors, by_class,
            )
            if result is not None:
                return result
        del node_map[m_switch]
        del reverse[a_switch]
        del offsets[m_switch]
    return None


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
        a_wire = actual.wire_at(a.node, a.port)
        if a_wire is None or {a_wire.a, a_wire.b} != {a, b}:
            return False
        if (a, b) in seen:
            return False
        seen.add((a, b))
    return True
