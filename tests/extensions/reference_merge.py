"""Reference partial-map merge: the pre-model-graph implementation.

This is the ``_Accumulator`` / ``_absorb_into`` / deferred-view loop that
``repro.extensions.parallel_maps`` shipped before ``merge_partial_maps``
moved onto the mapper's own model graph
(:class:`repro.core.model_graph.ModelGraph`) — a second union-find with
offset composition, moved here verbatim and kept only as the oracle of
``test_merge_reference.py``.
"""

from __future__ import annotations

from repro.core.relative import MappingError, assemble
from repro.extensions.parallel_maps import MergeConflict, PartialMap
from repro.topology.model import HOST_PORT, Network
from tests.topology.reference_queries import used_ports


class _Accumulator:
    """The growing global view, in an offset-tolerant representation.

    Accumulator switch ports are unbounded integers (a later view can
    reveal ports below an earlier view's canonical zero); endpoints are
    ``("host", name)`` or ``("switch", (name, index))``.

    Switches are *anonymous*, so two accumulator switches can turn out to
    be the same physical switch (one view entered a region through each of
    two different cables before any shared host tied them together). The
    accumulator therefore carries a union-find with offset composition —
    the same deduction the Berkeley mapper performs on its model graph —
    and :meth:`wire` unifies switch records instead of failing when two
    switch endpoints collide. Host contradictions and impossible port
    spans remain hard conflicts.
    """

    def __init__(self, radix: int) -> None:
        self.radix = radix
        #: canonical switch name -> {index: endpoint}
        self.switches: dict[str, dict[int, tuple]] = {}
        #: alias name -> (parent name, shift): index i of alias == index
        #: i + shift of parent. Chains compress through :meth:`find`.
        self._alias: dict[str, tuple[str, int]] = {}
        #: host name -> (canonical switch, index) or None
        self._hosts: dict[str, tuple[str, int] | None] = {}
        self.host_meta: dict[str, dict] = {}
        self._fresh = 0

    # -- naming and aliasing -------------------------------------------
    def fresh_switch(self) -> str:
        name = f"m{self._fresh}"
        self._fresh += 1
        self.switches[name] = {}
        return name

    def find(self, name: str, index: int = 0) -> tuple[str, int]:
        """Canonical (switch, index) for a possibly-aliased reference."""
        shift = 0
        while name in self._alias:
            parent, step = self._alias[name]
            name = parent
            shift += step
        return name, index + shift

    def _normalize(self, endpoint: tuple) -> tuple:
        if endpoint[0] == "switch":
            n, i = endpoint[1]
            return ("switch", self.find(n, i))
        return endpoint

    # -- hosts ------------------------------------------------------------
    @property
    def hosts(self) -> dict:
        return self._hosts

    def host_attachment(self, host: str):
        at = self._hosts.get(host)
        if at is None:
            return None
        return self.find(*at)

    def register_host(self, host: str, meta: dict) -> None:
        self.host_meta.setdefault(host, dict(meta))
        self._hosts.setdefault(host, None)

    def attach_host(self, host: str, switch: str, index: int) -> None:
        switch, index = self.find(switch, index)
        existing = self.host_attachment(host)
        if existing is not None and existing != (switch, index):
            raise MergeConflict(
                f"host {host} attached at both {existing} and "
                f"{(switch, index)}"
            )
        self._hosts[host] = (switch, index)
        self.wire(switch, index, ("host", host))

    # -- wires ------------------------------------------------------------
    def endpoint_at(self, switch: str, index: int):
        switch, index = self.find(switch, index)
        ep = self.switches[switch].get(index)
        return self._normalize(ep) if ep is not None else None

    def wire(self, switch: str, index: int, endpoint: tuple) -> None:
        """Record one wire end; colliding switch endpoints unify."""
        switch, index = self.find(switch, index)
        endpoint = self._normalize(endpoint)
        ports = self.switches[switch]
        existing = ports.get(index)
        existing = self._normalize(existing) if existing is not None else None
        if existing is None or existing == endpoint:
            ports[index] = endpoint
            return
        if existing[0] == "switch" and endpoint[0] == "switch":
            # Two names for one far switch: an actual port has one cable.
            (na, ia), (nb, ib) = existing[1], endpoint[1]
            self.union(na, ia, nb, ib)
            return
        raise MergeConflict(
            f"{switch}:{index} wired to both {existing} and {endpoint}"
        )

    def union(self, na: str, ia: int, nb: str, ib: int) -> None:
        """Deduce that (nb, ib) is the same actual port as (na, ia)."""
        na, ia = self.find(na, ia)
        nb, ib = self.find(nb, ib)
        if na == nb:
            if ia != ib:
                raise MergeConflict(
                    f"switch {na} would unify with itself under a port "
                    f"shift of {ib - ia}"
                )
            return
        shift = ia - ib  # nb's index i corresponds to na's index i + shift
        moved = self.switches.pop(nb)
        self._alias[nb] = (na, shift)
        for i, ep in moved.items():
            self.wire(na, i + shift, ep)

    # -- output ------------------------------------------------------------
    def to_network(self) -> Network:
        nodes: dict[str, dict | None] = {}
        for name, ports in self.switches.items():
            record = nodes[name] = {}
            for index, endpoint in ports.items():
                kind, far = self._normalize(endpoint)
                record[index] = (far, HOST_PORT) if kind == "host" else far
        for host in (*self.host_meta, *self._hosts):
            nodes[host] = None
        try:
            return assemble(nodes, self.radix, self.host_meta)[0]
        except MappingError as exc:
            raise MergeConflict(f"merged view: {exc}") from exc


def reference_merge(partials: list[PartialMap]) -> list[Network]:
    """Merge partial views into globally consistent maps.

    Returns one :class:`Network` per connected island of views (a single
    network when every view is transitively bridged by shared hosts).
    """
    if not partials:
        return []
    pending = list(partials)
    islands: list[_Accumulator] = []
    while pending:
        seed = pending.pop(0)
        acc = _Accumulator(seed.network.default_radix)
        _absorb_into(acc, seed.network)
        progress = True
        while progress:
            progress = False
            for view in list(pending):
                if set(view.network.hosts) & set(acc.hosts):
                    pending.remove(view)
                    _absorb_into(acc, view.network)
                    progress = True
        islands.append(acc)
    return [island.to_network() for island in islands]


def _absorb_into(acc: _Accumulator, view: Network) -> None:
    """Union one partial view into the accumulator.

    Correspondence: view switch -> (acc switch, index offset). Seeded at
    shared hosts, propagated over the view's wires; unmapped view switches
    become fresh accumulator switches adopting the view's port numbers.
    """
    mapping: dict[str, tuple[str, int]] = {}
    queue: list[str] = []

    for host in view.hosts:
        acc.host_meta.setdefault(host, dict(view.meta(host)))
        acc.hosts.setdefault(host, None)

    def pin(v_switch: str, a_switch: str, offset: int) -> None:
        a_switch, offset = acc.find(a_switch, offset)
        existing = mapping.get(v_switch)
        if existing is not None:
            e_switch, e_offset = acc.find(existing[0], existing[1])
            if (e_switch, e_offset) == (a_switch, offset):
                mapping[v_switch] = (e_switch, e_offset)
                return
            # The view switch was pinned to two accumulator switches:
            # they must be the same physical switch — unify them.
            acc.union(e_switch, e_offset, a_switch, offset)
            mapping[v_switch] = acc.find(e_switch, e_offset)
            return
        mapping[v_switch] = (a_switch, offset)
        queue.append(v_switch)

    # Seed from hosts already attached in the accumulator.
    for host in view.hosts:
        v_at = view.host_attachment(host)
        a_at = acc.host_attachment(host)
        if v_at is not None and a_at is not None:
            pin(v_at.node, a_at[0], a_at[1] - v_at.port)

    if not mapping and view.switches:
        # Nothing shared yet: adopt the view verbatim (island seed).
        for v_switch in sorted(view.switches):
            pin(v_switch, acc.fresh_switch(), 0)

    cursor = 0
    while cursor < len(queue):
        v_switch = queue[cursor]
        cursor += 1
        a_switch, delta = acc.find(*mapping[v_switch])
        for port in used_ports(view, v_switch):
            far = view.neighbor_at(v_switch, port)
            assert far is not None
            a_index = port + delta
            existing = acc.endpoint_at(a_switch, a_index)
            if view.is_host(far.node):
                if existing is not None and existing != ("host", far.node):
                    raise MergeConflict(
                        f"{a_switch}:{a_index} wired to {existing} in the "
                        f"global view but to host {far.node} in a partial"
                    )
                acc.attach_host(far.node, a_switch, a_index)
                continue
            if far.node in mapping:
                far_a, far_delta = acc.find(*mapping[far.node])
                endpoint = ("switch", (far_a, far.port + far_delta))
                acc.wire(a_switch, a_index, endpoint)
                acc.wire(far_a, far.port + far_delta, ("switch", (a_switch, a_index)))
                continue
            if existing is not None:
                # The global view already knows this port's far end: that
                # object *is* the view's far switch. Align offsets.
                if existing[0] != "switch":
                    raise MergeConflict(
                        f"{a_switch}:{a_index} is a host link in the global "
                        f"view but a switch link in a partial"
                    )
                far_a, far_index = existing[1]
                pin(far.node, far_a, far_index - far.port)
                continue
            # Entirely new switch: adopt it with the view's port numbers.
            name = acc.fresh_switch()
            pin(far.node, name, 0)
            acc.wire(a_switch, a_index, ("switch", (name, far.port)))
            acc.wire(name, far.port, ("switch", (a_switch, a_index)))
