"""The formal network model of Section 2.1 of the paper.

The network ``N`` is a finite multigraph on ``H ∪ S`` (hosts and switches,
disjoint). Edges are *wires*. Each end of every wire is labeled with a port
number such that no two wire ends incident on the same node share a port
number. A wire end is uniquely denoted by its ``(node, port)`` pair. A switch
has eight allowable port numbers ``{0, ..., 7}`` (the radix is configurable
for experimentation); a host has one port, ``0``.

This module deliberately does *not* use :mod:`networkx` as the primary
representation: the mapping algorithm's semantics depend on port-level
precision (which port a wire enters, relative turns through switches) that a
plain multigraph does not carry. :meth:`Network.to_networkx` provides a
bridge for graph-theoretic analyses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

from repro.topology.delta import Delta, DeltaJournal, EMPTY_DELTA

__all__ = [
    "HOST_PORT",
    "SWITCH_RADIX",
    "Network",
    "NodeKind",
    "PortRef",
    "TopologyError",
    "Wire",
]

#: Default switch radix: Myrinet 8-port crossbars.
SWITCH_RADIX = 8

#: The single port number a host owns.
HOST_PORT = 0


class TopologyError(ValueError):
    """Raised when an operation would violate the network model invariants."""


class NodeKind(enum.Enum):
    """The two node types of the formal model."""

    HOST = "host"
    SWITCH = "switch"


class PortRef(NamedTuple):
    """A wire end: the ``(node, port)`` pair of Section 2.1.

    A plain tuple underneath, so it hashes, compares and sorts as its
    ``(node, port)`` tuple and meets one as a dict or set key.
    """

    node: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.node}:{self.port}"


@dataclass(frozen=True, slots=True)
class Wire:
    """An undirected wire between two ports.

    ``a`` and ``b`` are stored in sorted order so that a wire compares equal
    regardless of the orientation it was declared in. ``key`` disambiguates
    parallel wires between the same port pairs in serialized form (ports are
    exclusive, so true duplicates cannot occur; the key is a stable id).
    """

    a: PortRef
    b: PortRef
    key: int = 0

    def __post_init__(self) -> None:
        if self.b < self.a:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    def other_end(self, end: PortRef) -> PortRef:
        """Return the opposite end of this wire.

        For a loopback wire (both ends on the same node) the ends are still
        distinct ports, so identity is well defined.
        """
        if end == self.a:
            return self.b
        if end == self.b:
            return self.a
        raise TopologyError(f"{end} is not an end of wire {self}")

    @property
    def nodes(self) -> tuple[str, str]:
        return (self.a.node, self.b.node)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.a}--{self.b}"


@dataclass(slots=True)
class _NodeInfo:
    kind: NodeKind
    radix: int
    meta: dict = field(default_factory=dict)


class Network:
    """A system-area network: hosts, switches, ports and wires.

    Invariants enforced on every mutation:

    - node names are unique across hosts and switches;
    - hosts expose only port 0, switches ports ``0..radix-1``;
    - at most one wire per ``(node, port)``;
    - a wire may not connect a port to itself (a physical cable has two
      plugs), but loopback cables between two ports of one switch are legal.

    The class is a faithful substrate for the mapping algorithm: everything
    the mapper can observe in-band is derived from this structure by the
    simulator package.
    """

    def __init__(self, *, default_radix: int = SWITCH_RADIX) -> None:
        if default_radix < 1:
            raise TopologyError("switch radix must be positive")
        self._default_radix = default_radix
        self._nodes: dict[str, _NodeInfo] = {}
        self._wires: dict[int, Wire] = {}
        self._port_map: dict[tuple[str, int], int] = {}
        self._next_wire_key = 0
        self._journal = DeltaJournal()
        #: Monotone mutation counter: bumped by every structural change.
        #: Derived structures (the incremental path-evaluation trie,
        #: routing adjacency) compare it against the epoch they were built
        #: at to decide whether their cached view is still valid.
        self.topology_epoch = 0
        #: The probe walks cached over this network
        #: (:class:`repro.simulator.path_eval.IncrementalPathEvaluator`):
        #: made by the first evaluator, shared by every later one, kept
        #: exact through the journal and never copied.
        self.walk_trie: object | None = None

    def _bump_epoch(self, delta: Delta) -> None:
        """The canonical epoch bump: every mutator's last act.

        ``delta`` is the wire-end footprint of the mutation being
        committed; it is journaled under the epoch being closed, so
        consumers holding an older epoch can learn *what* changed (see
        :meth:`affected_since`) instead of only *that* something changed.
        """
        self._journal.record(delta)
        self.topology_epoch += 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_host(self, name: str, **meta: object) -> str:
        """Add a host node. Hosts have the single port 0."""
        self._check_fresh(name)
        self._nodes[name] = _NodeInfo(NodeKind.HOST, 1, dict(meta))
        self._bump_epoch(EMPTY_DELTA)  # a new node has no wire ends yet
        return name

    def add_switch(self, name: str, *, radix: int | None = None, **meta: object) -> str:
        """Add a switch node with ports ``0..radix-1`` (default 8)."""
        self._check_fresh(name)
        r = self._default_radix if radix is None else radix
        if r < 1:
            raise TopologyError("switch radix must be positive")
        self._nodes[name] = _NodeInfo(NodeKind.SWITCH, r, dict(meta))
        self._bump_epoch(EMPTY_DELTA)  # a new node has no wire ends yet
        return name

    def connect(
        self,
        node_a: str,
        port_a: int,
        node_b: str,
        port_b: int,
    ) -> Wire:
        """Run a wire between two free ports and return it."""
        return self.connect_all(((node_a, port_a, node_b, port_b),))[0]

    def connect_all(
        self, pairs: Iterable[tuple[str, int, str, int]]
    ) -> list[Wire]:
        """Run a batch of wires, in order, as one mutation; return them.

        Each ``(node_a, port_a, node_b, port_b)`` is checked as it is
        consumed: both nodes exist, both ports are in range and free (of
        the batch's earlier wires too), and the wire does not join a port
        to itself. The first bad one raises :class:`TopologyError` and
        leaves the network as it was. Wire keys follow the batch order,
        and the batch is one epoch bump with one journal entry: every end
        it wired, as added.
        """
        wires = self._wires
        port_map = self._port_map
        made: list[Wire] = []
        ends: list[PortRef] = []
        key = self._next_wire_key
        try:
            for node_a, port_a, node_b, port_b in pairs:
                ra = self._port_ref(node_a, port_a)
                rb = self._port_ref(node_b, port_b)
                if port_a == port_b and node_a == node_b:
                    raise TopologyError(f"cannot wire port {ra} to itself")
                # Claim both ports, one lookup each; a port already mapped
                # to another key is taken.
                if port_map.setdefault(ra, key) != key:
                    raise TopologyError(f"port {ra} already wired")
                if port_map.setdefault(rb, key) != key:
                    del port_map[ra]
                    raise TopologyError(f"port {rb} already wired")
                wire = wires[key] = Wire(ra, rb, key=key)
                made.append(wire)
                ends.append(ra)
                ends.append(rb)
                key += 1
        except BaseException:
            for wire in made:
                del wires[wire.key]
                del port_map[wire.a]
                del port_map[wire.b]
            raise
        if made:
            self._next_wire_key = key
            self._bump_epoch(Delta(added=frozenset(ends)))
        return made

    def disconnect(self, wire: Wire) -> None:
        """Remove a wire (e.g. to model a pulled cable)."""
        stored = self._wires.pop(wire.key, None)
        if stored is None:
            raise TopologyError(f"wire {wire} not in network")
        del self._port_map[stored.a]
        del self._port_map[stored.b]
        self._bump_epoch(Delta(removed=frozenset((stored.a, stored.b))))

    def remove_node(self, name: str) -> None:
        """Remove a node and every wire incident on it."""
        info = self._nodes.get(name)
        if info is None:
            raise TopologyError(f"no such node: {name}")
        for wire in list(self.wires_of(name)):
            self.disconnect(wire)
        # The disconnects above journaled the wired ends; this final delta
        # covers the *unwired* ones too, so caches keyed on the node's mere
        # existence (e.g. a memoized "source host not attached") also drop.
        delta = Delta(
            removed=frozenset(PortRef(name, port) for port in range(info.radix))
        )
        del self._nodes[name]
        self._bump_epoch(delta)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def default_radix(self) -> int:
        return self._default_radix

    def affected_since(self, epoch: int) -> Delta | None:
        """The merged wire-end delta of every mutation since ``epoch``.

        Returns ``None`` when ``epoch`` has fallen out of the bounded
        journal window — the caller must then rebuild from scratch, which
        is also the only sound interpretation. See
        :mod:`repro.topology.delta` for the delta contract.
        """
        return self._journal.since(epoch, self.topology_epoch)

    def is_host(self, name: str) -> bool:
        return self._info(name).kind is NodeKind.HOST

    def is_switch(self, name: str) -> bool:
        return self._info(name).kind is NodeKind.SWITCH

    def radix(self, name: str) -> int:
        """Number of ports on the node (1 for hosts)."""
        return self._info(name).radix

    def meta(self, name: str) -> Mapping[str, object]:
        """User metadata attached at node creation (e.g. ``utility=True``)."""
        return self._info(name).meta

    @property
    def hosts(self) -> list[str]:
        return [n for n, i in self._nodes.items() if i.kind is NodeKind.HOST]

    @property
    def switches(self) -> list[str]:
        return [n for n, i in self._nodes.items() if i.kind is NodeKind.SWITCH]

    @property
    def nodes(self) -> list[str]:
        return list(self._nodes)

    @property
    def wires(self) -> list[Wire]:
        return list(self._wires.values())

    @property
    def n_hosts(self) -> int:
        return sum(1 for i in self._nodes.values() if i.kind is NodeKind.HOST)

    @property
    def n_switches(self) -> int:
        return sum(1 for i in self._nodes.values() if i.kind is NodeKind.SWITCH)

    @property
    def n_wires(self) -> int:
        return len(self._wires)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def wire_at(self, node: str, port: int) -> Wire | None:
        """The wire plugged into ``(node, port)``, or ``None`` if the port is free."""
        key = self._port_map.get(self._port_ref(node, port))
        return None if key is None else self._wires[key]

    def neighbor_at(self, node: str, port: int) -> PortRef | None:
        """The port at the far end of the wire at ``(node, port)``, if any.

        This is the primitive the routing engine uses: "the neighbor of
        ``(n_i, p_i + a_i)`` in N, when such a neighbor exists" (Section 2.2).
        """
        wire = self.wire_at(node, port)
        if wire is None:
            return None
        a = wire.a  # the two ends are distinct ports: matching one decides
        return wire.b if a.port == port and a.node == node else a

    def wires_of(self, node: str) -> Iterator[Wire]:
        """All wires with at least one end on ``node`` (loopbacks yielded once)."""
        info = self._info(node)
        seen: set[int] = set()
        for port in range(info.radix):
            key = self._port_map.get((node, port))
            if key is not None and key not in seen:
                seen.add(key)
                yield self._wires[key]

    def free_ports(self, node: str) -> list[int]:
        info = self._info(node)
        return [
            p for p in range(info.radix) if (node, p) not in self._port_map
        ]

    def host_attachment(self, host: str) -> PortRef | None:
        """The switch port a host is plugged into (hosts have one wire)."""
        if not self.is_host(host):
            raise TopologyError(f"{host} is not a host")
        return self.neighbor_at(host, HOST_PORT)

    # ------------------------------------------------------------------
    # validation / export
    # ------------------------------------------------------------------
    def validate(self, *, require_connected: bool = False) -> None:
        """Check the standing assumptions of the paper's model.

        Raises :class:`TopologyError` when the network violates the system
        model: at least one switch and two hosts, every host wired to a
        switch, and (optionally) connectivity.
        """
        if self.n_switches < 1:
            raise TopologyError("model requires at least one switch")
        if self.n_hosts < 2:
            raise TopologyError("model requires at least two hosts")
        for host in self.hosts:
            attach = self.host_attachment(host)
            if attach is None:
                raise TopologyError(f"host {host} is not attached to the network")
            if not self.is_switch(attach.node):
                raise TopologyError(
                    f"host {host} is wired to {attach.node}, which is not a switch"
                )
        if require_connected and not self.is_connected():
            raise TopologyError("network is not connected")

    def is_connected(self) -> bool:
        if not self._nodes:
            return True
        import networkx as nx

        g = self.to_networkx()
        return nx.is_connected(nx.Graph(g)) if g.number_of_nodes() else True

    def to_networkx(self):
        """Export as a :class:`networkx.MultiGraph`.

        Node attributes: ``kind`` ("host"/"switch"). Edge keys are wire keys;
        edge attributes ``port_u``/``port_v`` give the port at each endpoint
        (``port_u`` belongs to the lexicographically addressed ``u``
        networkx endpoint as stored in ``Wire.a``).
        """
        import networkx as nx

        g = nx.MultiGraph()
        for name, info in self._nodes.items():
            g.add_node(name, kind=info.kind.value, radix=info.radix)
        for wire in self._wires.values():
            g.add_edge(
                wire.a.node,
                wire.b.node,
                key=wire.key,
                port_a=wire.a.port,
                port_b=wire.b.port,
            )
        return g

    def copy(self) -> "Network":
        """Deep structural copy (metadata dicts are shallow-copied)."""
        dup = Network(default_radix=self._default_radix)
        for name, info in self._nodes.items():
            if info.kind is NodeKind.HOST:
                dup.add_host(name, **info.meta)
            else:
                dup.add_switch(name, radix=info.radix, **info.meta)
        dup.connect_all(
            (*wire.a, *wire.b) for wire in self._wires.values()
        )
        return dup

    def induced_subnetwork(self, keep: Iterable[str]) -> "Network":
        """The subnetwork induced on ``keep`` (wires with both ends kept),
        nodes and wires in this network's order."""
        keep_set = set(keep)
        for name in keep_set.difference(self._nodes):
            self._info(name)  # raises: no such node
        sub = Network(default_radix=self._default_radix)
        for name, info in self._nodes.items():
            if name not in keep_set:
                continue
            if info.kind is NodeKind.HOST:
                sub.add_host(name, **info.meta)
            else:
                sub.add_switch(name, radix=info.radix, **info.meta)
        sub.connect_all(
            (*wire.a, *wire.b)
            for wire in self._wires.values()
            if wire.a.node in keep_set and wire.b.node in keep_set
        )
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(hosts={self.n_hosts}, switches={self.n_switches}, "
            f"wires={self.n_wires})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_fresh(self, name: str) -> None:
        if name in self._nodes:
            raise TopologyError(f"duplicate node name: {name}")

    def _info(self, name: str) -> _NodeInfo:
        info = self._nodes.get(name)
        if info is None:
            raise TopologyError(f"no such node: {name}")
        return info

    def _port_ref(self, node: str, port: int) -> PortRef:
        info = self._info(node)
        if not 0 <= port < info.radix:
            raise TopologyError(
                f"port {port} out of range for {node} (radix {info.radix})"
            )
        return PortRef(node, port)
