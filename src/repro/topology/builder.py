"""Fluent construction helpers for :class:`~repro.topology.model.Network`.

The generators build their topologies through this builder, which removes
the port bookkeeping: every cable takes the next free port on each side. A
wiring that needs specific ports calls :meth:`Network.connect` on
:meth:`NetworkBuilder.peek` directly.
"""

from __future__ import annotations

from repro.topology.model import HOST_PORT, Network, TopologyError, Wire

__all__ = ["NetworkBuilder"]


class NetworkBuilder:
    """Build a :class:`Network` incrementally.

    Example::

        b = NetworkBuilder()
        b.switch("s0")
        b.hosts("h0", "h1")
        b.attach("h0", "s0")  # host -> next free switch port
        b.attach("h1", "s0")
        net = b.build()
    """

    def __init__(self, *, default_radix: int = 8) -> None:
        self._net = Network(default_radix=default_radix)

    # -- nodes ---------------------------------------------------------
    def host(self, name: str, **meta: object) -> "NetworkBuilder":
        self._net.add_host(name, **meta)
        return self

    def hosts(self, *names: str) -> "NetworkBuilder":
        for name in names:
            self._net.add_host(name)
        return self

    def switch(self, name: str, **meta: object) -> "NetworkBuilder":
        self._net.add_switch(name, **meta)
        return self

    def switches(self, *names: str) -> "NetworkBuilder":
        for name in names:
            self._net.add_switch(name)
        return self

    # -- wires ---------------------------------------------------------
    def attach(self, host: str, switch: str) -> Wire:
        """Wire a host's single port to the switch's next free port."""
        if not self._net.is_host(host):
            raise TopologyError(f"{host} is not a host")
        return self._net.connect(host, HOST_PORT, switch, self._next_free(switch))

    def link(self, node_a: str, node_b: str) -> Wire:
        """Wire two distinct nodes together, each on its next free port."""
        return self._net.connect(
            node_a, self._next_free(node_a), node_b, self._next_free(node_b)
        )

    # -- finish ----------------------------------------------------------
    def build(self, *, require_connected: bool = False) -> Network:
        self._net.validate(require_connected=require_connected)
        return self._net

    def peek(self) -> Network:
        """The network under construction, without validation."""
        return self._net

    # -- internals -------------------------------------------------------
    def _next_free(self, node: str) -> int:
        free = self._net.free_ports(node)
        if not free:
            raise TopologyError(f"no free port on {node}")
        return free[0]
