"""The network builder with the options tests use to wire exact fabrics.

The product builder (:class:`repro.topology.builder.NetworkBuilder`)
gives every cable the next free port on each side and always validates,
because that is all the generators ask of it. Tests also pin explicit
ports, give one switch its own radix, cable a switch to itself and build
invalid networks on purpose; this subclass adds those options back.
"""

from __future__ import annotations

from repro.topology import builder
from repro.topology.model import HOST_PORT, Network, TopologyError, Wire


def _free_port(net: Network, node: str, exclude: int | None = None) -> int:
    for port in net.free_ports(node):
        if port != exclude:
            return port
    raise TopologyError(f"no free port on {node}")


class NetworkBuilder(builder.NetworkBuilder):
    def switch(self, name: str, *, radix: int | None = None, **meta: object) -> "NetworkBuilder":
        self.peek().add_switch(name, radix=radix, **meta)
        return self

    def attach(self, host: str, switch: str, *, port: int | None = None) -> Wire:
        """Wire a host to ``port`` of ``switch`` (the next free one by default)."""
        if port is None:
            return super().attach(host, switch)
        if not self.peek().is_host(host):
            raise TopologyError(f"{host} is not a host")
        return self.peek().connect(host, HOST_PORT, switch, port)

    def link(
        self, node_a: str, node_b: str, *, port_a: int | None = None, port_b: int | None = None
    ) -> Wire:
        """Wire two nodes; ``node_a`` may equal ``node_b`` for a loopback cable."""
        net = self.peek()
        pa = _free_port(net, node_a) if port_a is None else port_a
        if port_b is None:
            # For a loopback on the same switch, skip the port just chosen.
            pb = _free_port(net, node_b, exclude=pa if node_a == node_b else None)
        else:
            pb = port_b
        return net.connect(node_a, pa, node_b, pb)

    def build(self, *, validate: bool = True, require_connected: bool = False) -> Network:
        return super().build(require_connected=require_connected) if validate else self.peek()
