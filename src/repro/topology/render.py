"""Rendering of network maps (Figures 4 and 5 of the paper).

The paper renders automatically generated maps as layered drawings: hosts on
top, then levels of switches with per-port fan-out. We provide two renderers:

- :func:`to_dot` — Graphviz source with port-labeled record nodes, the
  closest analogue of the paper's figures (render externally with ``dot``);
- :func:`to_ascii` — a plain-text layered summary suitable for terminals and
  test goldens: one line per switch listing each port's connection.

Both renderers order nodes deterministically so output is diffable.
"""

from __future__ import annotations

from io import StringIO

from repro.topology.model import Network

__all__ = ["to_ascii", "to_dot"]


def to_ascii(net: Network, *, title: str | None = None) -> str:
    """Layered text rendering: hosts, then each switch with its port table."""
    out = StringIO()
    if title:
        out.write(f"== {title} ==\n")
    # The component counts in the Figure 3 vocabulary.
    out.write(
        f"{net.n_hosts} interfaces, {net.n_switches} switches, "
        f"{net.n_wires} links\n"
    )
    hosts = sorted(net.hosts)
    out.write("hosts: " + " ".join(hosts) + "\n")
    for switch in sorted(net.switches):
        cells = []
        for port in range(net.radix(switch)):
            far = net.neighbor_at(switch, port)
            cells.append(f"{port}:{'-' if far is None else f'{far.node}.{far.port}'}")
        out.write(f"{switch}  [" + " ".join(cells) + "]\n")
    return out.getvalue()


def to_dot(net: Network, *, title: str = "san-map") -> str:
    """Graphviz source with record-style switches exposing port sockets."""
    out = StringIO()
    out.write(f'graph "{title}" {{\n')
    out.write("  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
    for host in sorted(net.hosts):
        out.write(f'  "{host}" [shape=ellipse];\n')
    for switch in sorted(net.switches):
        ports = "|".join(f"<p{p}> {p}" for p in range(net.radix(switch)))
        out.write(f'  "{switch}" [shape=record, label="{{{switch}|{{{ports}}}}}"];\n')
    for wire in sorted(net.wires, key=lambda w: (w.a, w.b)):
        ends = []
        for end in (wire.a, wire.b):
            if net.is_switch(end.node):
                ends.append(f'"{end.node}":p{end.port}')
            else:
                ends.append(f'"{end.node}"')
        out.write(f"  {ends[0]} -- {ends[1]};\n")
    out.write("}\n")
    return out.getvalue()
