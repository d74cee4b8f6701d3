"""JSON serialization for :class:`~repro.topology.model.Network`.

The on-disk format is intentionally simple and stable so that maps produced
by the mapper can be archived, diffed, and re-loaded for route computation —
the role the distributed route files play in the Berkeley NOW system.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from repro.topology.model import Network

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
    "wire_from_dict",
]

FORMAT_VERSION = 1


def network_to_dict(net: Network) -> dict[str, Any]:
    """Serialize to a JSON-compatible dict (stable key order for diffing)."""
    return {
        "format": "san-map",
        "version": FORMAT_VERSION,
        "default_radix": net.default_radix,
        "hosts": [
            {"name": h, **({"meta": dict(net.meta(h))} if net.meta(h) else {})}
            for h in sorted(net.hosts)
        ],
        "switches": [
            {
                "name": s,
                "radix": net.radix(s),
                **({"meta": dict(net.meta(s))} if net.meta(s) else {}),
            }
            for s in sorted(net.switches)
        ],
        "wires": sorted(
            [
                {
                    "a": {"node": w.a.node, "port": w.a.port},
                    "b": {"node": w.b.node, "port": w.b.port},
                }
                for w in net.wires
            ],
            key=lambda d: (d["a"]["node"], d["a"]["port"], d["b"]["node"], d["b"]["port"]),
        ),
    }


def network_from_dict(data: dict[str, Any]) -> Network:
    """Inverse of :func:`network_to_dict`.

    Node names are interned, so every network decoded in one process
    shares one string object per name: a result built from several
    decoded documents still pickles each name once.
    """
    if not isinstance(data, dict) or data.get("format") != "san-map":
        raise ValueError("not a san-map document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version: {data.get('version')!r}")
    net = Network(default_radix=int(data.get("default_radix", 8)))
    for host in data.get("hosts", []):
        net.add_host(sys.intern(host["name"]), **host.get("meta", {}))
    for switch in data.get("switches", []):
        net.add_switch(
            sys.intern(switch["name"]),
            radix=int(switch["radix"]),
            **switch.get("meta", {}),
        )
    net.connect_all(map(wire_from_dict, data.get("wires", [])))
    return net


def wire_from_dict(wire: dict[str, Any]) -> tuple[str, int, str, int]:
    """One wire of a :func:`network_to_dict` document, as
    :meth:`Network.connect_all` takes it, node names interned."""
    a, b = wire["a"], wire["b"]
    return (sys.intern(a["node"]), int(a["port"]), sys.intern(b["node"]), int(b["port"]))


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def load_network(path: str | Path) -> Network:
    return network_from_dict(json.loads(Path(path).read_text()))
