"""JSON serialization for :class:`~repro.topology.model.Network`.

The on-disk format is intentionally simple and stable so that maps produced
by the mapper can be archived, diffed, and re-loaded for route computation —
the role the distributed route files play in the Berkeley NOW system.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.topology.model import Network

__all__ = ["network_to_dict", "network_from_dict", "save_network", "load_network"]

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
    """Inverse of :func:`network_to_dict`."""
    if data.get("format") != "san-map":
        raise ValueError("not a san-map document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version: {data.get('version')!r}")
    net = Network(default_radix=int(data.get("default_radix", 8)))
    for host in data.get("hosts", []):
        net.add_host(host["name"], **host.get("meta", {}))
    for switch in data.get("switches", []):
        net.add_switch(
            switch["name"], radix=int(switch["radix"]), **switch.get("meta", {})
        )
    net.connect_all(
        (
            wire["a"]["node"],
            int(wire["a"]["port"]),
            wire["b"]["node"],
            int(wire["b"]["port"]),
        )
        for wire in data.get("wires", [])
    )
    return net


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def load_network(path: str | Path) -> Network:
    return network_from_dict(json.loads(Path(path).read_text()))
