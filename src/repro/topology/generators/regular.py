"""Classic regular topologies (rings, chains, meshes, tori, hypercubes, stars).

The introduction contrasts SANs with "the static, well-defined, and
well-understood graphs such as hypercubes, meshes, etc." — and Section 6
notes that real systems start from a well-known interconnect and accrete
imperfections. These generators provide those reference shapes, each with a
configurable number of hosts hung off every switch, for correctness and
scaling studies.
"""

from __future__ import annotations

from repro.topology.builder import NetworkBuilder
from repro.topology.model import Network, TopologyError

__all__ = [
    "build_chain",
    "build_hypercube",
    "build_mesh",
    "build_ring",
    "build_star",
    "build_torus",
]

#: The switch radix of every regular fabric (the paper's 8-port crossbars).
RADIX = 8


def _attach_hosts(
    b: NetworkBuilder, switches: list[str], hosts_per_switch: int, prefix: str
) -> None:
    no = 0
    for sw in switches:
        for _ in range(hosts_per_switch):
            name = f"{prefix}-n{no:03d}"
            b.host(name)
            b.attach(name, sw)
            no += 1


def build_chain(n_switches: int, *, hosts_per_switch: int = 1) -> Network:
    """A path of switches, hosts on every switch."""
    if n_switches < 1:
        raise TopologyError("need at least one switch")
    b = NetworkBuilder(default_radix=RADIX)
    switches = [f"chain-s{i}" for i in range(n_switches)]
    for s in switches:
        b.switch(s)
    for a, c in zip(switches, switches[1:]):
        b.link(a, c)
    _attach_hosts(b, switches, hosts_per_switch, "chain")
    return b.build(require_connected=True)


def build_ring(n_switches: int, *, hosts_per_switch: int = 1) -> Network:
    """A cycle of switches, hosts on every switch."""
    if n_switches < 3:
        raise TopologyError("a ring needs at least three switches")
    b = NetworkBuilder(default_radix=RADIX)
    switches = [f"ring-s{i}" for i in range(n_switches)]
    for s in switches:
        b.switch(s)
    for i in range(n_switches):
        b.link(switches[i], switches[(i + 1) % n_switches])
    _attach_hosts(b, switches, hosts_per_switch, "ring")
    return b.build(require_connected=True)


def build_star(
    n_leaf_switches: int,
    *,
    hosts_per_switch: int = 1,
) -> Network:
    """Leaf switches around one hub switch."""
    if n_leaf_switches < 1 or n_leaf_switches > RADIX:
        raise TopologyError("hub radix limits the number of leaf switches")
    b = NetworkBuilder(default_radix=RADIX)
    hub = "star-hub"
    b.switch(hub)
    leaves = [f"star-s{i}" for i in range(n_leaf_switches)]
    for s in leaves:
        b.switch(s)
        b.link(s, hub)
    _attach_hosts(b, leaves, hosts_per_switch, "star")
    return b.build(require_connected=True)


def build_mesh(
    rows: int,
    cols: int,
    *,
    hosts_per_switch: int = 1,
) -> Network:
    """A rows x cols 2-D mesh of switches."""
    if rows < 1 or cols < 1:
        raise TopologyError("mesh dimensions must be positive")
    b = NetworkBuilder(default_radix=RADIX)
    grid = [[f"mesh-s{r}x{c}" for c in range(cols)] for r in range(rows)]
    for row in grid:
        for s in row:
            b.switch(s)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                b.link(grid[r][c], grid[r][c + 1])
            if r + 1 < rows:
                b.link(grid[r][c], grid[r + 1][c])
    _attach_hosts(b, [s for row in grid for s in row], hosts_per_switch, "mesh")
    return b.build(require_connected=True)


def build_torus(
    rows: int,
    cols: int,
    *,
    hosts_per_switch: int = 1,
) -> Network:
    """A rows x cols 2-D torus (wrap-around mesh) of switches.

    Dimensions below 3 would create parallel wrap cables; they are allowed
    (the model is a multigraph) but rows/cols of 1 are rejected.
    """
    if rows < 2 or cols < 2:
        raise TopologyError("torus dimensions must be at least 2")
    b = NetworkBuilder(default_radix=RADIX)
    grid = [[f"torus-s{r}x{c}" for c in range(cols)] for r in range(rows)]
    for row in grid:
        for s in row:
            b.switch(s)
    for r in range(rows):
        for c in range(cols):
            b.link(grid[r][c], grid[r][(c + 1) % cols])
            b.link(grid[r][c], grid[(r + 1) % rows][c])
    _attach_hosts(b, [s for row in grid for s in row], hosts_per_switch, "torus")
    return b.build(require_connected=True)


def build_hypercube(dim: int, *, hosts_per_switch: int = 1) -> Network:
    """A ``dim``-dimensional hypercube of switches (2**dim switches).

    ``dim + hosts_per_switch`` must fit in the radix.
    """
    if dim < 1:
        raise TopologyError("hypercube dimension must be positive")
    if dim + hosts_per_switch > RADIX:
        raise TopologyError(
            f"dim {dim} + {hosts_per_switch} host ports exceeds radix {RADIX}"
        )
    b = NetworkBuilder(default_radix=RADIX)
    n = 1 << dim
    switches = [f"cube-s{i:0{dim}b}" for i in range(n)]
    for s in switches:
        b.switch(s)
    for i in range(n):
        for bit in range(dim):
            j = i ^ (1 << bit)
            if j > i:
                b.link(switches[i], switches[j])
    _attach_hosts(b, switches, hosts_per_switch, "cube")
    return b.build(require_connected=True)
