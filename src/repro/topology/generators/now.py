"""The Berkeley NOW subclusters (Figures 3, 4, 5 of the paper).

Figure 3 fixes the component counts of the three subclusters:

======  ==========  =========  ======
system  interfaces  switches   links
======  ==========  =========  ======
A       34          13         64
B       30          14         65
C       36          13         64
======  ==========  =========  ======

Figure 4 shows the structural style of subcluster C: an *incomplete
fat-tree* with three switch levels — leaf switches holding five hosts each,
a middle level, and two roots — a utility host attached directly to a root,
and documented irregularities ("the middle switch in the first level only
has two links, instead of three, to other switches; the third was faulty and
removed, but never replaced", plus unused ports on level-2/3 switches).

The generators below reconstruct subclusters with exactly those counts and
that style. Exact cable-for-cable wiring of the 1997 machine room is not
recoverable from the paper; DESIGN.md records this substitution. What the
experiments depend on — depth, replicate-producing multipaths, component
counts, irregularity — is reproduced.

Composition (``C+A``, ``C+A+B``): the abstract's full system has 100 nodes,
40 switches and **193 = 64+65+64 links**, i.e. composition re-purposes
existing cables rather than adding new ones. :func:`combine_subclusters`
therefore removes one redundant root-level cable per joined subcluster and
re-uses the freed ports for inter-subcluster root-to-root cables, keeping
the total link count equal to the sum of the parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.builder import NetworkBuilder
from repro.topology.model import Network, TopologyError

__all__ = [
    "NOW_EXPECTED_COMPONENTS",
    "SubclusterSpec",
    "build_full_now",
    "build_subcluster",
    "combine_subclusters",
]

#: Figure 3 of the paper: (interfaces, switches, links) per subcluster.
NOW_EXPECTED_COMPONENTS: dict[str, tuple[int, int, int]] = {
    "A": (34, 13, 64),
    "B": (30, 14, 65),
    "C": (36, 13, 64),
}


@dataclass(frozen=True, slots=True)
class SubclusterSpec:
    """Structural parameters of one NOW subcluster.

    ``hosts_per_leaf`` lists the hosts on each leaf switch;
    ``leaf_uplinks[i]`` lists, for leaf ``i``, the level-2 switches it
    uplinks to; ``l2_root_links[i]`` gives the number of cables from level-2
    switch ``i`` to each root (cycled over roots); ``lateral_l2`` lists extra
    level-2 to level-2 cables.
    """

    name: str
    hosts_per_leaf: tuple[int, ...]
    n_l2: int
    n_roots: int
    leaf_uplinks: tuple[tuple[int, ...], ...]
    l2_root_links: tuple[int, ...]
    lateral_l2: tuple[tuple[int, int], ...] = ()
    #: index (into the generated cable list) of the redundant root-level
    #: cable that composition may re-purpose; see combine_subclusters.
    redundant_cable: tuple[str, str] | None = None


def _uplinks_skipping_middle(n_leaves: int, n_l2: int, middle_two: bool):
    """Each leaf uplinks to three consecutive level-2 switches; the middle
    leaf gets only two when ``middle_two`` (the Figure 4 irregularity)."""
    links = []
    for i in range(n_leaves):
        targets = [(i + j) % n_l2 for j in range(3)]
        if middle_two and i == n_leaves // 2:
            targets = targets[:2]
        links.append(tuple(targets))
    return tuple(links)


def _spec(name: str) -> SubclusterSpec:
    if name == "C":
        # 7 leaves x 5 hosts = 35 + utility = 36 interfaces; 7+4+2 = 13
        # switches; 36 host links + 20 leaf uplinks (one missing: the
        # irregularity) + 8 L2-root = 64 links.
        return SubclusterSpec(
            name="C",
            hosts_per_leaf=(5, 5, 5, 5, 5, 5, 5),
            n_l2=4,
            n_roots=2,
            leaf_uplinks=_uplinks_skipping_middle(7, 4, middle_two=True),
            l2_root_links=(2, 2, 2, 2),
            redundant_cable=("l2-0", "root-0"),
        )
    if name == "A":
        # 33 hosts + utility = 34 interfaces; 7+4+2 = 13 switches;
        # 34 host links + 21 leaf uplinks + 9 L2-root = 64 links.
        return SubclusterSpec(
            name="A",
            hosts_per_leaf=(5, 5, 5, 5, 5, 4, 4),
            n_l2=4,
            n_roots=2,
            leaf_uplinks=_uplinks_skipping_middle(7, 4, middle_two=False),
            l2_root_links=(3, 2, 2, 2),
            redundant_cable=("l2-0", "root-0"),
        )
    if name == "B":
        # 29 hosts + utility = 30 interfaces; 7+5+2 = 14 switches;
        # 30 host links + 21 leaf uplinks + 10 L2-root + 4 lateral = 65.
        return SubclusterSpec(
            name="B",
            hosts_per_leaf=(5, 5, 4, 4, 4, 4, 3),
            n_l2=5,
            n_roots=2,
            leaf_uplinks=_uplinks_skipping_middle(7, 5, middle_two=False),
            l2_root_links=(2, 2, 2, 2, 2),
            lateral_l2=((0, 4), (0, 3), (3, 4), (4, 1)),
            redundant_cable=("l2-4", "l2-1"),
        )
    raise ValueError(f"unknown subcluster: {name!r} (expected 'A', 'B' or 'C')")


def build_subcluster(name: str) -> Network:
    """Build subcluster ``"A"``, ``"B"`` or ``"C"``.

    Node naming: hosts ``{name}-n<NN>``, the utility host ``{name}-svc``
    (metadata ``utility=True``), switches ``{name}-leaf-<i>``, ``{name}-l2-<i>``
    and ``{name}-root-<i>``.
    """
    spec = _spec(name)
    b = NetworkBuilder()
    p = spec.name

    leaves = [f"{p}-leaf-{i}" for i in range(len(spec.hosts_per_leaf))]
    l2s = [f"{p}-l2-{i}" for i in range(spec.n_l2)]
    roots = [f"{p}-root-{i}" for i in range(spec.n_roots)]
    for s in leaves + l2s + roots:
        b.switch(s, level=("leaf" if s in leaves else "l2" if s in l2s else "root"))

    host_no = 0
    for leaf, count in zip(leaves, spec.hosts_per_leaf):
        for _ in range(count):
            host = f"{p}-n{host_no:02d}"
            b.host(host)
            b.attach(host, leaf)
            host_no += 1

    for leaf, targets in zip(leaves, spec.leaf_uplinks):
        for t in targets:
            b.link(leaf, l2s[t])

    root_cursor = 0
    for i, n_links in enumerate(spec.l2_root_links):
        for _ in range(n_links):
            b.link(l2s[i], roots[root_cursor % spec.n_roots])
            root_cursor += 1

    for i, j in spec.lateral_l2:
        b.link(l2s[i], l2s[j])

    # The utility machine attached directly to a root (Figure 4, bottom).
    b.host(f"{p}-svc", utility=True)
    b.attach(f"{p}-svc", roots[0])

    net = b.build(require_connected=True)
    _check_counts(net, NOW_EXPECTED_COMPONENTS[name], name)
    return net


def _check_counts(net: Network, expected: tuple[int, int, int], label: str) -> None:
    got = (net.n_hosts, net.n_switches, net.n_wires)
    if got != expected:
        raise TopologyError(
            f"subcluster {label}: built {got} (interfaces, switches, links), "
            f"paper says {expected}"
        )


def combine_subclusters(*names: str) -> Network:
    """Compose subclusters into one network (e.g. ``combine_subclusters('C','A')``).

    For each subcluster after the first, one redundant root-level cable
    inside it and one inside the running composition are removed, and two
    inter-subcluster root-to-root cables are installed in their place, so
    the total link count equals the sum of the Figure 3 counts (matching
    the abstract's 193 links for C+A+B).
    """
    if not names:
        raise ValueError("need at least one subcluster name")
    nets = [build_subcluster(n) for n in names]
    combined = Network(default_radix=nets[0].default_radix)
    for net in nets:
        for host in net.hosts:
            combined.add_host(host, **net.meta(host))
        for switch in net.switches:
            combined.add_switch(switch, radix=net.radix(switch), **net.meta(switch))
        for wire in net.wires:
            combined.connect(*wire.a, *wire.b)

    for prev, curr in zip(names, names[1:]):
        # Remove one redundant cable in each of the two subclusters being
        # joined, freeing two ports on each side for the cross cables.
        freed: list[tuple[str, int]] = []
        for sub in (prev, curr):
            spec = _spec(sub)
            assert spec.redundant_cable is not None
            u = f"{sub}-{spec.redundant_cable[0]}"
            v = f"{sub}-{spec.redundant_cable[1]}"
            wire = _find_wire(combined, u, v)
            combined.disconnect(wire)
            freed += wire.a, wire.b
        # Two cross cables between the roots of the joined subclusters.
        for i in range(2):
            a_root = f"{prev}-root-{i}"
            b_root = f"{curr}-root-{i}"
            pa = _free_port(combined, a_root)
            pb = _free_port(combined, b_root)
            combined.connect(a_root, pa, b_root, pb)
        # Re-use the remaining freed capacity for one redundancy cable each
        # way so the link total is conserved: removed 2, added 2 so far.
        # (freed ports beyond the cross cables stay spare, like the paper's
        # unused level-2/3 ports.)
        del freed

    combined.validate(require_connected=True)
    return combined


def build_full_now() -> Network:
    """The 100-node, 40-switch, 193-link NOW system of Figure 5 (C+A+B)."""
    net = combine_subclusters("C", "A", "B")
    got = (net.n_hosts, net.n_switches, net.n_wires)
    if got != (100, 40, 193):
        raise TopologyError(
            f"full NOW system: built {got}, abstract says (100, 40, 193)"
        )
    return net


def _find_wire(net: Network, u: str, v: str):
    for wire in net.wires_of(u):
        if {wire.a.node, wire.b.node} == {u, v}:
            return wire
    raise TopologyError(f"no wire between {u} and {v}")


def _free_port(net: Network, node: str) -> int:
    ports = net.free_ports(node)
    if not ports:
        raise TopologyError(f"no free port on {node}")
    return ports[0]
