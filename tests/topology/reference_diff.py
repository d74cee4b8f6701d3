"""The per-host map diff: every host rescans its own switch.

This is how ``repro.topology.diff`` derived attachment signatures and the
degree profile before it read both off one pass over the wires: one scan
of the switch's ports per host (the host itself left out), one port scan
per switch for its degree, twice per diff. Slow where many hosts share a
switch and obviously per-definition; kept only as the differential oracle
of ``test_diff_reference.py``. The isomorphism short-circuit is
production's own (one definition of "identical").
"""

from __future__ import annotations

from collections import Counter

from repro.topology.diff import MapDiff
from repro.topology.isomorphism import match_networks
from repro.topology.model import Network
from tests.topology.reference_queries import degree, used_ports


def host_signature(net: Network, host: str) -> tuple:
    """Offset-invariant description of where a host is attached."""
    attach = net.host_attachment(host)
    if attach is None:
        return ("detached",)
    switch = attach.node
    peers = tuple(
        sorted(
            far.node
            for port in used_ports(net, switch)
            if (far := net.neighbor_at(switch, port)) is not None
            and net.is_host(far.node)
            and far.node != host
        )
    )
    return (degree(net, switch), peers)


def degree_profile(net: Network) -> Counter:
    return Counter(degree(net, s) for s in net.switches)


def reference_diff_networks(old: Network, new: Network) -> MapDiff:
    if match_networks(old, new):
        return MapDiff(identical=True)
    old_hosts, new_hosts = set(old.hosts), set(new.hosts)
    return MapDiff(
        identical=False,
        hosts_added=sorted(new_hosts - old_hosts),
        hosts_removed=sorted(old_hosts - new_hosts),
        hosts_moved=sorted(
            h
            for h in old_hosts & new_hosts
            if host_signature(old, h) != host_signature(new, h)
        ),
        switch_count_delta=new.n_switches - old.n_switches,
        wire_count_delta=new.n_wires - old.n_wires,
        degree_profile_changed=degree_profile(old) != degree_profile(new),
    )
