"""Isomorphism on pendant F regions, and the refusal of host-free components.

A pendant F region (host-free switches behind a switch-bridge) is still in
a host's component: propagation pins the core switch from its hosts and
crosses the bridge, so these pairs are matched — or refuted — by
propagation alone, with no search. Only a component without any host has
nothing to anchor it; the matcher refuses such a pair with a named reason
instead of searching, and the exhaustive oracle shows a witness exists.
"""

from tests.topology.reference_builder import NetworkBuilder
from repro.topology.isomorphism import match_networks
from tests.topology.reference_isomorphism import match_networks_pairwise


def _with_pendant(pendant_ports=(0, 3), tail_port=5):
    """Core (one switch, two hosts) plus a host-free two-switch pendant."""
    b = NetworkBuilder()
    b.switches("core", "f0", "f1")
    b.hosts("h0", "h1")
    b.attach("h0", "core", port=0)
    b.attach("h1", "core", port=1)
    b.link("core", "f0", port_a=6, port_b=pendant_ports[0])
    b.link("f0", "f1", port_a=pendant_ports[1], port_b=tail_port)
    return b.build()


class TestPendants:
    def test_identical_pendants_match(self):
        report = match_networks(_with_pendant(), _with_pendant())
        assert report
        # Propagation reached the pendant's far end through the bridge.
        assert set(report.node_map) >= {"f0", "f1"}

    def test_pendant_port_offsets_tolerated(self):
        a = _with_pendant(pendant_ports=(0, 3), tail_port=5)
        b = _with_pendant(pendant_ports=(2, 5), tail_port=1)
        report = match_networks(a, b)
        assert report, report.reason

    def test_pendant_spacing_mismatch_rejected(self):
        a = _with_pendant(pendant_ports=(0, 3))
        # Spacing between the two f0 ports differs (3 vs 4): no offset fits.
        b = _with_pendant(pendant_ports=(0, 4))
        assert not match_networks(a, b)

    def test_pendant_length_mismatch_rejected(self):
        a = _with_pendant()
        b = NetworkBuilder()
        b.switches("core", "f0", "fX")
        b.hosts("h0", "h1")
        b.attach("h0", "core", port=0)
        b.attach("h1", "core", port=1)
        b.link("core", "f0", port_a=6, port_b=0)
        b.link("core", "fX", port_a=7, port_b=0)  # star, not chain
        assert not match_networks(a, b.build())

    def test_two_identical_pendants_permuted(self):
        """Two interchangeable host-free pendants: each hangs off its own
        core port, so propagation pins the permutation."""

        def build(order):
            b = NetworkBuilder()
            b.switches("core", *order)
            b.hosts("h0", "h1")
            b.attach("h0", "core", port=0)
            b.attach("h1", "core", port=1)
            b.link("core", order[0], port_a=6, port_b=2)
            b.link("core", order[1], port_a=7, port_b=2)
            return b.build()

        assert match_networks(build(("p", "q")), build(("q", "p")))


class TestHostFreeComponent:
    def test_host_free_component_is_refused_without_search(self):
        """Two switches wired only to each other share no component with a
        host. The matcher names them instead of guessing an assignment;
        the exhaustive oracle finds the witness it would have searched
        for."""

        def build():
            b = NetworkBuilder()
            b.switches("core", "x0", "x1")
            b.hosts("h0", "h1")
            b.attach("h0", "core", port=0)
            b.attach("h1", "core", port=1)
            b.link("x0", "x1", port_a=2, port_b=5)
            return b.build()

        report = match_networks(build(), build())
        assert not report
        assert report.reason.startswith("host-free switches ['x0', 'x1']")
        assert match_networks_pairwise(build(), build())
