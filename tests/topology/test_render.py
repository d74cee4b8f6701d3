"""Rendering smoke tests (Figures 4/5 output paths)."""

from repro.topology.render import to_ascii, to_dot


class TestAscii:
    def test_summary_line(self, two_switch_net):
        first = to_ascii(two_switch_net).splitlines()[0]
        assert first == "4 interfaces, 2 switches, 6 links"

    def test_ascii_contains_every_node(self, two_switch_net):
        text = to_ascii(two_switch_net, title="test")
        for node in two_switch_net.nodes:
            assert node in text
        assert "== test ==" in text

    def test_ascii_port_cells(self, tiny_net):
        text = to_ascii(tiny_net)
        assert "0:h0.0" in text
        assert "7:h2.0" in text
        assert "1:-" in text  # free port

    def test_deterministic(self, two_switch_net):
        assert to_ascii(two_switch_net) == to_ascii(two_switch_net.copy())


class TestDot:
    def test_dot_is_well_formed(self, two_switch_net):
        dot = to_dot(two_switch_net)
        assert dot.startswith('graph "san-map"')
        assert dot.rstrip().endswith("}")
        assert dot.count("--") == two_switch_net.n_wires

    def test_dot_switch_records_have_ports(self, tiny_net):
        dot = to_dot(tiny_net)
        assert "<p0> 0" in dot and "<p7> 7" in dot

    def test_dot_host_shape(self, tiny_net):
        assert '"h0" [shape=ellipse]' in to_dot(tiny_net)
