"""Timing model tests: hardware constants, cost composition, calibration."""

import pytest

from repro.simulator.timing import MYRINET_TIMING, TimingModel


class TestHardwareConstants:
    def test_paper_section_1_1_values(self):
        """The published hardware numbers must stay verbatim."""
        t = MYRINET_TIMING
        assert t.switch_latency_us == pytest.approx(0.55)  # 550 ns
        assert t.link_bandwidth_bytes_per_us == pytest.approx(160.0)  # 1.28 Gb/s
        assert t.blocked_port_timeout_us == 55_000.0  # 55 ms ROM timer
        assert t.deadlock_break_us == 50_000.0  # 50 ms


class TestCostComposition:
    def test_wire_time_scales_with_hops(self):
        t = TimingModel()
        assert t.wire_time_us(0) == 0.0
        assert t.wire_time_us(4) > t.wire_time_us(2)
        # Pipeline: one transmission + per-hop latency.
        delta = t.wire_time_us(5) - t.wire_time_us(4)
        assert delta == pytest.approx(t.switch_latency_us)

    def test_response_includes_both_directions(self):
        t = TimingModel()
        one_way = t.probe_response_us(4, 0)
        round_trip = t.probe_response_us(4, 4)
        assert round_trip > one_way

    def test_timeout_dominates_response(self):
        """'Probes that do not generate responses are more expensive than
        others' (Section 5.2)."""
        t = MYRINET_TIMING
        assert t.probe_timeout_us() > t.probe_response_us(8, 8)

    def test_custom_model(self):
        t = TimingModel(host_overhead_us=10, reply_overhead_us=5, timeout_us=100)
        assert t.probe_timeout_us() == 110
        assert t.probe_response_us(0, 0) == 15


class TestCalibrationRegime:
    def test_c_subcluster_lands_near_paper(self, mapped_c):
        """The calibration target: subcluster C in the 250-350 ms band
        (paper: 248-265 ms) with our probe counts."""
        assert 200 <= mapped_c.elapsed_ms <= 400
