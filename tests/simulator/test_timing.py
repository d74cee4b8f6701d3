"""Timing model tests: hardware constants, cost composition, calibration."""

import pytest

from repro.simulator import timing
from repro.simulator.timing import (
    PROBE_TIMEOUT_US,
    probe_response_us,
    wire_time_us,
)


class TestHardwareConstants:
    def test_paper_section_1_1_values(self):
        """The published hardware numbers must stay verbatim."""
        assert timing.SWITCH_LATENCY_US == pytest.approx(0.55)  # 550 ns
        assert timing.LINK_BANDWIDTH_BYTES_PER_US == pytest.approx(160.0)  # 1.28 Gb/s
        assert timing.BLOCKED_PORT_TIMEOUT_US == 55_000.0  # 55 ms ROM timer
        assert timing.DEADLOCK_BREAK_US == 50_000.0  # 50 ms


class TestCostComposition:
    def test_wire_time_scales_with_hops(self):
        assert wire_time_us(0) == 0.0
        assert wire_time_us(4) > wire_time_us(2)
        # Pipeline: one transmission + per-hop latency.
        delta = wire_time_us(5) - wire_time_us(4)
        assert delta == pytest.approx(timing.SWITCH_LATENCY_US)

    def test_response_includes_both_directions(self):
        one_way = probe_response_us(4, 0)
        round_trip = probe_response_us(4, 4)
        assert round_trip > one_way

    def test_timeout_dominates_response(self):
        """'Probes that do not generate responses are more expensive than
        others' (Section 5.2)."""
        assert PROBE_TIMEOUT_US > probe_response_us(8, 8)

    def test_custom_model(self, monkeypatch):
        """The costs compose from the module's constants, read at call time."""
        assert PROBE_TIMEOUT_US == timing.HOST_OVERHEAD_US + timing.TIMEOUT_US
        monkeypatch.setattr(timing, "HOST_OVERHEAD_US", 10)
        monkeypatch.setattr(timing, "REPLY_OVERHEAD_US", 5)
        assert probe_response_us(0, 0) == 15


class TestCalibrationRegime:
    def test_c_subcluster_lands_near_paper(self, mapped_c):
        """The calibration target: subcluster C in the 250-350 ms band
        (paper: 248-265 ms) with our probe counts."""
        assert 200 <= mapped_c.elapsed_ms <= 400
