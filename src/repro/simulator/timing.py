"""Hardware constants and the probe cost model.

Hardware numbers come from Section 1.1 of the paper: 8-port crossbar
switches with 550 ns worst-case latency, 1.28 Gb/s links, 108 bytes of
per-port buffering, a 55 ms blocked-output-port timeout (after which the
switch issues a forward reset), and 50 ms automatic deadlock breaking.

Software costs are *calibration parameters*, not measurements: the paper's
mapper runs at user level on a 167 MHz UltraSPARC talking to the interface
over the SBUS, and its absolute times are not reproducible. The defaults
below are fitted so the Figure 7 configurations land in the paper's
hundreds-of-milliseconds regime with the paper's probe mix; every
experiment reports the ratios, which are timing-model-robust.

All returned times are in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TimingModel", "MYRINET_TIMING"]


@dataclass(frozen=True, slots=True)
class TimingModel:
    """Cost model for probes and worms.

    ``switch_latency_us`` and ``link_bandwidth_bytes_per_us`` are hardware
    constants; ``host_overhead_us`` is the per-probe software cost at the
    mapper (send + receive processing); ``timeout_us`` is how long the
    mapper waits before declaring a probe unanswered — "probes that do not
    generate responses are more expensive than others because the message
    time-out period is longer than the time of an average round-trip"
    (Section 5.2).
    """

    switch_latency_us: float = 0.55
    link_bandwidth_bytes_per_us: float = 160.0  # 1.28 Gb/s
    probe_bytes: int = 64
    host_overhead_us: float = 150.0
    reply_overhead_us: float = 40.0
    timeout_us: float = 320.0
    blocked_port_timeout_us: float = 55_000.0
    deadlock_break_us: float = 50_000.0

    def wire_time_us(self, hops: int) -> float:
        """Pipeline time for a cut-through worm across ``hops`` wires."""
        if hops <= 0:
            return 0.0
        transmission = self.probe_bytes / self.link_bandwidth_bytes_per_us
        return transmission + hops * self.switch_latency_us

    def probe_response_us(self, hops_out: int, hops_back: int) -> float:
        """Cost of a probe that got a response (loopback or host reply)."""
        return (
            self.host_overhead_us
            + self.reply_overhead_us
            + self.wire_time_us(hops_out)
            + self.wire_time_us(hops_back)
        )

    def probe_timeout_us(self) -> float:
        """Cost of a probe that vanished: the mapper waits out the timer.

        A probe that blocked in the network costs the same: the worm waits
        up to the switch ROM timeout before the forward reset destroys it,
        while the mapper waits on its own (longer) software timer — a
        blocked worm costs the mapper its timeout.
        """
        return self.host_overhead_us + self.timeout_us


#: Default model with the paper's hardware constants.
MYRINET_TIMING = TimingModel()
