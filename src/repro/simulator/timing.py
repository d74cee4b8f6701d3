"""Hardware constants and the probe cost model.

Hardware numbers come from Section 1.1 of the paper: 8-port crossbar
switches with 550 ns worst-case latency, 1.28 Gb/s links, 108 bytes of
per-port buffering, a 55 ms blocked-output-port timeout (after which the
switch issues a forward reset), and 50 ms automatic deadlock breaking.

Software costs are *calibration constants*, not measurements: the paper's
mapper runs at user level on a 167 MHz UltraSPARC talking to the interface
over the SBUS, and its absolute times are not reproducible. The values
below are fitted so the Figure 7 configurations land in the paper's
hundreds-of-milliseconds regime with the paper's probe mix; every
experiment reports the ratios, which are timing-model-robust.

The paper models one machine, so this is one set of constants. All times
are in microseconds.
"""

from __future__ import annotations

__all__ = ["BLOCKED_PORT_TIMEOUT_US", "DEADLOCK_BREAK_US", "HOST_OVERHEAD_US",
           "LINK_BANDWIDTH_BYTES_PER_US", "PROBE_BYTES", "PROBE_TIMEOUT_US",
           "REPLY_OVERHEAD_US", "SWITCH_LATENCY_US", "TIMEOUT_US",
           "probe_response_us", "wire_time_us"]

#: Worst-case latency of one crossbar switch.
SWITCH_LATENCY_US = 0.55
LINK_BANDWIDTH_BYTES_PER_US = 160.0  # 1.28 Gb/s
PROBE_BYTES = 64
#: The per-probe software cost at the mapper (send + receive processing).
HOST_OVERHEAD_US = 150.0
REPLY_OVERHEAD_US = 40.0
#: How long the mapper waits before declaring a probe unanswered —
#: "probes that do not generate responses are more expensive than others
#: because the message time-out period is longer than the time of an
#: average round-trip" (Section 5.2).
TIMEOUT_US = 320.0
BLOCKED_PORT_TIMEOUT_US = 55_000.0
DEADLOCK_BREAK_US = 50_000.0


def wire_time_us(hops: int) -> float:
    """Pipeline time for a cut-through worm across ``hops`` wires."""
    if hops <= 0:
        return 0.0
    transmission = PROBE_BYTES / LINK_BANDWIDTH_BYTES_PER_US
    return transmission + hops * SWITCH_LATENCY_US


def probe_response_us(hops_out: int, hops_back: int) -> float:
    """Cost of a probe that got a response (loopback or host reply)."""
    return HOST_OVERHEAD_US + REPLY_OVERHEAD_US + wire_time_us(hops_out) + wire_time_us(hops_back)


#: Cost of a probe that vanished: the mapper waits out the timer. A probe
#: that blocked in the network costs the same: the worm waits up to the
#: switch ROM timeout before the forward reset destroys it, while the
#: mapper waits on its own (longer) software timer — a blocked worm costs
#: the mapper its timeout.
PROBE_TIMEOUT_US = HOST_OVERHEAD_US + TIMEOUT_US
