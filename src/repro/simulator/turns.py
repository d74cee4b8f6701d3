"""Turn strings: the routing alphabet of Section 2.2.

A routing address is a string ``a1...ak`` of relative turns; the switch
radix sets the alphabet (``{-7, ..., +7}`` on Myrinet's 8-port crossbars).
Each character is a *turn*: the output port is the input port plus the
turn, *not* reduced modulo the switch degree. Turn 0 sends a message back
out the port it arrived on — ordinary probes never use it mid-route, but
the switch-probe of Section 2.3 uses a single 0 as its bounce: the
loopback string for ``a1...ak`` is ``a1...ak 0 -ak...-a1``.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Turns",
    "reverse_turns",
    "turn_alphabet",
    "validate_turns",
]

#: A routing address: a tuple of turns.
Turns = tuple[int, ...]


def turn_alphabet(radix: int) -> Turns:
    """The nonzero turns on radix-``radix`` switches, ascending:
    ``-(radix-1) ... -1, 1 ... radix-1``."""
    return tuple(t for t in range(1 - radix, radix) if t)


def validate_turns(
    turns: Iterable[int], *, allow_zero: bool = False, limit: int
) -> Turns:
    """Check every turn is in the alphabet; returns a normalized tuple.

    Probe strings proper have ``a_i != 0`` (Section 2.3); the loopback
    bounce is the only legitimate zero, enabled with ``allow_zero``.
    ``limit`` is the alphabet radius, ``radix - 1`` of the fabric's
    widest switch (7 on Myrinet, whose routing flits encode ``{-7..+7}``).
    """
    # Already-canonical input (a tuple of exact ints, the common case on
    # the probe hot path) is checked in one pass and returned as the same
    # object, so callers can memoize validation by identity.
    out = turns if type(turns) is tuple else tuple(int(t) for t in turns)
    for t in out:
        if type(t) is not int:
            return validate_turns(
                tuple(int(t) for t in out), allow_zero=allow_zero, limit=limit
            )
        if not -limit <= t <= limit:
            raise ValueError(f"turn {t} outside alphabet [{-limit}, {limit}]")
        if t == 0 and not allow_zero:
            raise ValueError("turn 0 is not allowed in a probe string")
    return out


def reverse_turns(turns: Iterable[int]) -> Turns:
    """``-ak ... -a1``: the turns that retrace a path back to its source."""
    return tuple(-t for t in reversed(tuple(turns)))
