"""The chaos-scenario DSL: declarative, timed fault schedules.

The correctness theorem (``M / L ≅ N − F``, Section 2.3) is proved for a
quiescent, error-free network; Sections 2.3.1 and 5.6 list what reality adds
on top — lost and corrupted probes, silently dead cables, and networks that
are rewired while the mapper is running. A :class:`Scenario` is a
deterministic script of exactly those disturbances:

- every event is pinned to a **map cycle** and, within the cycle, to a probe
  count (``after_probes``), so replays are exact — no wall-clock anywhere;
- the whole schedule is plain data (ints, strings, floats), serializable to
  JSON and therefore shrinkable event-by-event by :mod:`repro.chaos.shrink`;
- every scenario carries an explicit ``seed`` for its stochastic faults (a
  keyword-only field with no default, so a missing seed is a ``TypeError``
  at construction): same scenario, same seed ⇒ byte-identical campaign
  trace.

The module deliberately has no YAML/JSON dependency of its own: the loader
(:func:`scenario_from_dict`) takes a plain dict, and the CLI handles file
I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

__all__ = [
    "ACTIONS",
    "ChaosEvent",
    "Scenario",
    "ScenarioError",
    "corrupt",
    "cut",
    "drop",
    "heal",
    "kill_host",
    "kill_switch",
    "plug",
    "revive_host",
    "revive_switch",
    "scenario_from_dict",
    "scenario_to_dict",
    "unplug",
]


class ScenarioError(ValueError):
    """A schedule is malformed or refers to targets that do not exist."""


#: action name -> (arity, human-readable signature). A cut cable silently
#: eats every message (Section 5.6), which no probe tells from a missing
#: cable, so ``cut``/``heal`` disconnect / reconnect it; ``unplug``/``plug``
#: remove / run a cable; ``kill_*``/``revive_*`` take down / bring back every
#: cable of a node. These act on the ``Network``: a cable going down or
#: coming up bumps ``Network.topology_epoch``. ``drop``/``corrupt`` ramp the
#: probabilistic error rates of Section 2.3.1 on the ``FaultModel``.
ACTIONS: Mapping[str, tuple[int, str]] = {
    "cut": (2, "(node, port)"),
    "heal": (2, "(node, port)"),
    "kill_switch": (1, "(switch,)"),
    "revive_switch": (1, "(switch,)"),
    "kill_host": (1, "(host,)"),
    "revive_host": (1, "(host,)"),
    "drop": (1, "(prob,)"),
    "corrupt": (1, "(prob,)"),
    "unplug": (2, "(node, port)"),
    "plug": (4, "(node_a, port_a, node_b, port_b)"),
}

_PROB_ACTIONS = frozenset({"drop", "corrupt"})


@dataclass(frozen=True, slots=True)
class ChaosEvent:
    """One scheduled disturbance.

    ``cycle`` is the map cycle the event lands in (0-based); ``after_probes``
    is how many probes of that cycle must have been sent before it fires
    (0 = at the cycle boundary, before the first probe). ``args`` holds the
    action-specific operands as JSON-able scalars.
    """

    cycle: int
    action: str
    args: tuple
    after_probes: int = 0

    def __post_init__(self) -> None:
        spec = ACTIONS.get(self.action)
        if spec is None:
            raise ScenarioError(
                f"unknown action {self.action!r}; known: {', '.join(sorted(ACTIONS))}"
            )
        arity, signature = spec
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != arity:
            raise ScenarioError(
                f"{self.action} takes {arity} args {signature}, got {self.args!r}"
            )
        if self.cycle < 0:
            raise ScenarioError(f"event cycle must be >= 0, got {self.cycle}")
        if self.after_probes < 0:
            raise ScenarioError(
                f"after_probes must be >= 0, got {self.after_probes}"
            )
        if self.action in _PROB_ACTIONS:
            prob = self.args[0]
            if not isinstance(prob, (int, float)) or not 0.0 <= prob <= 1.0:
                raise ScenarioError(
                    f"{self.action} probability must lie in [0, 1], got {prob!r}"
                )

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "cycle": self.cycle,
            "action": self.action,
            "args": list(self.args),
        }
        if self.after_probes:
            doc["after_probes"] = self.after_probes
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosEvent":
        try:
            return cls(
                cycle=int(data["cycle"]),
                action=str(data["action"]),
                args=tuple(data.get("args", ())),
                after_probes=int(data.get("after_probes", 0)),
            )
        except KeyError as exc:
            raise ScenarioError(f"event dict missing key {exc.args[0]!r}") from None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        at = f"@{self.cycle}" + (f"+{self.after_probes}p" if self.after_probes else "")
        return f"{self.action}{self.args}{at}"


@dataclass(frozen=True)
class Scenario:
    """A named, seeded schedule of :class:`ChaosEvent` objects.

    ``cycles`` is the number of *scheduled* map cycles (the campaign runner
    appends fault-free settle cycles of its own); 0 means "derive it": one
    past the last event's cycle, and at least 1. Events are stored sorted by
    ``(cycle, after_probes)`` with the declaration order breaking ties, so
    two scenarios with the same events compare equal regardless of the order
    they were written in.
    """

    name: str
    events: tuple[ChaosEvent, ...] = ()
    cycles: int = 0
    seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.cycle, e.after_probes))
        )
        object.__setattr__(self, "events", ordered)
        needed = max((e.cycle for e in ordered), default=-1) + 1
        if self.cycles == 0:
            object.__setattr__(self, "cycles", max(needed, 1))
        elif self.cycles < max(needed, 1):
            raise ScenarioError(
                f"scenario {self.name!r} declares {self.cycles} cycles but "
                f"schedules an event in cycle {needed - 1}"
            )

    def events_for(self, cycle: int) -> tuple[ChaosEvent, ...]:
        """The events of one cycle, in firing order."""
        return tuple(e for e in self.events if e.cycle == cycle)

    def with_events(self, events: Iterable[ChaosEvent]) -> "Scenario":
        """A copy with a new event list (cycles re-derived) — shrinker API."""
        return replace(self, events=tuple(events), cycles=0)


# ---------------------------------------------------------------------------
# DSL sugar: one constructor per action
# ---------------------------------------------------------------------------
def cut(cycle: int, node: str, port: int, *, after_probes: int = 0) -> ChaosEvent:
    """The cable at ``(node, port)`` starts silently eating every message."""
    return ChaosEvent(cycle, "cut", (node, port), after_probes)


def heal(cycle: int, node: str, port: int) -> ChaosEvent:
    """The previously cut cable at ``(node, port)`` works again."""
    return ChaosEvent(cycle, "heal", (node, port))


def kill_switch(cycle: int, switch: str, *, after_probes: int = 0) -> ChaosEvent:
    """Every cable of ``switch`` goes dead (crashed crossbar)."""
    return ChaosEvent(cycle, "kill_switch", (switch,), after_probes)


def revive_switch(cycle: int, switch: str) -> ChaosEvent:
    return ChaosEvent(cycle, "revive_switch", (switch,))


def kill_host(cycle: int, host: str) -> ChaosEvent:
    """The host's interface goes dark (it stops answering and forwarding)."""
    return ChaosEvent(cycle, "kill_host", (host,))


def revive_host(cycle: int, host: str) -> ChaosEvent:
    return ChaosEvent(cycle, "revive_host", (host,))


def drop(cycle: int, prob: float, *, after_probes: int = 0) -> ChaosEvent:
    """Set the silent-loss probability (Section 2.3.1 "other errors")."""
    return ChaosEvent(cycle, "drop", (prob,), after_probes)


def corrupt(cycle: int, prob: float) -> ChaosEvent:
    """Set the CRC-corruption probability."""
    return ChaosEvent(cycle, "corrupt", (prob,))


def unplug(cycle: int, node: str, port: int) -> ChaosEvent:
    """Physically remove the cable at ``(node, port)`` (topology mutation)."""
    return ChaosEvent(cycle, "unplug", (node, port))


def plug(cycle: int, node_a: str, port_a: int, node_b: str, port_b: int) -> ChaosEvent:
    """Run a new cable between two free ports (topology mutation)."""
    return ChaosEvent(cycle, "plug", (node_a, port_a, node_b, port_b))


# ---------------------------------------------------------------------------
# dict (de)serialization — the JSON-free loader
# ---------------------------------------------------------------------------
def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "cycles": scenario.cycles,
        "events": [e.to_dict() for e in scenario.events],
    }


def scenario_from_dict(data: Mapping[str, Any]) -> Scenario:
    """Build a scenario from plain data (the inverse of ``scenario_to_dict``).

    ``seed`` is mandatory: an unseeded schedule is not replayable, and the
    whole point of a chaos campaign is that every failure it finds can be
    re-run bit-for-bit.
    """
    if "seed" not in data:
        raise ScenarioError(f"scenario dict {data.get('name', '?')!r} has no seed")
    return Scenario(
        name=str(data.get("name", "unnamed")),
        events=tuple(ChaosEvent.from_dict(e) for e in data.get("events", ())),
        cycles=int(data.get("cycles", 0)),
        seed=int(data["seed"]),
    )
