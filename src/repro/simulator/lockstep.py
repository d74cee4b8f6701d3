"""Deterministic simulated-time execution of concurrent actors.

The mapping algorithms are written synchronously (probe, look at the
answer, decide) — the honest way to run *several* of them against one
fabric is to give each its own thread and interleave them under a simulated
clock. :class:`LockstepScheduler` does exactly that:

- exactly one actor thread runs at any instant (a baton passes between the
  scheduler and the running actor), so there are no data races by
  construction;
- an actor calling :meth:`LockstepScheduler.wait` is suspended and resumed
  when the simulated clock reaches its wake time;
- ties break on (wake time, actor spawn order, sequence), making runs
  byte-for-byte reproducible.

This is the execution substrate for
:mod:`repro.core.concurrent_mapping` — genuinely concurrent mappers (any
registered algorithm) whose probes contend on a shared
:class:`~repro.simulator.occupancy.ChannelOccupancy`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["ActorBody", "ActorError", "LockstepScheduler"]

#: An actor is a callable run in its own thread with the scheduler as its
#: only handle on (simulated) time.
ActorBody = Callable[["LockstepScheduler"], None]


class ActorError(RuntimeError):
    """An actor thread raised; re-raised in the scheduler's thread."""


@dataclass
class _Actor:
    name: str
    index: int
    thread: threading.Thread | None = None
    resume: threading.Event = field(default_factory=threading.Event)
    finished: bool = False
    error: BaseException | None = None


class LockstepScheduler:
    """Run actor callables under one deterministic simulated clock."""

    def __init__(self) -> None:
        self._actors: list[_Actor] = []
        self._heap: list[tuple[float, int, int, _Actor]] = []
        self._seq = itertools.count()
        self._baton = threading.Event()  # scheduler's turn
        self._now = 0.0
        self._running: _Actor | None = None
        self._started = False

    # -- construction ----------------------------------------------------
    def spawn(self, name: str, fn: ActorBody, *, start_at: float = 0.0) -> None:
        """Register an actor; ``fn(scheduler)`` runs in its own thread."""
        if self._started:
            raise RuntimeError("cannot spawn after run() started")
        actor = _Actor(name=name, index=len(self._actors))

        def body() -> None:
            actor.resume.wait()
            actor.resume.clear()
            try:
                fn(self)
            except BaseException as exc:  # noqa: BLE001 - reported upward
                actor.error = exc
            finally:
                actor.finished = True
                self._baton.set()

        actor.thread = threading.Thread(
            target=body, name=f"lockstep-{name}", daemon=True
        )
        self._actors.append(actor)
        heapq.heappush(
            self._heap, (start_at, actor.index, next(self._seq), actor)
        )

    # -- actor API ---------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def wait(self, duration: float) -> None:
        """Suspend the calling actor for ``duration`` simulated time."""
        if duration < 0:
            raise ValueError("cannot wait a negative duration")
        actor = self._running
        assert actor is not None, "wait() called outside an actor"
        heapq.heappush(
            self._heap,
            (self._now + duration, actor.index, next(self._seq), actor),
        )
        self._baton.set()  # hand the baton back to the scheduler
        actor.resume.wait()
        actor.resume.clear()

    # -- driving -----------------------------------------------------------
    def run(self) -> float:
        """Run all actors to completion; returns the final simulated time."""
        self._started = True
        for actor in self._actors:
            assert actor.thread is not None
            actor.thread.start()
        while self._heap:
            wake, _idx, _seq, actor = heapq.heappop(self._heap)
            if actor.finished:
                continue
            self._now = max(self._now, wake)
            self._running = actor
            self._baton.clear()
            actor.resume.set()
            self._baton.wait()
            self._running = None
            if actor.error is not None:
                raise ActorError(
                    f"actor {actor.name!r} failed"
                ) from actor.error
        for actor in self._actors:
            assert actor.thread is not None
            actor.thread.join(timeout=5.0)
        return self._now
