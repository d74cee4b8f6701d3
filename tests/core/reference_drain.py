"""The deduction drain as it was before in-place twin merges: the oracle.

:class:`ReferenceDrain` overrides :meth:`ModelGraph._deduce_at` with the
plain form of the rule: after every merge, rescan ``v`` from its first
index; pick an index's two ends by sorting the whole set; send every
merge, a degree-1 twin's included, through :meth:`ModelGraph._merge`.
Mixed in ahead of any mapper or graph class, it must leave every
observable of a run unchanged: the ``_parent`` write sequence (which
:class:`ParentLog` records), the serialized map, and the profiler's call
counts. :class:`MergeLog` records the mergelist's appends, which carry
the order the drain deduces in.
"""

from __future__ import annotations

from collections import deque

from repro.core.model_graph import MergedVertex
from repro.core.relative import MappingError

__all__ = ["MergeLog", "ParentLog", "ReferenceDrain"]


class ReferenceDrain:
    """Mixin: the rescan-from-the-start deduction drain."""

    def _deduce_at(self, v: MergedVertex | None) -> None:
        while v is not None and v.multi:
            i, ends = next((i, ends) for i, ends in v.nbrs.items() if len(ends) > 1)
            (w1, wi1), (w2, wi2) = sorted(ends, key=lambda e: (e[0].vid, e[1]))[:2]
            if w1 is w2:
                raise MappingError(
                    f"port index {i} of {v!r} is wired to two different "
                    f"ports of the same node; violates the system model"
                )
            self._merge(w1, w2, wi1 - wi2)  # type: ignore[attr-defined]
            v = self._find(v.vid)  # type: ignore[attr-defined]


class ParentLog(list):
    """A union-find ``_parent`` list that records every write to it:
    ``("new", vid)`` per vertex made, ``(vid, root)`` per merge and per
    path-compression step."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[tuple] = []

    def append(self, vid: int) -> None:
        self.writes.append(("new", vid))
        super().append(vid)

    def __setitem__(self, vid: int, root: int) -> None:  # type: ignore[override]
        self.writes.append((vid, root))
        super().__setitem__(vid, root)


class MergeLog(deque):
    """A mergelist that records every vid appended to it, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.appended: list[int] = []

    def append(self, vid: int) -> None:
        self.appended.append(vid)
        super().append(vid)
