"""Randomized / coupon-collecting mapping (Section 6).

"We conjecture that the network mapping problem may have good solution
using randomized techniques. ... Vazirani has suggested a coupon-collecting
initial phase to find most of the graph. Probes of maximal depth are sent
out in random directions. This is a considerable saving in probes over
randomized depth first search, since the whole length of the path is
effectively explored with one probe. The dangling edges of the resulting
graph can then be explored in a breadth-first way."

The paper couples this with a small firmware change: "further suppose that
the firmware were changed a bit, so that instead of a 'hit host too soon'
error causing a message to be discarded, the host could read it and send a
response". Without that change a random walk dies the moment it brushes any
host mid-string, and the phase is nearly worthless in host-dense networks.

- The probe service's ``probe_host_any`` kind is the firmware change: a
  probe that reaches a host *anywhere* along its string gets a reply naming
  the host and the prefix that reached it. It answers from the same cached
  walk as the native probe kinds and checks its string against the
  fabric's own turn alphabet, so any switch radix maps.
- :class:`CouponMapper` runs the coupon phase before the BFS exploration
  (phase 2 = the unmodified Berkeley algorithm), sending that kind. Each
  hit contributes a whole path of switch vertices ending in a host anchor;
  the regular deduction engine consumes them.
"""

from __future__ import annotations

import random

from repro.core.mapper import BerkeleyMapper
from repro.core.mapper_protocol import register_mapper
from repro.core.model_graph import KIND_HOST, KIND_SWITCH
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import turn_alphabet

__all__ = ["CouponMapper"]


@register_mapper(
    "coupon",
    summary="coupon-collecting random seeding + Berkeley BFS (Section 6)",
)
class CouponMapper(BerkeleyMapper):
    """Berkeley mapper with a coupon-collecting random seeding phase.

    Capabilities are inherited from :class:`BerkeleyMapper` — the coupon
    phase only pre-seeds the model graph; prior-map seeding and phase
    profiling both still apply to the BFS phase.
    """

    def __init__(
        self,
        service: QuiescentProbeService,
        *,
        search_depth: int,
        coupon_probes: int = 40,
        coupon_seed: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(service, search_depth=search_depth, **kwargs)
        if coupon_probes < 0:
            raise ValueError("coupon_probes must be non-negative")
        self._coupon_probes = coupon_probes
        self._coupon_rng = random.Random(coupon_seed)
        self.coupon_hits = 0

    def _seed_phase(self) -> None:
        # Every random walk starts at the switch the mapper host hangs off:
        # the root ``_initialize`` made, or the one a seed kept.
        [(root, _)] = self._hosts[self._svc.mapper_host].nbrs[0]
        # Random direction, biased toward small turns: "excluding turn 0,
        # turns of +/-1 are the best, turns of +/-2 are the next best"
        # (Section 3.3) — a uniform draw over +/-7 dies almost immediately
        # to ILLEGAL TURN / NO SUCH WIRE.
        turns_alphabet = turn_alphabet(self._radix)
        weights = [1.0 / (abs(t) ** 2) for t in turns_alphabet]
        for _ in range(self._coupon_probes):
            length = self._coupon_rng.randint(
                max(1, self._depth // 2), self._depth
            )
            string = tuple(
                self._coupon_rng.choices(turns_alphabet, weights=weights)[0]
                for _ in range(length)
            )
            got = self._svc.probe_host_any(string)
            if got is None:
                continue
            host, prefix = got
            self.coupon_hits += 1
            self._absorb_path(root, prefix, host)
        self._drain_mergelist()

    def _absorb_path(self, root, string, host: str) -> None:
        """Install the whole successful probe path into the model graph.

        Every proper prefix of the string reached a switch (the probe went
        through it); the full string reached ``host``. Prefix vertices join
        the frontier like any other discovery; the host registers and
        anchors merges.

        Index bookkeeping: each vertex's neighbor indices are relative to
        *its own* creation-path entry port. The coupon walk tracks ``entry``,
        the relative index at which this walk entered the current vertex, so
        turn ``t`` lands at index ``entry + t`` in the vertex's frame. Fresh
        vertices are created in the walk's frame (entry 0); following a
        known wire re-bases to the far vertex's frame.
        """
        current = root
        entry = 0  # the walk enters the root exactly as its creation did
        for i, turn in enumerate(string):
            prefix = string[: i + 1]
            is_last = i == len(string) - 1
            idx = entry + turn
            existing = current.nbrs.get(idx)
            if existing and not is_last:
                # Port already known: follow the wire instead of duplicating.
                far, far_idx = min(existing, key=lambda e: (e[0].vid, e[1]))
                if far.kind != KIND_SWITCH:
                    # The model claims a host here, yet the probe passed
                    # through. Unresolvable locally; stop absorbing (sound:
                    # we add nothing rather than something wrong).
                    return
                current, entry = far, far_idx
                continue
            if is_last:
                child = self._new_vertex(KIND_HOST, prefix, host_name=host)
                self._link(current, idx, child, 0)
                self._register_host(child)
            else:
                child = self._new_vertex(KIND_SWITCH, prefix)
                self._link(current, idx, child, 0)
                self._frontier.append(child.vid)
                current, entry = child, 0
