"""Probe-planner tests: the Section 3.3 window arithmetic."""

import pytest

from repro.core.planner import PortPlan, ProbePlanner


def _drain(plan, hits=()):
    """Run a plan to exhaustion, feeding hits for the given turns."""
    probed = []
    while (t := plan.next_turn()) is not None:
        probed.append(t)
        plan.feed(t, t in hits)
    return probed


class TestOrdering:
    def test_alternating_order_small_turns_first(self):
        plan = ProbePlanner().new_plan(8)
        first_four = [plan.next_turn() for _ in range(4)]
        assert first_four == [1, -1, 2, -2]

    def test_naive_order_fixed_sweep(self):
        plan = ProbePlanner(heuristic=False).new_plan(8)
        probed = _drain(plan)
        assert probed == [t for t in range(-7, 8) if t != 0]

    def test_plans_of_one_radix_share_their_turn_ints(self):
        """Probe strings hold the plan's turn ints, so fresh ones per plan
        (turns below -5 are not interned) would add up on a wide fabric."""
        a, b = PortPlan(radix=30), PortPlan(radix=30)
        assert a.order is b.order
        drained = [_drain(PortPlan(radix=30)) for _ in range(2)]
        assert all(x is y for x, y in zip(*drained))
        assert min(drained[0]) == -29

    def test_all_fourteen_without_hits(self):
        plan = ProbePlanner().new_plan(8)
        assert len(_drain(plan)) == 14


class TestWindow:
    def test_hit_narrows_entry_window(self):
        plan = PortPlan(radix=8)
        plan.feed(5, True)  # port q+5 exists -> q <= 2
        assert plan.entry_port_window == (0, 2)
        plan.feed(-2, True)  # q >= 2
        assert plan.entry_port_window == (2, 2)

    def test_misses_update_nothing(self):
        plan = PortPlan(radix=8)
        plan.feed(7, False)
        plan.feed(-7, False)
        assert plan.entry_port_window == (0, 7)

    def test_two_hits_distance_seven_end_the_plan(self):
        """'Once we find two turns separated by a distance of 7 that are
        successful, we are done' — remaining out-of-range turns skipped."""
        plan = PortPlan(radix=8)
        probed = []
        while (t := plan.next_turn()) is not None:
            probed.append(t)
            plan.feed(t, t in (-3, 4))  # distance 7: q is exactly 3
        # Turns outside [-3, 4] can never be legal from port 3.
        assert all(-3 <= t <= 4 for t in probed[probed.index(4):])
        assert plan.skipped > 0
        assert plan.entry_port_window == (3, 3)

    def test_skips_are_sound(self):
        """A skipped turn must be ILLEGAL from every feasible entry port."""
        plan = PortPlan(radix=8)
        hits = (3, -4)
        seen = set(_drain(plan, hits=hits))
        lo, hi = plan.entry_port_window
        for t in range(-7, 8):
            if t == 0 or t in seen:
                continue
            # skipped: check no feasible q makes q+t legal
            assert all(not (0 <= q + t <= 7) for q in range(lo, hi + 1))

    def test_naive_plan_never_skips(self):
        plan = ProbePlanner(heuristic=False).new_plan(8)
        _drain(plan, hits=(3, -4))
        assert plan.skipped == 0

    def test_heuristic_beats_naive_on_probe_count(self):
        hits = (1, -6)  # pins the window quickly
        smart = _drain(ProbePlanner().new_plan(8), hits=hits)
        naive = _drain(ProbePlanner(heuristic=False).new_plan(8), hits=hits)
        assert len(smart) < len(naive)

    def test_radix_four(self):
        plan = PortPlan(radix=4)
        probed = _drain(plan)
        assert set(probed) <= {t for t in range(-3, 4) if t != 0}
