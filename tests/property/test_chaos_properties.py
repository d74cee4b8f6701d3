"""Property tests for the chaos harness itself.

The chaos campaign's value rests on two meta-properties that must hold for
*arbitrary* schedules, not just the pinned demo grid:

- **determinism** — running any (scenario, topology, seed) cell twice
  yields byte-identical event traces and verdicts (no wall clock, no
  unseeded randomness anywhere in the loop);
- **shrinker faithfulness** — whatever the shrinker outputs still fails at
  least one oracle the original failure failed, and is never larger than
  the input.

Plus a stateful machine over :class:`ScenarioApplier`: after any legal
event sequence the network's wires are exactly the physical cables minus
the cut ones and those touching a killed node, a refused event moves no
epoch, and the fault epoch only moves forward.
"""

from __future__ import annotations

import json
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.chaos import shrink
from repro.chaos.apply import ScenarioApplier
from repro.chaos.runner import ChaosLayer, run_cell
from repro.chaos.scenario import (
    ChaosEvent,
    Scenario,
    ScenarioError,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.simulator.faults import FaultModel
from repro.topology.generators import build_ring
from repro.topology.model import PortRef

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# The demo topology's addressable surface: ring-6, switches ring-s0..5 with
# ring cables at ports 0/1 and the host at port 2.
_SWITCHES = [f"ring-s{i}" for i in range(6)]
_HOSTS = [f"ring-n{i:03d}" for i in range(6)]


def _events() -> st.SearchStrategy[ChaosEvent]:
    cycle = st.integers(min_value=0, max_value=2)
    after = st.sampled_from([0, 0, 0, 5, 12])  # mostly boundary events
    return st.one_of(
        st.builds(
            lambda c, n, p, a: ChaosEvent(c, "cut", (n, p), a),
            cycle, st.sampled_from(_SWITCHES), st.sampled_from([0, 1]), after,
        ),
        st.builds(
            lambda c, n, a: ChaosEvent(c, "kill_switch", (n,), a),
            cycle, st.sampled_from(_SWITCHES[1:]), after,
        ),
        st.builds(
            lambda c, n, a: ChaosEvent(c, "kill_host", (n,), a),
            cycle, st.sampled_from(_HOSTS[1:]), after,
        ),
        st.builds(
            lambda c, p, a: ChaosEvent(c, "drop", (p,), a),
            cycle, st.sampled_from([0.0, 0.1, 0.3]), after,
        ),
        st.builds(
            lambda c, p, a: ChaosEvent(c, "corrupt", (p,), a),
            cycle, st.sampled_from([0.0, 0.2]), after,
        ),
        st.builds(
            lambda c, n, p, a: ChaosEvent(c, "unplug", (n, p), a),
            cycle, st.sampled_from(_SWITCHES), st.sampled_from([0, 1]), after,
        ),
    )


_scenarios = st.builds(
    lambda events, seed: Scenario("prop", tuple(events), seed=seed),
    st.lists(_events(), max_size=4),
    st.integers(min_value=0, max_value=999),
)


class TestScheduleDeterminism:
    @settings(**_SETTINGS)
    @given(scenario=_scenarios, seed=st.integers(min_value=0, max_value=3))
    def test_same_seed_identical_traces(self, scenario, seed):
        """Random schedules never break determinism: two from-scratch runs
        of the same cell agree on every cycle outcome, verdict and digest.

        Invalid schedules (healing an uncut cable, double kills, ...) must
        be *deterministically* invalid: same error string both times.
        """

        def run():
            cell = run_cell(
                scenario,
                {"kind": "ring", "size": 6},
                seed,
                settle_cycles=2,
                check_determinism=False,
            )
            return json.dumps(cell.to_dict(), sort_keys=True)

        assert run() == run()

    @settings(**_SETTINGS)
    @given(scenario=_scenarios)
    def test_scenario_roundtrips_through_dict(self, scenario):
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario
        assert scenario_to_dict(again) == scenario_to_dict(scenario)


class TestShrinkerFaithfulness:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        extra=st.lists(_events(), max_size=3),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_shrunk_cell_reproduces_original_verdict(self, extra, seed):
        """Against a deliberately broken mapper, shrinking any failing
        schedule yields a no-larger schedule failing the same oracle."""
        from repro.chaos.shrink import shrink_failure
        from repro.core.mapper import BerkeleyMapper

        class WireDroppingMapper(BerkeleyMapper):
            def map(self):
                result = super().map()
                if self._svc.find_layer(ChaosLayer).applier.down:
                    net = result.network
                    sw = [
                        w
                        for w in net.wires
                        if w.a.node in net.switches
                        and w.b.node in net.switches
                    ]
                    if sw:
                        net.disconnect(
                            sorted(sw, key=lambda w: (w.a.node, w.a.port))[-1]
                        )
                return result

        def factory(svc, depth):
            return WireDroppingMapper(
                svc, search_depth=depth, host_first=False,
                max_explorations=5000,
            )

        base = [ChaosEvent(0, "cut", ("ring-s3", 1))]
        scenario = Scenario("buggy", tuple(base + list(extra)), seed=7)
        cell = run_cell(
            scenario,
            {"kind": "ring", "size": 6},
            seed,
            settle_cycles=2,
            check_determinism=False,
            mapper_factory=factory,
        )
        if cell.invalid is not None or cell.passed:
            return  # the extra events made the schedule incoherent/benign
        # The shrinker's cell runs and budget are constants; this property
        # shrinks with the cell's own two settle cycles and a 60-run budget.
        with pytest.MonkeyPatch.context() as m:
            m.setattr(shrink, "run_cell", partial(run_cell, mapper_factory=factory, settle_cycles=2))
            m.setattr(shrink, "MAX_RUNS", 60)
            shrunk = shrink_failure(cell)
        assert shrunk.final is not None and not shrunk.final.passed
        assert set(shrunk.failing) & set(cell.failing)
        assert shrunk.n_events <= len(scenario.events)


class ApplierMachine(RuleBasedStateMachine):
    """Stateful model of the applier over one ring.

    The model tracks what *should* be cut and killed; the invariants assert
    the network holds exactly the physical cables that are neither cut nor
    touching a killed node, and that the fault epoch only ever moves
    forward.
    """

    def __init__(self):
        super().__init__()
        self.net = build_ring(4)
        self.faults = FaultModel(seed=0)
        self.applier = ScenarioApplier(self.net, self.faults)
        self.physical = {(w.a, w.b) for w in self.net.wires}
        self.cut: set = set()
        self.killed: set = set()
        self.last_epoch = self.faults.fault_epoch

    def _apply(self, action, args):
        self.applier.apply(ChaosEvent(0, action, args))

    @rule(
        node=st.sampled_from([f"ring-s{i}" for i in range(4)]),
        port=st.sampled_from([0, 1]),
    )
    def cut_or_heal(self, node, port):
        end = PortRef(node, port)
        cable = next(c for c in self.physical if end in c)
        if cable in self.cut:
            self._apply("heal", (node, port))
            self.cut.discard(cable)
        else:
            self._apply("cut", (node, port))
            self.cut.add(cable)

    @rule(name=st.sampled_from(
        [f"ring-s{i}" for i in range(4)] + [f"ring-n{i:03d}" for i in range(4)]
    ))
    def kill_or_revive(self, name):
        kind = "switch" if name.startswith("ring-s") else "host"
        if name in self.killed:
            self._apply(f"revive_{kind}", (name,))
            self.killed.discard(name)
        else:
            self._apply(f"kill_{kind}", (name,))
            self.killed.add(name)

    @rule(prob=st.sampled_from([0.0, 0.2, 0.9]))
    def ramp_drop(self, prob):
        self._apply("drop", (prob,))
        assert self.faults.drop_prob == prob

    @precondition(lambda self: self.killed)
    @rule()
    def double_kill_rejected(self):
        victim = sorted(self.killed)[0]
        kind = "switch" if victim.startswith("ring-s") else "host"
        epochs = (self.net.topology_epoch, self.faults.fault_epoch)
        try:
            self._apply(f"kill_{kind}", (victim,))
        except ScenarioError:
            pass
        else:
            raise AssertionError("double kill must raise")
        # failed events don't bump
        assert (self.net.topology_epoch, self.faults.fault_epoch) == epochs

    @invariant()
    def wires_are_the_cables_nothing_keeps_down(self):
        expect = {
            (a, b)
            for a, b in self.physical
            if (a, b) not in self.cut
            and a.node not in self.killed
            and b.node not in self.killed
        }
        assert {(w.a, w.b) for w in self.net.wires} == expect
        assert set(self.applier.down) == self.physical - expect
        assert self.applier._killed == set(self.killed)

    @invariant()
    def epoch_is_monotone(self):
        assert self.faults.fault_epoch >= self.last_epoch
        self.last_epoch = self.faults.fault_epoch


TestApplierStateful = ApplierMachine.TestCase
TestApplierStateful.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
