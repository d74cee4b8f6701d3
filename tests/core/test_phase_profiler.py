"""Per-phase profiling: injected clocks, nesting arithmetic, invisibility.

The profiler is observational only (SAN001: ``repro.core`` never reads the
wall clock itself) — attaching one must not change a single mapping
observable, and all timing flows through the injected clock so tests are
deterministic.
"""

from __future__ import annotations

from repro.core.instrumentation import PhaseProfile, PhaseProfiler
from repro.core.mapper import BerkeleyMapper
from repro.simulator.stack import build_service_stack
from repro.topology.generators import build_subcluster
from tests.topology.reference_isomorphism import networks_equal


def calls(profile: PhaseProfile, phase: str) -> int:
    return profile.phases.get(phase, (0, 0.0))[0]


def wall_ms(profile: PhaseProfile, phase: str) -> float:
    return profile.phases.get(phase, (0, 0.0))[1] * 1000.0


class FakeClock:
    """Monotone clock advancing a fixed step per reading."""

    def __init__(self, step: float = 0.5) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestPhaseProfiler:
    def test_accumulates_calls_and_wall(self):
        prof = PhaseProfiler(clock=FakeClock())
        prof.add("explore", 1.5)
        prof.add("explore", 0.5)
        prof.add("probe", 0.25)
        profile = prof.snapshot()
        assert calls(profile, "explore") == 2
        assert wall_ms(profile, "explore") == 2000.0
        assert calls(profile, "probe") == 1
        assert wall_ms(profile, "probe") == 250.0

    def test_unknown_phase_reads_as_zero(self):
        profile = PhaseProfiler(clock=FakeClock()).snapshot()
        assert calls(profile, "explore") == 0
        assert wall_ms(profile, "explore") == 0.0

    def test_total_excludes_nested_phases(self):
        prof = PhaseProfiler(clock=FakeClock())
        prof.add("explore", 2.0)
        prof.add("probe", 1.5)   # inside explore
        prof.add("deduce", 1.0)
        prof.add("merge", 0.75)  # inside deduce
        assert prof.snapshot().total_s == 3.0

    def test_render_marks_nesting(self):
        prof = PhaseProfiler(clock=FakeClock())
        prof.add("explore", 2.0)
        prof.add("probe", 1.5)
        text = prof.snapshot().render()
        assert "(in explore)" in text
        assert "total" in text

    def test_nested_map_is_consistent(self):
        assert set(PhaseProfile.NESTED) == {"probe", "merge"}
        assert PhaseProfile.NESTED["probe"] == "explore"
        assert PhaseProfile.NESTED["merge"] == "deduce"


class TestMapperIntegration:
    def _run(self, profiler):
        net = build_subcluster("C")
        svc = build_service_stack(net, "C-svc")
        return BerkeleyMapper(
            svc, search_depth=11, host_first=False, profiler=profiler
        ).map()

    def test_profile_attached_with_injected_clock(self):
        profiler = PhaseProfiler(clock=FakeClock(step=0.001))
        result = self._run(profiler)
        profile = profiler.snapshot()
        for phase in ("explore", "probe", "deduce", "prune", "build"):
            assert calls(profile, phase) > 0, phase
            assert wall_ms(profile, phase) > 0.0, phase
        assert calls(profile, "explore") == result.explorations
        assert calls(profile, "merge") == result.merges

    def test_profiling_changes_no_observable(self):
        plain = self._run(None)
        profiled = self._run(PhaseProfiler(clock=FakeClock()))
        assert networks_equal(plain.network, profiled.network)
        assert plain.merges == profiled.merges
        assert plain.explorations == profiled.explorations
        assert plain.stats.total_probes == profiled.stats.total_probes
        assert plain.stats.elapsed_us == profiled.stats.elapsed_us
