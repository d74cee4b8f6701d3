"""Lockstep scheduler tests: determinism, ordering, error propagation."""

import pytest

from tests.core.reference_concurrent import ActorError, LockstepScheduler


class TestScheduling:
    def test_single_actor_time_advances(self):
        sched = LockstepScheduler()
        seen = []

        def actor(s):
            seen.append(s.now)
            s.wait(10.0)
            seen.append(s.now)
            s.wait(5.0)
            seen.append(s.now)

        sched.spawn("a", actor)
        final = sched.run()
        assert seen == [0.0, 10.0, 15.0]
        assert final == 15.0

    def test_two_actors_interleave_by_time(self):
        sched = LockstepScheduler()
        trace = []

        def make(name, step):
            def actor(s):
                for _ in range(3):
                    trace.append((name, s.now))
                    s.wait(step)

            return actor

        sched.spawn("fast", make("fast", 3.0))
        sched.spawn("slow", make("slow", 5.0))
        sched.run()
        # Events in global time order: fast@0, slow@0, fast@3, slow@5, fast@6...
        assert trace == [
            ("fast", 0.0),
            ("slow", 0.0),
            ("fast", 3.0),
            ("slow", 5.0),
            ("fast", 6.0),
            ("slow", 10.0),
        ]

    def test_ties_break_by_spawn_order(self):
        sched = LockstepScheduler()
        order = []

        def make(name):
            def actor(s):
                order.append(name)
                s.wait(1.0)
                order.append(name)

            return actor

        sched.spawn("first", make("first"))
        sched.spawn("second", make("second"))
        sched.run()
        assert order == ["first", "second", "first", "second"]

    def test_start_at_staggers(self):
        sched = LockstepScheduler()
        starts = {}

        def make(name):
            def actor(s):
                starts[name] = s.now

            return actor

        sched.spawn("a", make("a"), start_at=0.0)
        sched.spawn("b", make("b"), start_at=7.5)
        sched.run()
        assert starts == {"a": 0.0, "b": 7.5}

    def test_deterministic_across_runs(self):
        def run_once():
            sched = LockstepScheduler()
            trace = []

            def make(name, step):
                def actor(s):
                    for _ in range(4):
                        trace.append((name, s.now))
                        s.wait(step)

                return actor

            sched.spawn("x", make("x", 2.0))
            sched.spawn("y", make("y", 3.0))
            sched.run()
            return trace

        assert run_once() == run_once()


class TestErrors:
    def test_actor_exception_propagates(self):
        sched = LockstepScheduler()

        def bad(s):
            s.wait(1.0)
            raise RuntimeError("boom")

        sched.spawn("bad", bad)
        with pytest.raises(ActorError):
            sched.run()

    def test_negative_wait_rejected(self):
        sched = LockstepScheduler()

        def actor(s):
            s.wait(-1.0)

        sched.spawn("a", actor)
        with pytest.raises(ActorError):
            sched.run()

    def test_spawn_after_run_rejected(self):
        sched = LockstepScheduler()
        sched.spawn("a", lambda s: None)
        sched.run()
        with pytest.raises(RuntimeError):
            sched.spawn("late", lambda s: None)
