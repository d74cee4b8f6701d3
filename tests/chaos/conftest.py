"""Shared fixtures for the chaos-harness tests.

``buggy_mapper_factory`` is the acceptance-criteria fixture: a mapper with a
deliberately injected bug (it silently drops one switch-switch cable from
its map whenever any cable is down at map time). The oracle suite must catch
it and the shrinker must reduce any failing schedule to a handful of events.
The bug lives here, guarded by a fixture, so it can never leak into the
production mapper.
"""

import pytest

from repro.chaos.runner import ChaosLayer
from repro.core.mapper import BerkeleyMapper


class _WireDroppingMapper(BerkeleyMapper):
    """Correct mapper until a cable is down; then it loses one cable."""

    def map(self):
        result = super().map()
        chaos = self._svc.find_layer(ChaosLayer)
        if chaos is not None and chaos.applier.down:
            net = result.network
            sw_wires = [
                w
                for w in net.wires
                if w.a.node in net.switches and w.b.node in net.switches
            ]
            if sw_wires:
                victim = sorted(sw_wires, key=lambda w: (w.a.node, w.a.port))[-1]
                net.disconnect(victim)
        return result


@pytest.fixture()
def buggy_mapper_factory():
    def factory(svc, depth):
        return _WireDroppingMapper(
            svc, search_depth=depth, host_first=False, max_explorations=5000
        )

    return factory
