"""Adversarial probe services: the MappingError paths.

Under the paper's assumptions deductions never contradict (Lemma 2). These
tests feed the mapper *inconsistent* responses — the kind cross-traffic
corruption or broken firmware could produce — and assert it fails loudly
with :class:`MappingError` instead of emitting a wrong map silently.
"""

import pytest

from repro.core.mapper import BerkeleyMapper, MappingError
from repro.simulator.probes import ProbeStats
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth


class _Liar:
    """Wrap a real service but rewrite selected host-probe answers."""

    def __init__(self, inner, rewrites):
        self._inner = inner
        self._rewrites = rewrites  # turns tuple -> fake host name

    @property
    def mapper_host(self):
        return self._inner.mapper_host

    @property
    def stats(self) -> ProbeStats:
        return self._inner.stats

    @property
    def radix(self):
        return self._inner.radix

    def probe_host(self, turns):
        real = self._inner.probe_host(turns)
        return self._rewrites.get(tuple(turns), real)

    def probe_switch(self, turns):
        return self._inner.probe_switch(turns)


class TestContradictions:
    def test_duplicate_host_name_on_two_ports(self, tiny_net):
        """The same host name reported on two different switch ports
        forces a port-to-itself or shift contradiction."""
        depth = recommended_search_depth(tiny_net, "h0")
        inner = QuiescentProbeService(tiny_net, "h0")
        # Truth: port 3 is h1, port 7 is h2. Lie: both claim to be h1.
        liar = _Liar(inner, {(7,): "h1"})
        with pytest.raises(MappingError):
            BerkeleyMapper(liar, search_depth=depth, host_first=True).map()

    def test_mapper_host_reported_elsewhere(self, tiny_net):
        """A probe claiming the mapper's own host hangs off another port
        contradicts the root anchoring."""
        depth = recommended_search_depth(tiny_net, "h0")
        inner = QuiescentProbeService(tiny_net, "h0")
        liar = _Liar(inner, {(3,): "h0"})
        with pytest.raises(MappingError):
            BerkeleyMapper(liar, search_depth=depth, host_first=True).map()

    def test_consistent_renaming_is_not_detectable(self, tiny_net):
        """A systematic renaming (h1<->h2 swapped everywhere) is a
        consistent alternative world: the mapper cannot and should not
        reject it; it maps the renamed world."""
        depth = recommended_search_depth(tiny_net, "h0")
        inner = QuiescentProbeService(tiny_net, "h0")
        liar = _Liar(inner, {(3,): "h2", (7,): "h1"})
        result = BerkeleyMapper(liar, search_depth=depth, host_first=True).map()
        assert set(result.network.hosts) == {"h0", "h1", "h2"}
        # The produced map is tiny_net with the two hosts exchanged.
        att1 = result.network.host_attachment("h1")
        att2 = result.network.host_attachment("h2")
        assert att1 is not None and att2 is not None


class TestErrorMessages:
    def test_mapping_error_is_runtime_error(self):
        assert issubclass(MappingError, RuntimeError)

    def test_unresolved_multiwire_reported(self, tiny_net):
        """If deduction is interrupted (depth too small to resolve), the
        builder refuses to emit a multi-wired port."""
        # This situation cannot arise from honest quiescent probing with
        # the default pipeline (deductions drain fully), so simulate it by
        # corrupting a finished mapper's model directly.
        depth = recommended_search_depth(tiny_net, "h0")
        svc = QuiescentProbeService(tiny_net, "h0")
        mapper = BerkeleyMapper(svc, search_depth=depth, host_first=False)
        mapper._initialize()
        mapper._main_loop()
        # Corrupt: give some switch a second wire-end on an existing port.
        victim = next(
            v
            for v in mapper._live_vertices()
            if v.kind == "switch" and v.nbrs
        )
        idx = next(iter(victim.nbrs))
        other = next(
            v for v in mapper._live_vertices() if v is not victim
        )
        victim.nbrs[idx].add((other, 99))
        with pytest.raises(MappingError, match="multi-wire|port"):
            mapper._build_network()
