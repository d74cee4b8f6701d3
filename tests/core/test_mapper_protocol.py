"""Protocol-conformance suite: every registered mapper through one door.

Each registry entry must (1) build through ``create_mapper``/
``spec.factory``, (2) return a ``MapResult`` whose network is
isomorphic to the actual core on the paper's testbeds, (3) honor its
declared capability flags (absent features raise ``TypeError`` at
construction, they are not silently dropped), (4) be byte-for-byte
deterministic across runs, and (5) map once. ``map_cycle`` builds every
registry name one way: its depth, nothing else (the radix is the service's). A final guard pins
registry-built Berkeley to the committed Figure 4/5 probe counts so the
refactor can never drift the paper numbers.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.instrumentation import PhaseProfiler
from repro.core.mapper import BerkeleyMapper, MapResult
from repro.core.mapper_protocol import (
    MAPPER_REGISTRY,
    Mapper,
    MapperReusedError,
    UnknownMapperError,
    create_mapper,
    get_mapper_spec,
    mapper_names,
)
from repro.core.remapper import map_cycle
from repro.simulator.stack import build_service_stack
from repro.topology.analysis import core_network, recommended_search_depth
from repro.topology.generators import build_full_now, build_subcluster
from repro.topology.isomorphism import match_networks
from repro.topology.serialize import network_to_dict

ALL_MAPPERS = [
    "berkeley",
    "berkeley-infogain",
    "coupon",
    "myricom",
    "selfid",
    "spanning-tree",
]


def _map_once(name: str, net, host: str) -> MapResult:
    depth = recommended_search_depth(net, host)
    return create_mapper(name, build_service_stack(net, host), search_depth=depth).map()


@pytest.fixture(scope="module")
def now_results():
    """One full-NOW mapping per registered algorithm, shared module-wide."""
    net = build_full_now()
    return net, {name: _map_once(name, net, "C-svc") for name in ALL_MAPPERS}


def test_registry_lists_every_builtin_algorithm():
    assert mapper_names() == ALL_MAPPERS


def test_unknown_name_raises_with_the_known_names():
    with pytest.raises(UnknownMapperError) as exc:
        get_mapper_spec("gradient-descent")
    assert "berkeley" in str(exc.value)


@pytest.mark.parametrize("name", ALL_MAPPERS)
def test_maps_subcluster_c_isomorphically(name):
    net = build_subcluster("C")
    result = _map_once(name, net, "C-svc")
    mapper = create_mapper(
        name,
        build_service_stack(net, "C-svc"),
        search_depth=recommended_search_depth(net, "C-svc"),
    )
    assert isinstance(mapper, Mapper)
    assert isinstance(result, MapResult)
    report = match_networks(result.network, core_network(net))
    assert report, f"{name}: {report.reason}"


@pytest.mark.parametrize("name", ALL_MAPPERS)
def test_maps_full_now_isomorphically(name, now_results):
    net, results = now_results
    report = match_networks(results[name].network, core_network(net))
    assert report, f"{name}: {report.reason}"


@pytest.mark.parametrize("name", ALL_MAPPERS)
def test_maps_a_pendant_region_to_n_minus_f(name, bridge_net):
    """``map()`` means ``N - F`` for every mapper: the host-free chain
    behind the switch-bridge is explored by the breadth-first three (their
    ``run()`` keeps it) and pruned from the protocol result."""
    result = _map_once(name, bridge_net, "h0")
    report = match_networks(result.network, core_network(bridge_net))
    assert report, f"{name}: {report.reason}"
    assert result.network.n_switches == 2


@pytest.mark.parametrize("name", ALL_MAPPERS)
def test_survives_a_host_free_dead_end(name):
    """Killing a ring switch's only host and cutting one of its two ring
    cables leaves a host-free dead end: ``F`` is non-empty mid-campaign
    and every oracle must still hold."""
    from repro.chaos.runner import run_cell
    from repro.chaos.scenario import Scenario, cut, kill_host

    scenario = Scenario(
        "dead-end-switch",
        (kill_host(1, "ring-n003"), cut(1, "ring-s3", 1)),
        seed=104,
    )
    cell = run_cell(
        scenario, {"kind": "ring", "size": 6}, 0, mapper_factory=name
    )
    assert cell.passed, cell.failing


@pytest.mark.parametrize("name", ALL_MAPPERS)
def test_two_runs_are_byte_identical(name):
    net = build_subcluster("C")

    def digest():
        result = _map_once(name, net, "C-svc")
        return (
            result.stats.total_probes,
            json.dumps(network_to_dict(result.network), sort_keys=True),
        )

    assert digest() == digest()


_LABELED_DIGEST = """
import json
from repro.simulator.stack import build_service_stack
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.serialize import network_to_dict
from tests.core.reference_labeled import LabeledMapper

b = NetworkBuilder()
b.switches("s0", "s1")
b.hosts("h0", "h1", "h2")
b.attach("h0", "s0", port=3)
b.attach("h1", "s0", port=1)
b.attach("h2", "s1", port=3)
b.link("s0", "s1", port_a=4, port_b=0)
b.link("s0", "s1", port_a=6, port_b=5)
result = LabeledMapper(build_service_stack(b.build(), "h0"), search_depth=3).run()
print(json.dumps(network_to_dict(result.network), sort_keys=True))
"""


def test_labeled_mapper_is_byte_identical_across_processes():
    """The proof-vehicle mapper (a test oracle, not in the registry) makes
    the same promise. Its label classes used to be sets of identity-hashed
    vertices, so which label survived a merge followed memory addresses:
    on this fabric switch-0/switch-1 swapped in about one process of four.
    """
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(src)  # the oracle lives under tests/
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, root]), "PYTHONHASHSEED": "0"}
    digests = {
        subprocess.run(
            [sys.executable, "-c", _LABELED_DIGEST],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        ).stdout
        for _ in range(8)
    }
    assert len(digests) == 1 and digests.pop().strip()


@pytest.mark.parametrize("name", ALL_MAPPERS)
def test_capability_flags_match_the_instance(name):
    net = build_subcluster("C")
    spec = get_mapper_spec(name)
    svc = build_service_stack(net, "C-svc")
    mapper = spec.factory(svc, search_depth=3)
    assert callable(getattr(mapper, "seed_with", None)) == ("seed_with" in spec.capabilities)
    if "profiler" in spec.capabilities:
        spec.factory(svc, search_depth=3, profiler=PhaseProfiler())
    else:
        with pytest.raises(TypeError):
            spec.factory(svc, search_depth=3, profiler=object())


@pytest.mark.parametrize("name", mapper_names())
def test_a_second_map_raises(name, ring_net):
    """A mapper maps once: a second ``map()`` on the same mapper raises
    instead of mapping on the state the first one left behind."""
    depth = recommended_search_depth(ring_net, "h0")
    mapper = create_mapper(name, build_service_stack(ring_net, "h0"), search_depth=depth)
    assert match_networks(mapper.map().network, ring_net)
    with pytest.raises(MapperReusedError):
        mapper.map()


def test_map_cycle_builds_a_registry_mapper_with_its_depth_only(monkeypatch, ring_net):
    """Every registry name is built the same way: ``search_depth``, nothing
    else; the mapper reads the radix from its service. An option
    ``map_cycle`` does not take is refused, not dropped."""
    spec = get_mapper_spec("berkeley")
    calls = []

    def recorder(service, **kwargs):
        calls.append(kwargs)
        return spec.factory(service, **kwargs)

    monkeypatch.setitem(MAPPER_REGISTRY, "berkeley", dataclasses.replace(spec, factory=recorder))
    map_cycle(ring_net, "h0", search_depth=6)
    assert calls == [{"search_depth": 6}]
    with pytest.raises(TypeError):
        map_cycle(ring_net, "h0", mapper="myricom", max_explorations=5)


def test_registry_construction_matches_direct_and_pins_figure5():
    """The refactor guard: registry-built Berkeley IS BerkeleyMapper.

    Probe count and produced network must be byte-identical between the
    two construction paths, and the count itself is pinned to the
    Figure 5 number (``core.probes_per_cycle`` on ``now_cold`` maps the
    same fabric from its first sorted host: 2 159).
    """
    net = build_full_now()
    depth = recommended_search_depth(net, "C-svc")

    svc = build_service_stack(net, "C-svc")
    direct = BerkeleyMapper(svc, search_depth=depth, host_first=False).map()
    svc = build_service_stack(net, "C-svc")
    via_registry = create_mapper(
        "berkeley", svc, search_depth=depth, host_first=False
    ).map()

    assert direct.stats.total_probes == via_registry.stats.total_probes == 2929
    assert json.dumps(
        network_to_dict(direct.network), sort_keys=True
    ) == json.dumps(network_to_dict(via_registry.network), sort_keys=True)


def test_registry_construction_pins_figure4():
    net = build_subcluster("C")
    result = _map_once("berkeley", net, "C-svc")
    assert result.stats.total_probes == 760


def test_infogain_beats_default_probe_order(now_results):
    """The acceptance criterion: learned ordering saves probes on the
    paper's own system (and on its C subcluster)."""
    _net, results = now_results
    assert (
        results["berkeley-infogain"].stats.total_probes
        < results["berkeley"].stats.total_probes
    )
    small = build_subcluster("C")
    assert (
        _map_once("berkeley-infogain", small, "C-svc").stats.total_probes
        < _map_once("berkeley", small, "C-svc").stats.total_probes
    )
