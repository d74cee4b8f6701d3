"""Differential proof that the middleware stack preserved legacy behavior.

``tests/goldens/legacy_service_stack.json`` was captured by running the
five *pre-refactor* wrapper classes (``_ElectionProbeService``/``_Capped``,
``_ConcurrentProbeService``, ``ChaosProbeService``,
``CrossTrafficProbeService``/``RetryingProbeService``) on fixed seeds.
These tests re-run the exact same drivers through the composed layer
stacks and assert byte-identical observables — same RNG draw order, same
probe counts, same float timings, same yield schedules. Any drift in the
engine's transaction order or a layer's hook placement fails loudly here.

(The chaos side of the same proof is ``tests/chaos/test_corpus.py``: the
committed 60-cell corpus must replay digest-for-digest through
``ChaosLayer``.)
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.election import _rival_schedule, election_runs
from repro.extensions import crosstraffic
from repro.extensions.crosstraffic import crosstraffic_study
from repro.simulator.collision import CircuitModel
from repro.simulator.timing import MYRINET_TIMING
from repro.topology.analysis import recommended_search_depth
from repro.topology.generators import build_ring, build_subcluster
from tests.core.reference_concurrent import run_concurrent_mappers

GOLDEN = json.loads(
    (Path(__file__).parent / "goldens" / "legacy_service_stack.json").read_text()
)


@pytest.fixture(scope="module")
def subcluster_c():
    net = build_subcluster("C")
    return net, recommended_search_depth(net, "C-svc")


@pytest.mark.parametrize("seed", [0, 7])
def test_election_byte_identical_to_legacy_wrappers(subcluster_c, seed):
    net, depth = subcluster_c
    out = next(election_runs(net, (seed,), search_depth=depth))
    want = GOLDEN[f"election_s{seed}"]
    assert out.winner == want["winner"]
    assert out.elapsed_ms == want["elapsed_ms"]
    assert out.anchor_misses == want["anchor_misses"]
    assert out.map_result.network.n_hosts == want["hosts_mapped"]
    assert out.map_result.stats.total_probes == want["probes"]
    assert out.yield_times_ms == want["yield_times_ms"]


def test_rival_schedule_digest_matches_capped_wrapper(subcluster_c):
    net, depth = subcluster_c
    sched = _rival_schedule(
        net,
        "C-n04",
        search_depth=depth,
        collision=CircuitModel(),
        timing=MYRINET_TIMING,
        cap=600,
    )
    want = GOLDEN["rival_schedule_C-n04"]
    assert len(sched) == want["n_events"]
    digest = hashlib.sha256(json.dumps(sched).encode()).hexdigest()[:16]
    assert digest == want["digest"]


@pytest.mark.parametrize("yield_rule", [False, True])
def test_concurrent_mapping_byte_identical_to_legacy_wrapper(yield_rule):
    ring = build_ring(6, hosts_per_switch=1)
    hosts = sorted(ring.hosts)[:3]
    depth = recommended_search_depth(ring, hosts[0])
    out = run_concurrent_mappers(
        ring, hosts, search_depth=depth, yield_rule=yield_rule
    )
    want = GOLDEN[f"concurrent_yield{yield_rule}"]
    assert out.elapsed_us == want["elapsed_us"]
    assert out.total_collisions == want["total_collisions"]
    got = {
        h: {
            "finished_at_us": o.finished_at_us,
            "lost": o.probes_lost_to_contention,
            "yielded": o.yielded,
            "hosts": o.result.network.n_hosts if o.result else None,
            "probes": o.result.stats.total_probes if o.result else None,
        }
        for h, o in sorted(out.mappers.items())
    }
    assert got == want["mappers"]


def test_crosstraffic_study_byte_identical_to_legacy_wrappers(subcluster_c, monkeypatch):
    net, depth = subcluster_c
    monkeypatch.setattr(crosstraffic, "TRAFFIC_SEED", 3)
    pts = crosstraffic_study(net, "C-svc", search_depth=depth, rates=(0.0, 2.0, 5.0))
    got = [
        {
            "rate": p.rate_msgs_per_ms,
            "retries": p.retries,
            "correct": p.correct,
            "hosts": p.hosts_found,
            "switches": p.switches_found,
            "wires": p.wires_found,
            "probes": p.probes,
            "lost": p.probes_lost,
            "elapsed_ms": p.elapsed_ms,
        }
        for p in pts
    ]
    assert got == GOLDEN["crosstraffic"]
