"""Oracle suite: distance work kept across calls equals work done afresh.

A :class:`DistanceMemo` carries BFS rows and ``Q(v)`` flows from one fabric
to the next. Over sequences of cuts — some ending in a plug or a change of
mapper host, which must take the full path with a named reason — the kept
path must give the same ``D``, ``F``, every ``Q(v)`` and the same depth as
a memo-free ``core_decomposition``, and the same ``root``, ``labels`` and
``relabeled`` as a memo-free ``orient_updown``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.remapper import RemapperDaemon, route_cycle
from repro.routing.updown import orient_updown
from repro.simulator.faults import FaultModel
from repro.topology.analysis import (
    DistanceMemo,
    _decompose,
    _Fabric,
    core_decomposition,
    effective_network,
    recommended_search_depth,
)
from repro.topology.generators import (
    build_full_now,
    build_subcluster,
    build_three_tier_fat_tree,
)
from repro.topology.model import Network, TopologyError
from tests.topology.test_analysis_reference import (
    add_odd_hosts,
    cut_switch_wires,
    seeded_fabric,
)


def assert_kept_equals_fresh(
    net: Network, h0: str, memo: DistanceMemo, depth_memo: DistanceMemo
) -> None:
    """The memo path over ``net`` equals a memo-free pass."""
    got = _decompose(*_Fabric.around(net, h0), memo)
    want = core_decomposition(net, h0)
    assert got.diameter == want.diameter
    assert got.f_set == want.f_set
    assert got.q_values == want.q_values
    assert got.q == want.q
    assert recommended_search_depth(net, h0, depth_memo) == (
        recommended_search_depth(net, h0)
    )


def assert_orientation_equals_fresh(net: Network, memo: DistanceMemo) -> None:
    try:
        want = orient_updown(net)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            orient_updown(net, memo=memo)
        return
    got = orient_updown(net, memo=memo)
    assert got.root == want.root
    assert got.labels == want.labels
    assert list(got.labels) == list(want.labels)
    assert got.relabeled == want.relabeled


def plug(net: Network, rng: random.Random) -> tuple[str, str] | None:
    """Cable free ports of two switches together (a parallel wire or a
    new pair) and return them; ``None`` when no two switches have one."""
    roomy = sorted(s for s in net.switches if net.free_ports(s))
    if len(roomy) < 2:
        return None
    a, b = rng.sample(roomy, 2)
    net.connect(a, net.free_ports(a)[0], b, net.free_ports(b)[0])
    return a, b


class TestDepthMemo:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_switches=st.integers(min_value=1, max_value=7),
        n_hosts=st.integers(min_value=2, max_value=5),
        extra_links=st.integers(min_value=0, max_value=4),
        pendants=st.integers(min_value=0, max_value=2),
        loopbacks=st.integers(min_value=0, max_value=2),
        n_steps=st.integers(min_value=1, max_value=4),
        ending=st.sampled_from(["cut", "plug", "mapper"]),
        crowd=st.sampled_from([0, 4]),
        star=st.integers(min_value=0, max_value=3),
        pair=st.booleans(),
        lone=st.booleans(),
    )
    def test_cut_sequences_on_random_fabrics(
        self, seed, n_switches, n_hosts, extra_links, pendants, loopbacks,
        n_steps, ending, crowd, star, pair, lone,
    ):
        """Parallel wires (a cut may only lower a pair's count), pendants,
        loopbacks and odd hosts; one memo per mapper host, kept over the
        whole sequence."""
        try:
            net = seeded_fabric(
                seed, n_switches, n_hosts, extra_links, pendants, loopbacks
            )
        except TopologyError:
            return  # density does not fit the radix
        add_odd_hosts(net, seed, crowd, star, pair, lone)
        hosts = sorted(net.hosts)
        memos = {h: (DistanceMemo(), DistanceMemo()) for h in hosts}
        for h0 in hosts:
            assert_kept_equals_fresh(net, h0, *memos[h0])
            assert memos[h0][0].fallback == "first call"
        for step in range(n_steps):
            cut_switch_wires(net, seed + step, 1)
            for h0 in hosts:
                assert_kept_equals_fresh(net, h0, *memos[h0])
                assert memos[h0][0].fallback in (None, "different node list")
        plugged = ending == "plug" and plug(net, random.Random(seed))
        if plugged:
            for h0 in hosts:
                assert_kept_equals_fresh(net, h0, *memos[h0])
                if set(plugged) & set(_Fabric.around(net, h0)[0].names):
                    assert memos[h0][0].fallback in (
                        "a wire was added", "different node list"
                    )
        if ending == "mapper":
            memo, depth_memo = memos[hosts[0]]
            for before, h0 in zip(hosts, hosts[1:]):
                assert_kept_equals_fresh(net, h0, memo, depth_memo)
                if _Fabric.around(net, before)[0].names == (
                    _Fabric.around(net, h0)[0].names
                ):
                    assert memo.fallback == "different mapper host"
                else:
                    assert memo.fallback == "different node list"

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_switches=st.integers(min_value=2, max_value=7),
        n_hosts=st.integers(min_value=2, max_value=5),
        extra_links=st.integers(min_value=0, max_value=4),
        n_steps=st.integers(min_value=1, max_value=4),
    )
    def test_growing_dead_wire_sets(
        self, seed, n_switches, n_hosts, extra_links, n_steps
    ):
        """Cables fail one by one, each a missing wire of the fabric. The
        memos kept over the fabric itself (where ``map_cycle`` takes the
        depth) and over its effective network (a fresh network every call,
        its delta read off ``mult`` all the same) both match a memo-free
        pass."""
        try:
            net = seeded_fabric(seed, n_switches, n_hosts, extra_links, 1, 1)
        except TopologyError:
            return
        rng = random.Random(seed)
        h0 = sorted(net.hosts)[0]
        own, kept = (DistanceMemo(), DistanceMemo()), (DistanceMemo(), DistanceMemo())
        wires = sorted(net.wires, key=lambda w: w.key)
        rng.shuffle(wires)
        for wire in wires[:n_steps]:
            net.disconnect(wire)
            assert_kept_equals_fresh(net, h0, *own)
            eff = effective_network(net, FaultModel(), h0)
            assert_kept_equals_fresh(eff, h0, *kept)

    @pytest.mark.parametrize(
        "build",
        [
            build_full_now,
            lambda: build_subcluster("A"),
            lambda: build_subcluster("B"),
            lambda: build_subcluster("C"),
            lambda: build_three_tier_fat_tree(4),
        ],
        ids=["now", "A", "B", "C", "fattree4"],
    )
    def test_cut_sequences_on_named_fabrics(self, build):
        net = build()
        h0 = sorted(net.hosts)[0]
        memo, depth_memo = DistanceMemo(), DistanceMemo()
        assert_kept_equals_fresh(net, h0, memo, depth_memo)
        for step in range(8):
            cut_switch_wires(net, step, 1)
            assert_kept_equals_fresh(net, h0, memo, depth_memo)
        assert plug(net, random.Random(0))
        assert_kept_equals_fresh(net, h0, memo, depth_memo)
        # A plug that rejoins a part the cuts split off also grows the
        # mapper's component.
        assert memo.fallback in ("a wire was added", "different node list")

    def test_a_now_cut_reruns_fewer_flows_and_rows_than_exist(self):
        net = build_full_now()
        h0 = sorted(net.hosts)[0]
        memo = DistanceMemo()
        _decompose(*_Fabric.around(net, h0), memo)
        assert (memo.flows_run, memo.rows_run) == (len(memo.flows), len(memo.rows))
        assert len(memo.flows) == len(memo.rows) == 40
        cut_switch_wires(net, 1, 1)
        assert_kept_equals_fresh(net, h0, memo, DistanceMemo())
        assert memo.fallback is None
        assert memo.flows_run < len(memo.flows)
        assert memo.rows_run < len(memo.rows)

    def test_a_quiet_call_reruns_nothing(self):
        net = build_subcluster("C")
        memo = DistanceMemo()
        _decompose(*_Fabric.around(net, "C-svc"), memo)
        _decompose(*_Fabric.around(net, "C-svc"), memo)
        assert memo.fallback is None
        assert memo.flows_run == memo.rows_run == 0

    def test_a_partition_changes_the_node_list(self):
        net = build_subcluster("C")
        memo = DistanceMemo()
        _decompose(*_Fabric.around(net, "C-svc"), memo)
        for wire in list(net.wires_of("C-leaf-0")):
            if net.is_switch(wire.a.node) and net.is_switch(wire.b.node):
                net.disconnect(wire)
        assert_kept_equals_fresh(net, "C-svc", memo, DistanceMemo())
        assert memo.fallback == "different node list"


class TestRootPickMemo:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_switches=st.integers(min_value=1, max_value=7),
        n_hosts=st.integers(min_value=2, max_value=5),
        extra_links=st.integers(min_value=0, max_value=4),
        pendants=st.integers(min_value=0, max_value=2),
        n_steps=st.integers(min_value=1, max_value=4),
        plug_last=st.booleans(),
        star=st.integers(min_value=0, max_value=3),
        pair=st.booleans(),
        lone=st.booleans(),
    )
    def test_cut_sequences_on_random_maps(
        self, seed, n_switches, n_hosts, extra_links, pendants, n_steps,
        plug_last, star, pair, lone,
    ):
        try:
            net = seeded_fabric(seed, n_switches, n_hosts, extra_links, pendants, 1)
        except TopologyError:
            return
        add_odd_hosts(net, seed, 0, star, pair, lone)
        memo = DistanceMemo()
        assert_orientation_equals_fresh(net, memo)
        for step in range(n_steps):
            cut_switch_wires(net, seed + step, 1)
            assert_orientation_equals_fresh(net, memo)
        if plug_last and plug(net, random.Random(seed)):
            assert_orientation_equals_fresh(net, memo)

    @pytest.mark.parametrize(
        "build",
        [build_full_now, lambda: build_subcluster("C")],
        ids=["now", "C"],
    )
    def test_over_a_daemons_map_sequence(self, build):
        """Seeded maps keep their switch names, so a cut reaches the root
        pick as lost wires between the same names."""
        net = build()
        daemon = RemapperDaemon(net, sorted(net.hosts)[0], incremental=True)
        daemon.run_cycle()
        memo = DistanceMemo()
        assert_orientation_equals_fresh(daemon.current_map, memo)
        kept = 0
        for step in range(6):
            cut_switch_wires(net, step, 1)
            daemon.run_cycle()
            assert_orientation_equals_fresh(daemon.current_map, memo)
            # The daemon's own root memo routed exactly as a fresh pass.
            fresh = route_cycle(daemon.current_map)
            for part in ("channels", "chains", "pairs", "heads", "numbered"):
                assert getattr(daemon.current_tables, part) == getattr(fresh, part)
            if memo.fallback is None and memo.rows_run < len(memo.rows):
                kept += 1
        assert kept
        assert plug(net, random.Random(0))
        daemon.run_cycle()
        assert_orientation_equals_fresh(daemon.current_map, memo)
        assert memo.fallback is not None
