"""Unit tests for the prefix-trie incremental path evaluator."""

import pytest

from repro.simulator.collision import CircuitModel, CutThroughModel
from repro.simulator import path_eval
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import (
    IncrementalPathEvaluator,
    PathStatus,
    evaluate_route,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import TraceBusLayer
from repro.topology.delta import JOURNAL_WINDOW
from repro.topology.generators import build_ring, build_subcluster
from tests.simulator.reference_service import PureWalkProbeService, switch_probe_turns
from tests.simulator.trie_view import MemoFreeProbeService
from tests.simulator.trie_view import trie_nodes as _trie_nodes
from tests.simulator.trie_view import walk_result


@pytest.fixture()
def now_c():
    return build_subcluster("C")


PROBES = [
    (5,),
    (5, 1),
    (5, 1, -2),
    (5, 1, -2, 2),
    (5, 1, -2, 2, -1),
    (7,),
    (-3, 4),
]


class TestEvaluate:
    def test_matches_pure_function_exactly(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            got = walk_result(ev, "C-n00", turns)
            want = evaluate_route(now_c, "C-n00", turns)
            assert (got.status, got.hops, got.delivered_to) == (
                want.status,
                want.hops,
                want.delivered_to,
            )
            assert got.nodes == want.nodes
            assert list(got.traversals) == list(want.traversals)
            assert got.failed_at_turn == want.failed_at_turn

    def test_non_host_source_raises_like_pure(self, now_c):
        switch = sorted(now_c.switches)[0]
        with pytest.raises(ValueError, match="not a host"):
            walk_result(IncrementalPathEvaluator(now_c), switch, (1,))

    def test_prefix_extension_costs_one_node(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        walk_result(ev, "C-n00", (5, 1, -2))
        nodes_before = ev.stats.nodes
        walk_result(ev, "C-n00", (5, 1, -2, 2))
        assert ev.stats.nodes == nodes_before + 1


def _answer(ev, turns):
    got = walk_result(ev, "C-n00", turns)
    return got.status, got.nodes, got.delivered_to, got.failed_at_turn


def _reads(node, ends):
    """Whether this node's step, or an ancestor's, read one of ``ends``."""
    while node is not None:
        if any(end in ends for end in node.dep):
            return True
        node = node.parent
    return False


def _ends(wire):
    return {(wire.a.node, wire.a.port), (wire.b.node, wire.b.port)}


class TestInvalidation:
    def test_mid_run_cut_prunes_once_and_answers_cold(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            walk_result(ev, "C-n00", turns)
        last = evaluate_route(now_c, "C-n00", (5, 1, -2)).traversals[-1]
        wire = now_c.wire_at(last.src.node, last.src.port)
        nodes = list(_trie_nodes(ev))
        doomed = {id(n) for n in nodes if _reads(n, _ends(wire))}
        assert 0 < len(doomed) < len(nodes)
        now_c.disconnect(wire)
        cold = IncrementalPathEvaluator(now_c.copy())
        for turns in PROBES:
            assert _answer(ev, turns) == _answer(cold, turns)
        # Exactly the walks that read a changed end went; the rest are
        # the same objects, answering the re-walk.
        assert ev.stats.invalidations == 1
        assert ev.stats.nodes_dropped == len(doomed)
        survivors = {id(n) for n in _trie_nodes(ev)}
        assert {id(n) for n in nodes} - doomed <= survivors

    def test_unrelated_cut_drops_nothing(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        walk_result(ev, "C-n00", (5, 1))
        nodes = ev.stats.nodes
        # A wire the cached walk never crossed: the prune keeps every
        # node, and the re-walk is answered from the trie alone.
        path = evaluate_route(now_c, "C-n00", (5, 1))
        crossed = {t.src for t in path.traversals} | {
            t.dst for t in path.traversals
        }
        wire = next(
            w for w in now_c.wires if w.a not in crossed and w.b not in crossed
        )
        now_c.disconnect(wire)
        before = ev.stats
        walk_result(ev, "C-n00", (5, 1))
        assert ev.stats.invalidations == 1
        assert ev.stats.nodes_dropped == 0
        assert ev.stats.nodes == nodes
        assert ev.stats.misses == before.misses
        assert ev.stats.hits == before.hits + 3  # the root and two steps

    def test_epoch_moves_between_walks_prune_once(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        before = _answer(ev, (5, 1, -2))
        wire = next(iter(now_c.wires))
        doomed = sum(1 for n in _trie_nodes(ev) if _reads(n, _ends(wire)))
        now_c.disconnect(wire)
        now_c.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
        assert _answer(ev, (5, 1, -2)) == before
        assert ev.stats.invalidations == 1
        assert ev.stats.nodes_dropped == doomed

    def test_a_journal_that_cannot_answer_flushes_whole(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            walk_result(ev, "C-n00", turns)
        nodes = ev.stats.nodes
        # A wire no cached walk read: a prune would keep every node.
        read = {end for n in _trie_nodes(ev) for end in n.dep}
        wire = next(w for w in now_c.wires if not _ends(w) & read)
        for _ in range(JOURNAL_WINDOW):
            now_c.disconnect(wire)
            wire = now_c.connect(
                wire.a.node, wire.a.port, wire.b.node, wire.b.port
            )
        assert _answer(ev, PROBES[0]) == _answer(
            IncrementalPathEvaluator(now_c.copy()), PROBES[0]
        )
        assert ev.stats.invalidations == 1
        assert ev.stats.nodes_dropped == nodes

    def test_fault_reconfig_is_cache_transparent(self, now_c):
        faults = FaultModel()
        ev = IncrementalPathEvaluator(now_c)
        walk_result(ev, "C-n00", (5, 1))
        nodes = ev.stats.nodes
        assert nodes > 0
        faults.set_drop_prob(0.5)
        got = walk_result(ev, "C-n00", (5, 1))
        # Cached walks never consult the fault model (loss is drawn per
        # probe by the services), so a real probability change flushes
        # nothing and the path answer is unchanged.
        assert ev.stats.invalidations == 0
        assert ev.stats.nodes == nodes
        want = evaluate_route(now_c, "C-n00", (5, 1))
        assert (got.status, got.delivered_to) == (
            want.status,
            want.delivered_to,
        )

    def test_explicit_invalidate_clears_nodes(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        walk_result(ev, "C-n00", (5, 1, -2))
        assert ev.stats.nodes > 0
        ev.invalidate()
        assert ev.stats.nodes == 0
        assert ev.stats.invalidations == 1


class TestProbeInfo:
    @pytest.mark.parametrize(
        "collision", [CircuitModel(), CutThroughModel(slack_hops=2)]
    )
    def test_blocked_matches_collision_model(self, now_c, collision):
        ev = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            info = ev.probe_info("C-n00", turns, collision)
            path = evaluate_route(now_c, "C-n00", turns)
            assert info.status is path.status
            if path.status is PathStatus.DELIVERED:
                assert info.blocked == collision.blocked_at(path.traversals)

    def test_loopback_info_equals_switch_probe_walk(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        collision = CircuitModel()
        for turns in PROBES:
            via_loop = ev.loopback_info("C-n00", turns, collision)
            explicit = ev.probe_info(
                "C-n00", switch_probe_turns(turns), collision
            )
            assert via_loop.status is explicit.status
            assert via_loop.hops == explicit.hops
            assert via_loop.delivered_to == explicit.delivered_to
            assert via_loop.blocked == explicit.blocked


    def test_dropped_ids_are_compacted_away(self, now_c):
        """A dropped node's id is never reused, so once dropped ids outnumber
        the live ones a prune renumbers the trie; the answers stay the cold
        ones, and an answer given before still reads its own traversals."""
        ev = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            walk_result(ev, "C-n00", turns)
        held = ev.probe_info("C-n00", (5, 1, -2))
        want = evaluate_route(now_c, "C-n00", (5, 1, -2)).traversals
        wire = now_c.wire_at(want[-1].src.node, want[-1].src.port)
        first = ev._trie.cols
        for _ in range(8):
            now_c.disconnect(wire)
            for turns in PROBES:
                walk_result(ev, "C-n00", turns)
            wire = now_c.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
            for turns in PROBES:
                walk_result(ev, "C-n00", turns)
        cols = ev._trie.cols
        assert cols is not first
        assert len(cols.key) - 1 <= 2 * ev.stats.nodes
        assert ev.stats.nodes == len(list(_trie_nodes(ev)))
        cold = IncrementalPathEvaluator(now_c.copy())
        for turns in PROBES:
            assert _answer(ev, turns) == _answer(cold, turns)
        assert held.traversals == tuple(want)


class TestNodeBackstop:
    def test_max_nodes_caps_memory_but_stays_correct(self, monkeypatch):
        ring = build_ring(4, hosts_per_switch=1)
        mapper = sorted(ring.hosts)[0]
        monkeypatch.setattr(path_eval, "MAX_TRIE_NODES", 3)
        ev = IncrementalPathEvaluator(ring)
        for turns in [(1,), (1, 1), (1, 1, 1), (2,), (2, 1), (1, 2, 1)]:
            got = walk_result(ev, mapper, turns)
            want = evaluate_route(ring, mapper, turns)
            assert (got.status, got.delivered_to) == (
                want.status,
                want.delivered_to,
            )
        assert ev.stats.nodes <= 3 + 2  # cap plus the walk in flight

    def test_an_answer_from_a_flushed_walk_reads_its_traversals(self, monkeypatch):
        """The backstop flushes inside the walk; the answer still reads the
        traversals of the storage the walk ran in."""
        ring = build_ring(4, hosts_per_switch=1)
        h0 = sorted(ring.hosts)[0]
        monkeypatch.setattr(path_eval, "MAX_TRIE_NODES", 3)
        ev = IncrementalPathEvaluator(ring)
        info = ev.probe_info(h0, (-2, 1, 1, 1))
        assert ev.stats.invalidations == 1
        assert info.traversals == tuple(
            evaluate_route(ring, h0, (-2, 1, 1, 1)).traversals
        )

    @pytest.mark.parametrize("prime", ["walk", "loopback"])
    def test_cut_after_a_backstop_flush_is_seen(self, prime, monkeypatch):
        """The backstop fires inside the prefix walk, which then finishes
        on a chain detached from the roots. Nothing may keep serving that
        chain once the topology moves. The backstop flush is the epoch
        flush: it counts the nodes it drops."""
        ring = build_ring(4, hosts_per_switch=1)
        h0 = sorted(ring.hosts)[0]
        monkeypatch.setattr(path_eval, "MAX_TRIE_NODES", 3)
        ev = IncrementalPathEvaluator(ring)
        prefix = (-2, 1, 1)
        if prime == "loopback":
            ev.loopback_info(h0, prefix)
        else:
            walk_result(ev, h0, prefix)
        assert ev.stats.invalidations == 1
        assert ev.stats.nodes_dropped == 4  # the cap plus the node past it
        last = evaluate_route(ring, h0, prefix).traversals[-1]
        ring.disconnect(ring.wire_at(last.src.node, last.src.port))
        got = walk_result(ev, h0, (*prefix, -7))
        want = evaluate_route(ring, h0, (*prefix, -7))
        assert want.status is PathStatus.NO_SUCH_WIRE
        assert (got.status, got.nodes, got.failed_at_turn) == (
            want.status,
            want.nodes,
            want.failed_at_turn,
        )


def _interleaved(cls):
    """Two services on one network probe siblings of ``(5, 1)`` the way
    the mapper does (switch half, then host half on the same tuple), and
    the wire that ``(5, 1)``'s last turn crosses goes and comes back
    between them. The second service's walk catches the trie up, so the
    prune runs under the first service's memory of its last walk."""
    net = build_subcluster("C")
    h0 = "C-n00"
    traces: tuple[list, list] = ([], [])
    a, b = (
        cls(net, h0, layers=(TraceBusLayer((seen.append,)),))
        for seen in traces
    )
    last = evaluate_route(net, h0, (5, 1)).traversals[-1]
    wire = net.wire_at(last.src.node, last.src.port)
    answers = []

    def siblings(svc, prefix, turns):
        for turn in turns:
            probe = prefix + (turn,)
            answers.append((svc.probe_switch(probe), svc.probe_host(probe)))

    for cut in (True, False) * 4:
        siblings(a, (5, 1), (1, -1))
        if cut:
            net.disconnect(wire)
        else:
            wire = net.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
        siblings(b, (5,), (1, 2))
        siblings(a, (5, 1), (2, -2))
    return answers, traces, (a, b)


class TestLastWalk:
    def test_a_sibling_resumes_from_the_parent(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        ev.probe_info("C-n00", (5, 1, 1))
        before = ev.stats
        # The host half re-reads the node; the sibling takes one step.
        ev.loopback_info("C-n00", (5, 1, 1))
        ev.probe_info("C-n00", (5, 1, -1))
        after = ev.stats
        assert after.hits - before.hits == 4 + 3
        assert after.misses - before.misses == 1
        for turns in ((5, 1, 1), (5, 1, -1)):
            assert walk_result(ev, "C-n00", turns) == evaluate_route(now_c, "C-n00", turns)
        # The memory is of one source's walk.
        probe = (5, 1, 2)
        for h0 in ("C-n00", "C-n01"):
            assert walk_result(ev, h0, probe) == evaluate_route(now_c, h0, probe)

    def test_a_prune_by_another_service_drops_the_memory(self):
        got, traces, (a, b) = _interleaved(QuiescentProbeService)
        want, pure_traces, pure = _interleaved(PureWalkProbeService)
        free, _, memo_free = _interleaved(MemoFreeProbeService)
        assert got == want == free
        assert traces == pure_traces
        assert [s.stats for s in (a, b)] == [s.stats for s in pure]
        assert [s.eval_cache_stats for s in (a, b)] == [
            s.eval_cache_stats for s in memo_free
        ]
        # Every catch-up, and so every prune, ran in the second service.
        assert a.eval_cache_stats.invalidations == 0
        assert b.eval_cache_stats.invalidations == 8
        assert b.eval_cache_stats.nodes_dropped > 0
