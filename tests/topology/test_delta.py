"""Delta-journal unit tests: the contract every incremental consumer
leans on (see docs/INCREMENTAL.md).

The fault-side journal is covered in tests/simulator/test_faults.py; this
module pins the primitives (`Delta`, `DeltaJournal`) and the topology-side
journaling through `Network.affected_since`.
"""

from repro.topology.delta import (
    Delta,
    DeltaJournal,
    EMPTY_DELTA,
    JOURNAL_WINDOW,
    merge_deltas,
)
from repro.topology.model import Network


def endpoints(delta: Delta) -> frozenset:
    """Every end touched in either direction (the invalidation keyset)."""
    return delta.removed | delta.added


def window_base(journal: DeltaJournal) -> int:
    """The oldest epoch :meth:`DeltaJournal.since` can still answer for."""
    return journal._base


def _cut_ports(journal: DeltaJournal, n: int) -> None:
    """Journal ``n`` bumps, the ``p``-th cutting ``("s0", p)``."""
    for port in range(n):
        journal.record(Delta(removed=frozenset({("s0", port)})))


def _net() -> Network:
    net = Network()
    net.add_switch("s0", radix=4)
    net.add_switch("s1", radix=4)
    net.add_host("h0")
    net.connect("h0", 0, "s0", 0)
    net.connect("s0", 1, "s1", 1)
    return net


class TestDelta:
    def test_empty_and_endpoints(self):
        assert EMPTY_DELTA.empty
        d = Delta(removed=frozenset({("s0", 1)}), added=frozenset({("s1", 2)}))
        assert not d.empty
        assert endpoints(d) == {("s0", 1), ("s1", 2)}

    def test_merge_unions_both_directions(self):
        """A remove-then-re-add keeps the end in both sets: a consumer from
        before the pair must still re-derive anything that touched it."""
        cut = Delta(removed=frozenset({("s0", 1), ("s1", 1)}))
        plug = Delta(added=frozenset({("s0", 1), ("s1", 1)}))
        merged = cut.merge(plug)
        assert merged.removed == merged.added == {("s0", 1), ("s1", 1)}

    def test_merge_short_circuits_on_empty(self):
        d = Delta(removed=frozenset({("s0", 1)}))
        assert d.merge(EMPTY_DELTA) is d
        assert EMPTY_DELTA.merge(d) is d

    def test_merge_deltas_of_nothing_is_no_change(self):
        assert merge_deltas([]) is EMPTY_DELTA


class TestDeltaJournal:
    def test_since_merges_exactly_the_gap(self):
        journal = DeltaJournal()
        a = Delta(removed=frozenset({("s0", 1)}))
        b = Delta(added=frozenset({("s1", 2)}))
        journal.record(a)
        journal.record(b)
        assert endpoints(journal.since(0, 2)) == {("s0", 1), ("s1", 2)}
        assert journal.since(1, 2) == b
        assert journal.since(2, 2) is EMPTY_DELTA

    def test_window_eviction_advances_base_and_answers_none(self):
        journal = DeltaJournal()
        _cut_ports(journal, JOURNAL_WINDOW + 1)
        assert window_base(journal) == 1
        assert journal.since(0, JOURNAL_WINDOW + 1) is None  # fell out of the window
        assert journal.since(1, JOURNAL_WINDOW + 1).removed == {
            ("s0", p) for p in range(1, JOURNAL_WINDOW + 1)
        }

    def test_future_and_unjournaled_epochs_answer_none(self):
        journal = DeltaJournal()
        journal.record(EMPTY_DELTA)
        assert journal.since(5, 1) is None
        # A gap between journal length and the owner's counter means some
        # mutation bypassed the journal: the only sound answer is None.
        assert journal.since(0, 2) is None


class TestDeltaJournalBoundaries:
    """Edge-of-window regressions for `since`.

    PR 8 made seeded remapping lean on these exact boundaries (a
    one-entry drift silently turns every incremental cycle into a full
    rebuild, or worse, under-invalidates); this class pins each edge so
    an off-by-one in `record`'s eviction or `since`'s range check fails a
    named test instead of a chaos campaign.
    """

    def test_epoch_exactly_at_window_base_merges_the_full_window(self):
        journal = DeltaJournal()
        _cut_ports(journal, JOURNAL_WINDOW + 1)
        # The window holds epochs 1->2 .. W->W+1; base == 1.
        assert window_base(journal) == 1
        answer = journal.since(window_base(journal), JOURNAL_WINDOW + 1)
        assert answer is not None
        assert answer.removed == {("s0", p) for p in range(1, JOURNAL_WINDOW + 1)}

    def test_epoch_one_below_window_base_answers_none(self):
        journal = DeltaJournal()
        _cut_ports(journal, JOURNAL_WINDOW + 2)
        assert window_base(journal) == 2
        assert journal.since(window_base(journal) - 1, JOURNAL_WINDOW + 2) is None
        assert journal.since(window_base(journal), JOURNAL_WINDOW + 2) is not None

    def test_current_epoch_equality_wins_even_outside_the_window(self):
        """epoch == current_epoch means "nothing changed since you looked";
        that answer needs no journal entries at all, even after eviction
        has advanced the window past every recorded epoch."""
        journal = DeltaJournal()
        _cut_ports(journal, JOURNAL_WINDOW + 4)
        assert journal.since(JOURNAL_WINDOW + 4, JOURNAL_WINDOW + 4) is EMPTY_DELTA

    def test_single_entry_window_answers_only_the_last_bump(self):
        journal = DeltaJournal()
        _cut_ports(journal, 2 * JOURNAL_WINDOW)
        assert window_base(journal) == JOURNAL_WINDOW
        assert journal.since(JOURNAL_WINDOW - 1, 2 * JOURNAL_WINDOW) is None
        assert journal.since(2 * JOURNAL_WINDOW - 1, 2 * JOURNAL_WINDOW).removed == {
            ("s0", 2 * JOURNAL_WINDOW - 1)
        }

    def test_negative_and_reversed_epochs_answer_none(self):
        journal = DeltaJournal()
        journal.record(EMPTY_DELTA)
        assert journal.since(-1, 1) is None
        assert journal.since(1, 0) is None  # caller confusion, not a window

    def test_journal_ahead_of_the_owner_counter_answers_none(self):
        """len(entries) disagreeing with current_epoch in either direction
        means a bump bypassed the journal (or was double-journaled); both
        drifts must be unanswerable, not just the under-journaled one."""
        journal = DeltaJournal()
        journal.record(Delta(removed=frozenset({("s0", 0)})))
        journal.record(Delta(removed=frozenset({("s0", 1)})))
        assert journal.since(0, 1) is None  # journal ahead of counter
        assert journal.since(0, 3) is None  # journal behind the counter
        assert journal.since(0, 2) is not None  # exactly aligned


class TestNetworkJournal:
    def test_disconnect_journals_both_ends_as_removed(self):
        net = _net()
        epoch = net.topology_epoch
        net.disconnect(net.wire_at("s0", 1))
        delta = net.affected_since(epoch)
        assert delta.removed == {("s0", 1), ("s1", 1)}
        assert not delta.added

    def test_connect_journals_both_ends_as_added(self):
        net = _net()
        epoch = net.topology_epoch
        net.connect("s0", 2, "s1", 2)
        delta = net.affected_since(epoch)
        assert delta.added == {("s0", 2), ("s1", 2)}
        assert not delta.removed

    def test_remove_node_journals_every_severed_wire(self):
        net = _net()
        epoch = net.topology_epoch
        net.remove_node("s1")
        delta = net.affected_since(epoch)
        assert {("s0", 1), ("s1", 1)} <= delta.removed

    def test_node_additions_journal_empty(self):
        """Adding an unwired node changes no wire end: consumers holding
        cached walks keep everything."""
        net = _net()
        epoch = net.topology_epoch
        net.add_switch("s2", radix=4)
        net.add_host("h1")
        delta = net.affected_since(epoch)
        assert delta is not None and delta.empty

    def test_quiet_network_answers_empty(self):
        net = _net()
        assert net.affected_since(net.topology_epoch) is EMPTY_DELTA

    def test_cut_then_replug_reports_the_end_in_both_sets(self):
        net = _net()
        epoch = net.topology_epoch
        wire = net.wire_at("s0", 1)
        ends = (wire.a, wire.b)
        net.disconnect(wire)
        net.connect(ends[0].node, ends[0].port, ends[1].node, ends[1].port)
        delta = net.affected_since(epoch)
        assert delta.removed == delta.added == {("s0", 1), ("s1", 1)}
