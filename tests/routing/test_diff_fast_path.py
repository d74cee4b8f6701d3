"""``diff_route_tables`` with its fast path equals the route-by-route
oracle (``reference_incremental.py``) over generation pairs.

The fast path (docs/ALGORITHM.md §6, step 4): a host whose numbered row
equals its old row, and whose channel enters by the same port, differs
only on the routes whose tail's turn key moved. The pairs drawn here, on
random fabrics before and after one hypothesis edit:

- equal rows with moved keys: a cut, the generation patched through a
  ``RouteMemo`` (moved tails inherited) and compiled whole (moved tails
  read key by key);
- a host whose in-port changed: a host moved to another port of its
  switch;
- added and withdrawn hosts: a host plugged in, or stranded;
- two independently numbered generations of one map: each generation
  against a copy with its channels and chains (and, in half the draws,
  its tails) renumbered, both ways round;
- a patched generation against the one before its basis, whose rows are
  equal too.

Every pair is also diffed as plain dicts of its tables (numbered by
``as_generation``). Hand-run mutants, each failing this suite:

- the fast path ignores the in-port;
- keys compared by number across renumbered generations (the moved
  tails read off the tails' chain and last-channel numbers);
- the inherited moved tails used whatever generation the diff is
  against;
- the fast path taken when a row has the old destinations, whatever
  their tail numbers.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.compile_routes import RouteGeneration, RouteMemo, RouteTable, compile_route_tables
from repro.routing.incremental import diff_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from tests.routing.reference_incremental import reference_diff_route_tables
from tests.routing.test_route_memo import Fabric, _fabric


def renumbered(generation: RouteGeneration, seed: int, tails: bool) -> RouteGeneration:
    """The same routes with channels and chains — and tails, when
    ``tails`` — numbered in a shuffled order."""
    rng = random.Random(seed)

    def shuffled(n: int) -> list[int]:
        order = list(range(n))
        rng.shuffle(order)
        return order

    to_channel = shuffled(len(generation.channels))
    to_chain = shuffled(len(generation.chains))
    to_tail = shuffled(len(generation.pairs)) if tails else list(range(len(generation.pairs)))
    channels: list = [None] * len(to_channel)
    for old, new in enumerate(to_channel):
        channels[new] = generation.channels[old]
    chains: list = [None] * len(to_chain)
    for old, (row, turns) in enumerate(generation.chains):
        chains[to_chain[old]] = (tuple(to_channel[n] for n in row), turns)
    pairs: list = [None] * len(to_tail)
    for old, (chain, last) in enumerate(generation.pairs):
        pairs[to_tail[old]] = (to_chain[chain], None if last is None else to_channel[last])
    heads = {host: to_channel[n] for host, n in generation.heads.items()}
    numbered = {
        host: {dst: to_tail[n] for dst, n in row.items()}
        for host, row in generation.numbered.items()
    }
    return RouteGeneration(channels, chains, pairs, heads, numbered)


def _plain(tables):
    if tables is None:
        return None
    return {host: RouteTable(host, dict(table.routes)) for host, table in tables.items()}


def assert_diff_agrees(old, new) -> None:
    for before, after in ((old, new), (_plain(old), _plain(new))):
        got = diff_route_tables(before, after)
        assert list(got.items()) == list(reference_diff_route_tables(before, after).items())


def _route(net, memo: RouteMemo):
    """The patched (or whole) generation through ``memo``, committed, and
    a full compile of the same paths; None when nothing orients."""
    try:
        paths = all_pairs_updown_paths(net, orient_updown(net))
    except ValueError:
        return None
    generation = compile_route_tables(net, paths, memo=memo)
    memo.commit(generation)
    return generation, compile_route_tables(net, paths)


_edits = st.lists(
    st.tuples(
        st.sampled_from(["cut", "cut", "heal", "port", "plug", "move", "add", "strand"]),
        st.integers(min_value=0, max_value=10**4),
    ),
    min_size=2,
    max_size=2,
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_switches=st.integers(min_value=2, max_value=7),
    n_hosts=st.integers(min_value=2, max_value=9),
    extra=st.integers(min_value=0, max_value=5),
    edits=_edits,
    whole_tails=st.booleans(),
)
def test_diff_equals_the_route_by_route_oracle(seed, n_switches, n_hosts, extra, edits, whole_tails):
    net = _fabric(seed, n_switches, n_hosts, extra, False)
    fabric, memo = Fabric(net), RouteMemo()
    routed = [_route(net, memo)]
    for kind, at in edits:
        fabric.apply(kind, at)
        routed.append(_route(net, memo))
    generations = [pair for pair in routed if pair is not None]
    for (old, old_whole), (new, new_whole) in zip(generations, generations[1:]):
        for before in (old, old_whole, None):
            for after in (new, new_whole):
                assert_diff_agrees(before, after)
        assert_diff_agrees(new, renumbered(new, seed, whole_tails))
        assert_diff_agrees(renumbered(new, seed, whole_tails), new)
        assert_diff_agrees(old, renumbered(new, seed, whole_tails))
    if len(generations) == 3:
        assert_diff_agrees(generations[0][0], generations[2][0])
