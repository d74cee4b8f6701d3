"""Round-trip coverage for the service JSON codecs.

Two properties per document kind:

- **round-trip equality**: ``x_from_dict(json-round-trip(x_to_dict(v)))``
  rebuilds an object whose re-serialization is byte-identical to the
  first document (every ``*_to_dict`` emits sorted, JSON-native shapes,
  so doc equality is object equality without needing ``__eq__`` on every
  dataclass);
- **malformed rejection**: a payload that does not describe what it
  claims raises :class:`SerializationError`, never half-builds state.

The map under test is a real Berkeley mapping run (the session-scoped
``mapped_c`` fixture), so the network/witness shapes being
serialized are the ones production emits, not hand-rolled minimums.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.routing.compile_routes import compile_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import (
    SerializationError,
    map_result_from_dict,
    map_result_to_dict,
    probe_stats_from_dict,
    probe_stats_to_dict,
    route_tables_from_dict,
    route_tables_to_dict,
)
from repro.topology.isomorphism import match_networks
from tests.service import reference_codec


def _json_round_trip(doc: dict) -> dict:
    """Force the document through actual JSON, as the wire would."""
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def mapped_tables(request):
    result = request.getfixturevalue("mapped_c")
    orientation = orient_updown(result.network)
    paths = all_pairs_updown_paths(result.network, orientation)
    return compile_route_tables(result.network, paths)


class TestMapResultRoundTrip:
    def test_reserialization_is_identical(self, mapped_c):
        doc = map_result_to_dict(mapped_c)
        back = map_result_from_dict(_json_round_trip(doc))
        assert map_result_to_dict(back) == doc

    def test_scalar_fields_survive(self, mapped_c):
        back = map_result_from_dict(_json_round_trip(map_result_to_dict(mapped_c)))
        assert back.mapper_host == mapped_c.mapper_host
        assert back.search_depth == mapped_c.search_depth
        assert back.explorations == mapped_c.explorations
        assert back.merges == mapped_c.merges
        assert back.peak_model_nodes == mapped_c.peak_model_nodes
        assert back.seeded == mapped_c.seeded
        assert back.kept_nodes == mapped_c.kept_nodes
        assert back.seed_fallback == mapped_c.seed_fallback
        assert back.witnesses == mapped_c.witnesses
        assert back.entry_ports == mapped_c.entry_ports

    def test_network_survives_up_to_isomorphism(self, mapped_c):
        back = map_result_from_dict(_json_round_trip(map_result_to_dict(mapped_c)))
        assert back.network.n_hosts == mapped_c.network.n_hosts
        assert back.network.n_switches == mapped_c.network.n_switches
        report = match_networks(back.network, mapped_c.network)
        assert report, report.reason


class TestProbeStatsRoundTrip:
    def test_counters_survive(self, mapped_c):
        doc = probe_stats_to_dict(mapped_c.stats)
        back = probe_stats_from_dict(_json_round_trip(doc))
        assert probe_stats_to_dict(back) == doc
        assert back.total_probes == mapped_c.stats.total_probes
        assert back.elapsed_us == mapped_c.stats.elapsed_us

    def test_trace_is_opt_in(self, mapped_c):
        assert "trace" not in probe_stats_to_dict(mapped_c.stats)


class TestRouteTableRoundTrip:
    def test_single_table_reserializes_identically(self, mapped_tables):
        """A table exists on the wire only nested in its generation: its
        document and every route survive the round trip. The first host's
        routes number the generation's channels and tails first, so its
        rows read the same re-encoded as a generation of one."""
        host, table = sorted(mapped_tables.items())[0]
        doc = route_tables_to_dict(mapped_tables)
        back = route_tables_from_dict(_json_round_trip(doc))[host]
        assert route_tables_to_dict({host: back})["tables"][host] == doc["tables"][host]
        assert back.host == host
        assert set(back.routes) == set(table.routes)
        for dst, route in table.routes.items():
            got = back.routes[dst]
            assert got.src == route.src and got.dst == route.dst
            assert got.turns == route.turns
            assert got.traversals == route.traversals
            assert got.hops == route.hops

    def test_whole_generation_reserializes_identically(self, mapped_tables):
        doc = route_tables_to_dict(mapped_tables)
        back = route_tables_from_dict(_json_round_trip(doc))
        assert route_tables_to_dict(back) == doc
        assert set(back) == set(mapped_tables)

    def test_the_documented_example_is_what_the_encoder_writes(self):
        """docs/SERVICE.md's worked version-4 document: two hosts on one
        switch, one shared tail."""
        text = (Path(__file__).parents[2] / "docs" / "SERVICE.md").read_text()
        doc = json.loads(
            re.search(r"```json\n(\{\"kind\": \"route-tables\".*?)```", text, re.S).group(1)
        )
        tables = route_tables_from_dict(doc)
        assert route_tables_to_dict(tables) == doc
        assert tables["h0"].routes["h1"].turns == (3, 3)
        assert tables["h2"].routes["h1"].turns == (2, 3)
        assert tables["h0"].routes["h1"].tail is tables["h2"].routes["h1"].tail

    def test_a_decoded_generation_shares_one_object_per_channel(
        self, mapped_c, mapped_tables
    ):
        """The document lists each channel and each tail once and the
        decoder builds each once: every route crossing a wire half, or
        entering at one switch for one destination, holds the same object."""
        doc = _json_round_trip(route_tables_to_dict(mapped_tables))
        back = route_tables_from_dict(doc)
        held = [
            t
            for table in back.values()
            for route in table.routes.values()
            for t in route.traversals
        ]
        assert len(set(held)) == len({id(t) for t in held}) == len(doc["channels"])
        assert len(doc["channels"]) <= 2 * len(mapped_c.network.wires) < len(held)
        tails = [r.tail for table in back.values() for r in table.routes.values()]
        assert len(set(tails)) == len({id(t) for t in tails}) == len(doc["tails"])
        assert len(doc["tails"]) < len(tails)


class TestMalformedRejection:
    """Every decoder refuses payloads that don't describe what they claim."""

    def test_non_object_payloads(self):
        for decoder in (
            map_result_from_dict,
            probe_stats_from_dict,
            route_tables_from_dict,
        ):
            with pytest.raises(SerializationError, match="expected an object"):
                decoder([1, 2, 3])

    def test_wrong_kind_is_rejected(self, mapped_c):
        doc = map_result_to_dict(mapped_c)
        doc["kind"] = "route-table"
        with pytest.raises(SerializationError, match="wrong or missing kind"):
            map_result_from_dict(doc)

    def test_unknown_version_fails_loudly(self, mapped_c):
        doc = map_result_to_dict(mapped_c)
        doc["version"] = 999
        with pytest.raises(SerializationError, match="unsupported version"):
            map_result_from_dict(doc)

    def test_missing_field_names_the_field(self, mapped_c):
        doc = map_result_to_dict(mapped_c)
        del doc["witnesses"]
        with pytest.raises(SerializationError, match="missing field 'witnesses'"):
            map_result_from_dict(doc)

    def test_wrongly_typed_field_is_rejected(self, mapped_c):
        doc = map_result_to_dict(mapped_c)
        doc["search_depth"] = "five"
        with pytest.raises(SerializationError, match="'search_depth'"):
            map_result_from_dict(doc)

    def test_corrupt_embedded_network_is_rejected(self, mapped_c):
        doc = map_result_to_dict(mapped_c)
        doc["network"] = {"not": "a network"}
        with pytest.raises(SerializationError, match="bad network"):
            map_result_from_dict(doc)

    def test_non_integer_witness_turns_are_rejected(self, mapped_c):
        doc = map_result_to_dict(mapped_c)
        doc["witnesses"] = {"s0": [0, "left", 1]}
        with pytest.raises(SerializationError, match="turn list"):
            map_result_from_dict(doc)

    def test_boolean_masquerading_as_turn_is_rejected(self, mapped_c):
        # JSON booleans are ints in Python; a turn list of [0, true] must
        # still be rejected, not silently coerced to [0, 1].
        doc = map_result_to_dict(mapped_c)
        doc["witnesses"] = {"s0": [0, True]}
        with pytest.raises(SerializationError, match="turn list"):
            map_result_from_dict(doc)

    def test_a_document_carrying_growth_is_refused(self, mapped_c):
        """The growth trace stays in-process (Figure 8 reads it there): a
        document carrying one, as an older worker writes it, is refused
        whole, not read with the trace dropped."""
        doc = map_result_to_dict(mapped_c)
        assert "growth" not in doc and mapped_c.growth
        doc["growth"] = [
            [g.exploration, g.n_nodes, g.n_edges, g.n_frontier] for g in mapped_c.growth
        ]
        with pytest.raises(SerializationError, match=r"unknown keys \['growth'\]"):
            map_result_from_dict(_json_round_trip(doc))

    def test_a_document_missing_witnesses_under_another_key_is_refused(self, mapped_c):
        """The strict key check does not stand in for the missing-field
        one: the witnesses under a misspelt key are refused by that key,
        and under none by the field's name."""
        doc = map_result_to_dict(mapped_c)
        doc["witness"] = doc.pop("witnesses")
        with pytest.raises(SerializationError, match=r"unknown keys \['witness'\]"):
            map_result_from_dict(doc)
        del doc["witness"]
        with pytest.raises(SerializationError, match="missing field 'witnesses'"):
            map_result_from_dict(doc)

    @pytest.mark.parametrize(
        "doctor, complaint",
        [
            pytest.param(
                lambda d: d.update(search_depth=True),
                "field 'search_depth' has type bool",
                id="search-depth-is-a-bool",
            ),
            pytest.param(
                lambda d: d["stats"].update(host_probes=False),
                "probe-stats: field 'host_probes' has type bool",
                id="stats-count-is-a-bool",
            ),
            pytest.param(
                lambda d: d.update(switch_names=[[True, "x"]]),
                r"unknown keys \['switch_names'\]",
                id="carries-vertex-names",
            ),
            pytest.param(
                lambda d: d.update(profile={"x": ["7", "nan"]}),
                r"unknown keys \['profile'\]",
                id="carries-a-profile",
            ),
        ],
    )
    def test_a_map_result_is_refused_rather_than_coerced(self, mapped_c, doctor, complaint):
        """The server decodes a worker's map_result before adopting it as
        the next cycle's seed: a bool where a count belongs is refused, not
        adopted as ``True``; and a field the decoder does not read is
        refused, not carried along unchecked into the next seed."""
        doc = _json_round_trip(map_result_to_dict(mapped_c))
        doctor(doc)
        with pytest.raises(SerializationError, match=complaint):
            map_result_from_dict(doc)

    @pytest.mark.parametrize(
        "doctor, complaint",
        [
            pytest.param(
                lambda d: d.update(seeded="no"),
                "field 'seeded' has type str",
                id="a-word",
            ),
            pytest.param(
                lambda d: d.update(seeded=1),
                "field 'seeded' has type int",
                id="a-count",
            ),
            pytest.param(
                lambda d: d.update(seeded=None),
                "field 'seeded' has type NoneType",
                id="null",
            ),
            pytest.param(
                lambda d: d.pop("seeded"),
                "missing field 'seeded'",
                id="missing",
            ),
        ],
    )
    def test_seeded_is_refused_unless_a_boolean(self, mapped_c, doctor, complaint):
        """``seeded`` is a JSON boolean or the document is refused: a
        worker's ``"no"`` is not read as ``True``, nor a missing key as
        ``False``."""
        doc = _json_round_trip(map_result_to_dict(mapped_c))
        doctor(doc)
        with pytest.raises(SerializationError, match=complaint):
            map_result_from_dict(doc)

    def test_malformed_traversal_endpoint_is_rejected(self, mapped_tables):
        doc = route_tables_to_dict(mapped_tables)
        doc["channels"][0] = [["s0", 0], ["s1"]]
        with pytest.raises(SerializationError, match="port ref"):
            route_tables_from_dict(doc)

    def test_table_keyed_under_the_wrong_host_is_rejected(self, mapped_tables):
        """A table is keyed by its host, and its head must leave that host."""
        doc = route_tables_to_dict(mapped_tables)
        hosts = sorted(doc["tables"])
        doc["tables"][hosts[0]], doc["tables"][hosts[1]] = (
            doc["tables"][hosts[1]],
            doc["tables"][hosts[0]],
        )
        with pytest.raises(SerializationError, match=f"table '{hosts[0]}': head leaves"):
            route_tables_from_dict(doc)

    def test_version_1_documents_are_refused(self, mapped_tables):
        doc = route_tables_to_dict(mapped_tables)
        doc["version"] = 1
        with pytest.raises(SerializationError, match="unsupported version 1"):
            route_tables_from_dict(doc)

    def test_version_2_documents_are_refused(self, mapped_tables):
        """A real version-2 document (every route spelled out, no ``tails``)
        as the parent's encoder wrote it: one format, so the version check
        refuses it whole rather than a fallback decoder guessing at it."""
        doc = reference_codec.route_tables_to_dict(mapped_tables)
        assert doc["version"] == 2 and "tails" not in doc
        with pytest.raises(SerializationError, match="unsupported version 2"):
            route_tables_from_dict(doc)

    def test_version_3_documents_are_refused(self, mapped_tables):
        """A real version-3 document (tails spelled out with their turns,
        routes as nested ``[head, tail, first turn]`` triples) as the
        parent's encoder wrote it, refused whole by the version check."""
        doc = reference_codec.route_tables_to_dict_v3(mapped_tables)
        assert doc["version"] == 3 and "chains" not in doc
        with pytest.raises(SerializationError, match="unsupported version 3"):
            route_tables_from_dict(doc)

    @pytest.mark.parametrize(
        "doctor, complaint",
        [
            (lambda d: d.update(channels={"0": []}), "channels is not a list"),
            (lambda d: d["channels"].__setitem__(1, [["a", 0]]), "malformed channel"),
            (lambda d: d["channels"].__setitem__(1, [["a", 3], ["b", True]]), "port ref"),
            # chains: lists of channel numbers that chain
            (lambda d: d.update(chains={"0": []}), "chains is not a list"),
            (lambda d: d.pop("chains"), "chains is not a list"),
            (lambda d: d["chains"].__setitem__(0, {"1": 2}), "a chain is not a list"),
            (lambda d: d["chains"].__setitem__(0, [1, 9]), "chains: malformed index 9"),
            (lambda d: d["chains"].__setitem__(0, [-1]), "chains: malformed index -1"),
            (lambda d: d["chains"].__setitem__(0, [True]), "chains: malformed index True"),
            (lambda d: d["chains"].__setitem__(0, [1.0]), "chains: malformed index 1.0"),
            (lambda d: d["chains"].__setitem__(0, ["1"]), "chains: malformed index '1'"),
            (lambda d: d["chains"].__setitem__(0, [1, 3]), "chain 0 does not chain at 'b'"),
            (lambda d: d["chains"].__setitem__(0, [3, 1]), "chain 0 does not chain at 'q'"),
            # tails: [chain, last channel | null] pairs whose last channel
            # leaves where the chain ends
            (lambda d: d.update(tails={"0": []}), "tails is not a list"),
            (lambda d: d.pop("tails"), "tails is not a list"),
            (lambda d: d["tails"].__setitem__(0, [0]), "not a .chain, last channel. pair"),
            (lambda d: d["tails"].__setitem__(0, [0, 2, 2]), "not a .chain, last channel. pair"),
            (lambda d: d["tails"].__setitem__(0, {"0": 2}), "not a .chain, last channel. pair"),
            (lambda d: d["tails"].__setitem__(0, [2, 2]), "tails: malformed index 2"),
            (lambda d: d["tails"].__setitem__(0, [True, 2]), "tails: malformed index True"),
            (lambda d: d["tails"].__setitem__(0, [None, 2]), "tails: malformed index None"),
            (lambda d: d["tails"].__setitem__(0, [0, 4]), "tails: malformed index 4"),
            (lambda d: d["tails"].__setitem__(0, [0, -1]), "tails: malformed index -1"),
            (lambda d: d["tails"].__setitem__(0, [0, False]), "tails: malformed index False"),
            (lambda d: d["tails"].__setitem__(0, [0, "2"]), "tails: malformed index '2'"),
            (lambda d: d["tails"].__setitem__(0, [0, 1]),
             "tail 0: last channel leaves 'a', its chain ends at 'b'"),
            (lambda d: d["chains"].__setitem__(0, [1, 2]),
             "tail 0: last channel leaves 'b', its chain ends at 'h1'"),
            # a table: its head leaves its host, and heads a route exactly
            # when it has routes
            (lambda d: d["tables"].__setitem__("h0", []), "table 'h0' is malformed"),
            (lambda d: d["tables"].__setitem__(0, {"head": None, "routes": {}}),
             "table 0 is malformed"),
            (lambda d: d["tables"]["h0"].pop("head"), "table 'h0': missing field 'head'"),
            (lambda d: d["tables"]["h0"].update(head="0"), "field 'head' has type str"),
            (lambda d: d["tables"]["h0"].update(head=True), "field 'head' has type bool"),
            (lambda d: d["tables"]["h0"].update(head=0.0), "field 'head' has type float"),
            (lambda d: d["tables"]["h0"].update(head=9), "table 'h0': malformed index 9"),
            (lambda d: d["tables"]["h0"].update(head=-1), "table 'h0': malformed index -1"),
            (lambda d: d["tables"]["h0"].update(head=None), "head None over 1 routes"),
            (lambda d: d["tables"]["h0"].update(routes={}), "head 0 over 0 routes"),
            (lambda d: d["tables"]["h0"].update(head=1), "table 'h0': head leaves 'a'"),
            (lambda d: d["tables"].update(h9=d["tables"]["h0"]), "table 'h9': head leaves 'h0'"),
            (lambda d: d["tables"]["h0"].pop("routes"), "missing field 'routes'"),
            (lambda d: d["tables"]["h0"].update(routes=[0]), "field 'routes' has type list"),
            # a route: a tail number
            (lambda d: d["routes"].update(h1="0"), "table 'h0': malformed index '0'"),
            (lambda d: d["routes"].update(h1=False), "malformed index False"),
            (lambda d: d["routes"].update(h1=0.0), "malformed index 0.0"),
            (lambda d: d["routes"].update(h1=None), "malformed index None"),
            (lambda d: d["routes"].update(h1=[0]), r"malformed index \[0\]"),
            (lambda d: d["routes"].update(h1=4), "malformed index 4"),
            (lambda d: d["routes"].update(h1=-1), "malformed index -1"),
            # The three lies sharing makes possible: a tail that starts at
            # another switch, one that ends at another host, and the empty
            # tail under a head that does not land on the destination.
            (lambda d: d["routes"].update(h1=1),
             "route 'h0' -> 'h1': tail 1 enters at 'b', not 'a'"),
            (lambda d: d["routes"].update(h1=2), "route 'h0' -> 'h1': tail 2 ends at 'b'"),
            (lambda d: d["routes"].update(h1=3), "route 'h0' -> 'h1': tail 3 ends at 'a'"),
            (lambda d: d["routes"].update(b=0), "route 'h0' -> 'b': tail 0 ends at 'h1'"),
        ],
    )
    def test_route_whose_turns_and_channels_disagree_is_rejected(
        self, doctor, complaint
    ):
        """h0 -> a (in 0, out 3) -> b (in 1, out 3) -> h1, plus a stray
        channel that meets nothing, two chains (a -> b, and the empty one)
        and three tails no honest route to h1 from h0 could name: one
        entered at b, one that stops at b, an empty one. No turn is
        written, so none can disagree: every one is derived from the ports,
        and each place two channels meet is checked once — inside a chain,
        where a tail's last channel follows its chain, and where a route's
        tail follows its table's head. Undoctored, the generation decodes."""
        doc = {
            "kind": "route-tables",
            "version": 4,
            "channels": [
                [["h0", 0], ["a", 0]],
                [["a", 3], ["b", 1]],
                [["b", 3], ["h1", 0]],
                [["zzz", 5], ["q", 2]],
            ],
            "chains": [[1], []],
            "tails": [[0, 2], [1, 2], [1, 1], [1, None]],
            "tables": {"h0": {"head": 0, "routes": {"h1": 0}}},
        }
        doc["routes"] = doc["tables"]["h0"]["routes"]  # a shortcut for the doctors

        def generation():
            return {key: value for key, value in doc.items() if key != "routes"}

        route = route_tables_from_dict(generation())["h0"].routes["h1"]
        assert route.turns == (3, 2) and route.hops == 3
        doctor(doc)
        with pytest.raises(SerializationError, match=complaint):
            route_tables_from_dict(generation())
