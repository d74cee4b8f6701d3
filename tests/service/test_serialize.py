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
``mapped_c`` fixture), so the network/witness/growth shapes being
serialized are the ones production emits, not hand-rolled minimums.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.core.instrumentation import PhaseProfile
from repro.routing.compile_routes import compile_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import (
    SerializationError,
    map_result_from_dict,
    map_result_to_dict,
    probe_stats_from_dict,
    probe_stats_to_dict,
    route_table_from_dict,
    route_table_to_dict,
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
        assert back.growth == mapped_c.growth
        assert back.switch_names == mapped_c.switch_names
        assert back.witnesses == mapped_c.witnesses
        assert back.entry_ports == mapped_c.entry_ports

    def test_network_survives_up_to_isomorphism(self, mapped_c):
        back = map_result_from_dict(_json_round_trip(map_result_to_dict(mapped_c)))
        assert back.network.n_hosts == mapped_c.network.n_hosts
        assert back.network.n_switches == mapped_c.network.n_switches
        report = match_networks(back.network, mapped_c.network)
        assert report, report.reason

    def test_profile_rows_survive(self, mapped_c):
        profiled = dataclasses.replace(
            mapped_c,
            profile=PhaseProfile(phases={"explore": (7, 0.125), "probe": (31, 0.5)}),
        )
        back = map_result_from_dict(_json_round_trip(map_result_to_dict(profiled)))
        assert back.profile is not None
        assert back.profile.phases == profiled.profile.phases


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
        host, table = sorted(mapped_tables.items())[0]
        doc = route_table_to_dict(table)
        back = route_table_from_dict(_json_round_trip(doc))
        assert route_table_to_dict(back) == doc
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
        """docs/SERVICE.md's worked version-3 document: two hosts on one
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
        single = route_table_to_dict(sorted(mapped_tables.values(), key=lambda t: t.host)[0])
        assert len(single["channels"]) < len(doc["channels"])


class TestMalformedRejection:
    """Every decoder refuses payloads that don't describe what they claim."""

    def test_non_object_payloads(self):
        for decoder in (
            map_result_from_dict,
            probe_stats_from_dict,
            route_table_from_dict,
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

    def test_malformed_growth_sample_is_rejected(self, mapped_c):
        doc = map_result_to_dict(mapped_c)
        doc["growth"] = [[1, 2, 3]]  # four-tuple expected
        with pytest.raises(SerializationError, match="growth sample"):
            map_result_from_dict(doc)

    def test_malformed_traversal_endpoint_is_rejected(self, mapped_tables):
        doc = route_table_to_dict(sorted(mapped_tables.values(), key=lambda t: t.host)[0])
        doc["channels"][0] = [["s0", 0], ["s1"]]
        with pytest.raises(SerializationError, match="port ref"):
            route_table_from_dict(doc)

    def test_table_keyed_under_the_wrong_host_is_rejected(self, mapped_tables):
        doc = route_tables_to_dict(mapped_tables)
        hosts = sorted(doc["tables"])
        doc["tables"][hosts[0]], doc["tables"][hosts[1]] = (
            doc["tables"][hosts[1]],
            doc["tables"][hosts[0]],
        )
        with pytest.raises(SerializationError, match="claims host"):
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
        single = reference_codec.route_table_to_dict(mapped_tables[min(mapped_tables)])
        with pytest.raises(SerializationError, match="unsupported version 2"):
            route_table_from_dict(single)

    @pytest.mark.parametrize(
        "doctor, complaint",
        [
            (lambda d: d.update(channels={"0": []}), "channels is not a list"),
            (lambda d: d["channels"].__setitem__(1, [["a", 0]]), "malformed channel"),
            (lambda d: d.update(tails={"0": []}), "tails is not a list"),
            (lambda d: d.pop("tails"), "tails is not a list"),
            (lambda d: d["tails"].__setitem__(0, [[1, 2]]), "malformed tail 0"),
            (lambda d: d["tails"].__setitem__(0, {"channels": [1, 2], "turns": [2]}),
             "malformed tail 0"),
            (lambda d: d["tails"][0].__setitem__(0, {"1": 2}), "tail 0: channels is not a list"),
            (lambda d: d["tails"][0].__setitem__(0, [1, 9]), "tail 0: malformed channel index 9"),
            (lambda d: d["tails"][0].__setitem__(0, [-1, 2]), "channel index -1"),
            (lambda d: d["tails"][0].__setitem__(0, [True, 2]), "channel index True"),
            (lambda d: d["tails"][0].__setitem__(0, [1.0, 2]), "channel index 1.0"),
            (lambda d: d["tails"][0].__setitem__(0, ["1", 2]), "channel index '1'"),
            (lambda d: d["tails"][0].__setitem__(1, [True]), "tail 0 is not a turn list"),
            (lambda d: d["tails"][0].__setitem__(1, [2.0]), "tail 0 is not a turn list"),
            (lambda d: d["tails"][0].__setitem__(1, None), "tail 0 is not a turn list"),
            # A tail's turns and channels must tell one story...
            (lambda d: d["tails"].__setitem__(0, [[], [7]]), "1 turns over 0 channels"),
            (lambda d: d["tails"][0].__setitem__(1, []), "0 turns over 2 channels"),
            (lambda d: d["tails"][0].__setitem__(1, [2, 2]), "2 turns over 2 channels"),
            (lambda d: d["tails"][0].__setitem__(0, [1, 3]), "tail 0: .* disagree at 'b'"),
            (lambda d: d["tails"][0].__setitem__(1, [1]), "tail 0: .* disagree at 'b'"),
            # ...and so must a route at the one junction the tail cannot see.
            (lambda d: d["routes"].update(h1={"turns": [3, 2], "channels": [0, 1, 2]}),
             "not a .head, tail, first turn. triple"),
            (lambda d: d["routes"].update(h1=[0, 0]), "not a .head, tail, first turn. triple"),
            (lambda d: d["routes"].update(h1=[0, 0, 3, 2]), "first turn. triple"),
            (lambda d: d["routes"].update(h1=[9, 0, 3]), "malformed channel index 9"),
            (lambda d: d["routes"].update(h1=[-1, 0, 3]), "malformed channel index -1"),
            (lambda d: d["routes"].update(h1=[False, 0, 3]), "channel index False"),
            (lambda d: d["routes"].update(h1=[0.0, 0, 3]), "channel index 0.0"),
            (lambda d: d["routes"].update(h1=["0", 0, 3]), "channel index '0'"),
            (lambda d: d["routes"].update(h1=[0, 4, 3]), "malformed tail index 4"),
            (lambda d: d["routes"].update(h1=[0, -1, 3]), "malformed tail index -1"),
            (lambda d: d["routes"].update(h1=[0, False, 3]), "tail index False"),
            (lambda d: d["routes"].update(h1=[0, [0], 3]), "tail index .0."),
            (lambda d: d["routes"].update(h1=[0, 0, True]), "malformed first turn True"),
            (lambda d: d["routes"].update(h1=[0, 0, 3.0]), "malformed first turn 3.0"),
            (lambda d: d["routes"].update(h1=[0, 0, "3"]), "malformed first turn '3'"),
            (lambda d: d["routes"].update(h1=[0, 0, None]), "malformed first turn None"),
            (lambda d: d["routes"].update(h1=[0, 3, 3]), "first turn 3 over an empty tail"),
            (lambda d: d["routes"].update(h1=[0, 3, None]), "last channel enters 'a'"),
            (lambda d: d["routes"].update(h1=[1, 0, 3]), "first channel leaves 'a'"),
            # The three lies sharing makes possible: a tail that starts at
            # another switch, one that ends at another host, and a first
            # turn that is not the one the two channels make.
            (lambda d: d["routes"].update(h1=[0, 1, 3]), "route 'h0' -> 'h1': .* disagree at 'a'"),
            (lambda d: d["routes"].update(h1=[0, 2, 3]), "last channel enters 'b'"),
            (lambda d: d["routes"].update(h1=[0, 0, 2]), "route 'h0' -> 'h1': .* disagree at 'a'"),
        ],
    )
    def test_route_whose_turns_and_channels_disagree_is_rejected(
        self, doctor, complaint
    ):
        """h0 -> a (in 0, out 3) -> b (in 1, out 3) -> h1, plus a stray
        channel that meets nothing and three tails no honest route to h1
        from h0 could name: one entered at b, one that stops at b, an empty
        one. Undoctored, the document decodes."""
        doc = {
            "kind": "route-table",
            "version": 3,
            "host": "h0",
            "channels": [
                [["h0", 0], ["a", 0]],
                [["a", 3], ["b", 1]],
                [["b", 3], ["h1", 0]],
                [["zzz", 5], ["q", 2]],
            ],
            "tails": [[[1, 2], [2]], [[2], []], [[1], []], [[], []]],
            "routes": {"h1": [0, 0, 3]},
        }
        route = route_table_from_dict(doc).routes["h1"]
        assert route.turns == (3, 2) and route.hops == 3
        doctor(doc)
        with pytest.raises(SerializationError, match=complaint):
            route_table_from_dict(doc)
        with pytest.raises(SerializationError, match=complaint):
            route_tables_from_dict(
                {
                    "kind": "route-tables",
                    "version": 3,
                    "channels": doc.get("channels"),
                    "tails": doc.get("tails"),
                    "tables": {"h0": doc},
                }
            )
