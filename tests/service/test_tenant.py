"""A tenant spec's topology stanza: the generator kind table plus
``explicit``, with the spec's seed as the random kind's default."""

import json

import pytest

from repro.cli import main
from repro.service.serialize import SerializationError
from repro.service.tenant import TOPOLOGY_KINDS, TenantSpec, TenantState, build_tenant_network
from repro.topology.generators import (
    NAMED_TOPOLOGIES,
    build_ring,
    build_three_tier_fat_tree,
    random_san,
)
from repro.topology.serialize import network_to_dict
from tests.topology.reference_isomorphism import networks_equal


def test_tenant_kinds_are_the_generator_table_plus_explicit():
    assert TOPOLOGY_KINDS == (*NAMED_TOPOLOGIES, "explicit")


def test_random_tenant_is_seeded_by_the_spec_unless_params_say_otherwise():
    def expected(seed):
        return random_san(n_switches=4, n_hosts=4, extra_links=2, seed=seed)

    spec = TenantSpec(name="t", topology="random", seed=5)
    assert networks_equal(build_tenant_network(spec), expected(5))
    spec = TenantSpec(name="t", topology="random", seed=5, params={"seed": 9})
    assert networks_equal(build_tenant_network(spec), expected(9))


def test_fat_tree_tenant_reads_k_and_hosts_per_edge():
    spec = TenantSpec(
        name="t", topology="fat-tree-3tier", params={"k": 4, "hosts_per_edge": 1}
    )
    assert networks_equal(
        build_tenant_network(spec), build_three_tier_fat_tree(4, hosts_per_edge=1)
    )


def test_explicit_tenant_carries_its_network_inline():
    net = build_ring(3)
    spec = TenantSpec(
        name="t", topology="explicit", params={"network": network_to_dict(net)}
    )
    assert networks_equal(build_tenant_network(spec), net)
    with pytest.raises(SerializationError, match="requires params"):
        build_tenant_network(TenantSpec(name="t", topology="explicit"))


SPEC = {"name": "t", "topology": "ring", "params": {"size": 4}}


@pytest.mark.parametrize("extra", [
    {"drop_probability": 0.3},  # a misspelling must not load fault-free
    {"incremental": True},  # a key no spec has had since the seed was always planned
])
def test_from_dict_refuses_an_unknown_key(extra):
    with pytest.raises(SerializationError, match="unknown keys"):
        TenantSpec.from_dict({**SPEC, **extra})


@pytest.mark.parametrize("topology, params", [
    ("ring", {"sise": 8}),  # a misspelling must not load the default ring
    ("ring", {"size": 8, "k": 4}),  # a parameter of another kind
    ("now-c", {"size": 8}),  # the NOW subclusters read none
    ("explicit", {"network": {}, "size": 8}),  # an inline document reads only `network`
])
def test_from_dict_refuses_a_param_the_topology_does_not_read(topology, params):
    with pytest.raises(SerializationError, match=f"topology '{topology}' reads no params"):
        TenantSpec.from_dict({**SPEC, "topology": topology, "params": params})


@pytest.mark.parametrize("key, value", [("size", "x"), ("hosts_per_switch", [1])])
def test_from_dict_refuses_a_param_value_that_will_not_cast(key, value):
    with pytest.raises(SerializationError, match=f"parameter '{key}'"):
        TenantSpec.from_dict({**SPEC, "params": {key: value}})


def test_serve_config_with_a_misspelled_param_fails_at_load(tmp_path, capsys):
    config = tmp_path / "tenants.json"
    config.write_text(json.dumps([{**SPEC, "params": {"sise": 8}}]))
    assert main(["serve", "--config", str(config), "--burst", "1", "--workers", "1"]) == 2
    assert "reads no params ['sise']" in capsys.readouterr().err


@pytest.mark.parametrize("mapper", [5, ["ring-n000"], True])
def test_from_dict_refuses_a_mapper_that_is_not_a_string(mapper):
    with pytest.raises(SerializationError, match="'mapper' is not a string"):
        TenantSpec.from_dict({**SPEC, "mapper": mapper})


@pytest.mark.parametrize("seed", [True, 2.9, "7", None])
def test_from_dict_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(SerializationError, match="'seed' is not an integer"):
        TenantSpec.from_dict({**SPEC, "seed": seed})


@pytest.mark.parametrize("key", ["drop_prob", "corrupt_prob"])
@pytest.mark.parametrize("value", ["0.3", True, None])
def test_from_dict_refuses_a_probability_that_is_not_a_number(key, value):
    with pytest.raises(SerializationError, match=f"'{key}' is not a number"):
        TenantSpec.from_dict({**SPEC, key: value})


def test_from_dict_keeps_every_field_it_accepts():
    spec = TenantSpec.from_dict(
        {**SPEC, "mapper": "ring-n001", "seed": 7, "drop_prob": 0, "corrupt_prob": 0.25}
    )
    assert (spec.mapper, spec.seed, spec.drop_prob, spec.corrupt_prob) == ("ring-n001", 7, 0.0, 0.25)
    assert type(spec.drop_prob) is float


def test_a_tenant_refuses_a_mapper_that_is_not_a_host_of_its_fabric():
    for mapper in ("nohost", "ring-s0"):
        with pytest.raises(SerializationError, match="not a host of its fabric"):
            TenantState(TenantSpec.from_dict({**SPEC, "mapper": mapper}))
    assert TenantState(TenantSpec.from_dict({**SPEC, "mapper": "ring-n002"})).mapper_host() == "ring-n002"


def test_serve_config_with_a_foreign_mapper_fails_at_load(tmp_path, capsys):
    config = tmp_path / "tenants.json"
    config.write_text(json.dumps([{**SPEC, "mapper": "nohost"}]))
    assert main(["serve", "--config", str(config), "--burst", "1", "--workers", "1"]) == 2
    assert "not a host of its fabric" in capsys.readouterr().err
