"""A tenant spec's topology stanza: the generator kind table plus
``explicit``, with the spec's seed as the random kind's default."""

import pytest

from repro.service.serialize import SerializationError
from repro.service.tenant import TOPOLOGY_KINDS, TenantSpec, build_tenant_network
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
