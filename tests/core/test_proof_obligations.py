"""The proof's lemmas, checked against ground truth.

The correspondence function ``C`` (Definition 4) maps each model vertex to
the actual node its creation probe terminated at. Tests can compute ``C``
directly — evaluate the vertex's probe string on the actual network — and
then check the paper's invariants:

- **Lemma 2 (labeler soundness)**: if two vertices carry the same label,
  they correspond to the same actual node, and their indexing offsets are
  equal. We verify both halves, reconstructing the indexing offset of a
  vertex as (actual entry port) − (relative index of the entry edge).
- **Completeness (Theorem 1 direction 1)**: every core node and wire is
  represented at least once in ``M``.
- **Lemma 3 flavor**: replicates with host evidence end up labeled the
  same — checked globally: the number of final labels equals the number of
  distinct corresponding actual nodes in the core.
"""

import pytest

from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import core_network, recommended_search_depth
from repro.topology.generators import random_san
from repro.topology.model import TopologyError
from tests.core.reference_labeled import LabeledMapper


def _correspondence(net, mapper_host, vertex):
    """C(v): the actual node vertex v's probe string terminates at.

    For switch vertices the probe string strands inside the switch; for
    host vertices it delivers. The root pair (empty string) corresponds to
    the mapper host's attachment.
    """
    if not vertex.probe_string:
        if vertex.kind == "host":
            return mapper_host, 0
        attach = net.host_attachment(mapper_host)
        return attach.node, attach.port
    result = evaluate_route(net, mapper_host, vertex.probe_string)
    assert result.status in (PathStatus.DELIVERED, PathStatus.STRANDED)
    terminal = result.traversals[-1].dst
    return terminal.node, terminal.port


def _run_labeled(net, mapper_host):
    depth = recommended_search_depth(net, mapper_host)
    svc = QuiescentProbeService(net, mapper_host)
    mapper = LabeledMapper(svc, search_depth=depth, host_first=False)
    result = mapper.run()
    return mapper, result


FIXTURES = ["tiny_net", "two_switch_net", "ring_net", "bridge_net"]


class TestLemma2:
    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_same_label_implies_same_actual_node(self, fixture_name, request):
        net = request.getfixturevalue(fixture_name)
        mapper, _ = _run_labeled(net, "h0")
        by_label = {}
        for v in mapper._vertices:
            actual_node, _port = _correspondence(net, "h0", v)
            prev = by_label.setdefault(v.label, actual_node)
            assert prev == actual_node, (
                f"label {v.label!r} covers {prev} and {actual_node}"
            )

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_same_label_implies_same_indexing_offset(self, fixture_name, request):
        """Definition 1: offset = actual port − relative index, invariant
        across all vertices sharing a label after re-normalization."""
        net = request.getfixturevalue(fixture_name)
        mapper, _ = _run_labeled(net, "h0")
        offsets_by_label = {}
        for v in mapper._vertices:
            if v.kind != "switch" or not v.neighbors:
                continue
            _node, entry_port = _correspondence(net, "h0", v)
            # v was entered at `entry_port`; its entry edge sits at some
            # relative index i0 (0 before shifts). Find the edge pointing
            # back toward the parent (shortest probe string among nbrs).
            entry_idx = min(
                v.neighbors,
                key=lambda i: len(v.neighbors[i][0].probe_string),
            )
            offset = entry_port - entry_idx
            prev = offsets_by_label.setdefault(v.label, offset)
            assert prev == offset, (
                f"label {v.label!r}: offsets {prev} vs {offset}"
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_lemma2_on_random_networks(self, seed):
        try:
            net = random_san(
                n_switches=5, n_hosts=4, extra_links=2, seed=seed
            )
        except TopologyError:
            return
        mapper_host = sorted(net.hosts)[0]
        mapper, _ = _run_labeled(net, mapper_host)
        by_label = {}
        for v in mapper._vertices:
            actual_node, _ = _correspondence(net, mapper_host, v)
            prev = by_label.setdefault(v.label, actual_node)
            assert prev == actual_node


class TestCompleteness:
    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_every_core_node_represented(self, fixture_name, request):
        net = request.getfixturevalue(fixture_name)
        mapper, _ = _run_labeled(net, "h0")
        covered = {
            _correspondence(net, "h0", v)[0] for v in mapper._vertices
        }
        core = core_network(net)
        assert set(core.nodes) <= covered

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_label_count_equals_core_node_count(self, fixture_name, request):
        """All replicates merged (Lemma 3 consequence): distinct final
        labels restricted to core-corresponding vertices == core size."""
        net = request.getfixturevalue(fixture_name)
        mapper, result = _run_labeled(net, "h0")
        core_nodes = set(core_network(net).nodes)
        core_labels = {
            v.label
            for v in mapper._vertices
            if _correspondence(net, "h0", v)[0] in core_nodes
        }
        assert len(core_labels) == len(core_nodes)
