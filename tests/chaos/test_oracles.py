"""Oracle-suite tests: each clause of the contract, pass and fail paths."""

from repro.chaos.oracles import (
    CellContext,
    ConvergenceOracle,
    CycleOutcome,
    DeadlockFreeOracle,
    NoContradictionOracle,
    QuotientMapOracle,
    RouteDeliveryOracle,
    effective_network,
)
from repro.routing.incremental import route_deliveries
from repro.simulator.faults import FaultModel
from repro.topology.analysis import core_network
from repro.topology.generators import build_ring


def _cycle(index=0, *, changed=False, error=None, probes=10):
    return CycleOutcome(
        index=index,
        scheduled=False,
        probes=probes,
        hosts=6,
        switches=6,
        wires=12,
        changed=changed,
        routes_recomputed=changed,
        deadlock_free=True if changed else None,
        error=error,
    )


def _take_down(net, wires):
    """What the chaos applier does to a cut or killed cable."""
    for wire in list(wires):
        net.disconnect(wire)


def _ctx(net, **kw):
    defaults = dict(
        truth=net,
        faults=FaultModel(),
        mapper_host="ring-n000",
        final_map=kw.pop("final_map", net.copy()),
        final_tables=None,
        cycles=[_cycle()],
    )
    defaults.update(kw)
    return CellContext(**defaults)


class TestEffectiveNetwork:
    def test_no_faults_is_identity(self):
        net = build_ring(6)
        eff = effective_network(net, FaultModel(), "ring-n000")
        assert set(eff.nodes) == set(net.nodes)
        assert eff.n_wires == net.n_wires

    def test_single_cut_removes_one_wire_keeps_component(self):
        net = build_ring(6)
        n_wires = net.n_wires
        _take_down(net, [net.wire_at("ring-s2", 1)])
        eff = effective_network(net, FaultModel(), "ring-n000")
        assert eff.n_wires == n_wires - 1
        assert set(eff.hosts) == set(net.hosts)

    def test_killed_switch_drops_its_island(self):
        net = build_ring(6)
        _take_down(net, net.wires_of("ring-s3"))
        eff = effective_network(net, FaultModel(), "ring-n000")
        assert "ring-s3" not in eff.switches
        assert "ring-n003" not in eff.hosts  # its host is stranded too
        assert set(eff.hosts) == set(net.hosts) - {"ring-n003"}

    def test_mapper_cut_off_leaves_mapper_alone(self):
        net = build_ring(6)
        _take_down(net, net.wires_of("ring-s0"))
        eff = effective_network(net, FaultModel(), "ring-n000")
        assert set(eff.hosts) == {"ring-n000"}
        assert eff.n_switches == 0


    def test_the_input_network_is_left_untouched(self):
        """With or without a cable down, the fabric handed in keeps its
        epoch and its wires, and what comes back is a new network."""
        net = build_ring(6)
        for cut in (False, True):
            if cut:
                _take_down(net, [net.wire_at("ring-s2", 1)])
            epoch, wires = net.topology_epoch, [(w.key, w.a, w.b) for w in net.wires]
            eff = effective_network(net, FaultModel(), "ring-n000")
            assert eff is not net
            assert net.topology_epoch == epoch
            assert [(w.key, w.a, w.b) for w in net.wires] == wires
            assert eff.n_wires == net.n_wires


class TestQuotientMapOracle:
    def test_true_map_passes(self):
        net = build_ring(6)
        verdict = QuotientMapOracle().check(
            _ctx(net, final_map=core_network(net))
        )
        assert verdict.ok, verdict.detail

    def test_missing_wire_fails(self):
        net = build_ring(6)
        broken = core_network(net)
        broken.disconnect(broken.wire_at("ring-s2", 1))
        verdict = QuotientMapOracle().check(_ctx(net, final_map=broken))
        assert not verdict.ok

    def test_no_map_fails(self):
        verdict = QuotientMapOracle().check(
            _ctx(build_ring(6), final_map=None)
        )
        assert not verdict.ok

    def test_degenerate_network_only_checks_no_invention(self):
        net = build_ring(6)
        _take_down(net, net.wires_of("ring-s0"))
        ctx = _ctx(net, final_map=net.induced_subnetwork(["ring-n000"]))
        assert QuotientMapOracle().check(ctx).ok


class TestRouteOracles:
    def _tables(self, net):
        from repro.routing.compile_routes import compile_route_tables
        from repro.routing.paths import all_pairs_updown_paths
        from repro.routing.updown import orient_updown

        ori = orient_updown(net)
        return compile_route_tables(
            net, all_pairs_updown_paths(net, ori)
        )

    def test_updown_tables_pass_both(self):
        net = build_ring(6)
        tables = self._tables(net)
        ctx = _ctx(net, final_tables=tables)
        assert DeadlockFreeOracle().check(ctx).ok
        verdict = RouteDeliveryOracle().check(ctx)
        assert verdict.ok, verdict.detail

    def test_missing_tables_fail_both(self):
        ctx = _ctx(build_ring(6), final_tables=None)
        assert not DeadlockFreeOracle().check(ctx).ok
        assert not RouteDeliveryOracle().check(ctx).ok

    def test_routes_over_a_dead_cable_fail_delivery(self):
        net = build_ring(6)
        tables = self._tables(net)
        _take_down(net, [net.wire_at("ring-s2", 1)])
        ctx = _ctx(net, final_tables=tables)
        assert not RouteDeliveryOracle().check(ctx).ok

    def test_routes_to_a_host_the_fabric_lost_fail_as_unreachable(self):
        net = build_ring(6)
        tables = self._tables(net)
        truth = net.copy()
        gone = "ring-n005"
        truth.remove_node(gone)
        judged = list(route_deliveries(tables, truth))
        failed = [(src, dst) for src, dst, failure in judged if failure is not None]
        assert len(failed) == 10 and all(gone in pair for pair in failed)
        verdict = RouteDeliveryOracle().check(_ctx(truth, final_tables=tables))
        assert not verdict.ok
        assert verdict.detail.startswith(f"{len(failed)}/{len(judged)} routes fail: ")
        assert f"ring-n000->{gone} (unreachable endpoint)" in verdict.detail


class TestConvergenceAndContradiction:
    def test_settled_run_converges(self):
        ctx = _ctx(build_ring(6), cycles=[_cycle(0, changed=True), _cycle(1)])
        assert ConvergenceOracle().check(ctx).ok
        assert NoContradictionOracle().check(ctx).ok

    def test_still_changing_fails(self):
        ctx = _ctx(build_ring(6), cycles=[_cycle(0, changed=True)])
        assert not ConvergenceOracle().check(ctx).ok

    def test_budget_overrun_fails(self):
        ctx = _ctx(build_ring(6), cycles=[_cycle(probes=50)])
        ctx.probe_budget = 10
        assert not ConvergenceOracle().check(ctx).ok

    def test_final_error_fails_both(self):
        ctx = _ctx(build_ring(6), cycles=[_cycle(error="contradiction")])
        assert not ConvergenceOracle().check(ctx).ok
        assert not NoContradictionOracle().check(ctx).ok

    def test_transient_error_is_reported_not_failed(self):
        ctx = _ctx(
            build_ring(6),
            cycles=[_cycle(0, error="blip"), _cycle(1)],
        )
        verdict = NoContradictionOracle().check(ctx)
        assert verdict.ok
        assert "1 transient" in verdict.detail

    def test_no_cycles_fails(self):
        ctx = _ctx(build_ring(6), cycles=[])
        assert not ConvergenceOracle().check(ctx).ok
        assert not NoContradictionOracle().check(ctx).ok
