"""Command-line interface: ``san-map`` (or ``python -m repro``).

Subcommands mirror the life cycle of the paper's system:

- ``generate`` — build a topology (NOW subclusters, regular shapes, random)
  and write it as JSON;
- ``analyze``  — report D, Q, F and the proven search depth of a topology;
- ``map``      — run a mapping algorithm in-band against a topology and
  write/render the produced map (``--mapper`` picks any registered
  algorithm; ``--mapper list`` prints the registry);
- ``tournament`` — race every registered mapper across topology families
  and collision models, optionally gating against the committed
  ``benchmarks/BENCH_tournament.json``;
- ``routes``   — compute UP*/DOWN* routes from a map, verify deadlock
  freedom, optionally verify delivery against the actual topology;
- ``experiment`` — regenerate any of the paper's tables/figures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.topology.generators import NAMED_TOPOLOGIES, build_named_topology
from repro.topology.serialize import load_network, save_network

__all__ = ["main"]


def _cmd_generate(args: argparse.Namespace) -> int:
    given = {"size": args.size, "hosts_per_switch": args.hosts_per_switch, "seed": args.seed}
    net = build_named_topology(args.topology, {k: v for k, v in given.items() if v is not None})
    save_network(net, args.out)
    print(f"wrote {args.out}: {net.n_hosts} hosts, {net.n_switches} switches, "
          f"{net.n_wires} wires")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.topology.analysis import core_decomposition

    net = load_network(args.network)
    mapper = args.mapper or sorted(net.hosts)[0]
    d = core_decomposition(net, mapper)
    print(f"network: {net.n_hosts} hosts, {net.n_switches} switches, "
          f"{net.n_wires} wires")
    print(f"mapper host: {mapper}")
    print(f"diameter D = {d.diameter}")
    print(f"Q = {d.q}")
    print(f"F (switch-bridge-separated) = {sorted(d.f_set) or 'empty'}")
    print(f"proven search depth Q+D+1 = {d.search_depth}")
    return 0


def _print_mapper_registry() -> int:
    from repro.core.mapper_protocol import iter_mapper_specs

    specs = iter_mapper_specs()
    name_w = max(len(s.name) for s in specs) + 2
    caps_w = max(len(s.capabilities.summary()) for s in specs) + 2
    print(f"{'name':<{name_w}}{'capabilities':<{caps_w}}summary")
    for spec in specs:
        service = (
            f" [needs {spec.service_cls.__name__}]" if spec.service_cls else ""
        )
        print(
            f"{spec.name:<{name_w}}{spec.capabilities.summary():<{caps_w}}"
            f"{spec.summary}{service}"
        )
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.core.mapper_protocol import get_mapper_spec, resolve_mapper_factory
    from repro.core.remapper import MAX_EXPLORATIONS, map_cycle
    from repro.simulator.faults import NO_FAULTS
    from repro.simulator.stack import describe_stack
    from repro.topology.analysis import core_network, effective_network
    from repro.topology.isomorphism import match_networks
    from repro.topology.render import to_ascii

    algorithm = args.mapper
    if algorithm == "list":
        return _print_mapper_registry()
    if not args.network:
        print("san-map: error: --network is required (except for "
              "--mapper list)", file=sys.stderr)
        return 2
    spec = get_mapper_spec(algorithm)

    net = load_network(args.network)
    mapper_host = args.mapper_host or sorted(net.hosts)[0]

    if args.profile and spec.capabilities.profiler:
        from repro.core.instrumentation import PhaseProfiler

        # Only a callable can carry a profiler in: the spec's mapper built
        # with map_cycle's own defaults, on the spec's service class.
        result, svc = map_cycle(
            net,
            mapper_host,
            mapper=resolve_mapper_factory(
                algorithm,
                host_first=False,
                max_explorations=MAX_EXPLORATIONS,
                radix=net.default_radix,
                profiler=PhaseProfiler(),
            ),
            search_depth=args.depth,
            service_cls=spec.service_cls,
        )
    else:
        result, svc = map_cycle(
            net, mapper_host, mapper=algorithm, search_depth=args.depth
        )
    produced, stats = result.network, result.stats

    if args.stack:
        print(describe_stack(svc))
    print(f"mapped with {algorithm}: {produced.n_hosts} hosts, "
          f"{produced.n_switches} switches, {produced.n_wires} wires")
    print(f"probes: {stats.total_probes} ({stats.total_hits} answered), "
          f"simulated time {stats.elapsed_ms:.1f} ms")
    if args.stats:
        from repro.core.instrumentation import cache_summary

        print(cache_summary(svc.eval_cache_stats))
    if args.profile:
        if result.profile is None:
            print(f"profile: the {algorithm} mapper does not record phases")
        else:
            print(result.profile.render())
    # The map is owed what the mapper can reach: its own component.
    reachable = effective_network(net, NO_FAULTS, mapper_host)
    report = match_networks(produced, core_network(reachable))
    print(f"verified against actual core: "
          f"{'isomorphic' if report else f'MISMATCH ({report.reason})'}")
    if args.out:
        save_network(produced, args.out)
        print(f"wrote {args.out}")
    if args.render:
        print(to_ascii(produced, title=f"map via {algorithm}"))
    return 0 if report else 1


def _cmd_tournament(args: argparse.Namespace) -> int:
    from repro.tournament import (
        check_report,
        load_report,
        run_tournament,
        save_report,
    )

    report = run_tournament(
        mappers=args.mappers.split(",") if args.mappers else None,
        families=args.families.split(",") if args.families else None,
        quick=args.quick,
        chaos=not args.no_chaos,
        progress=print if args.verbose else None,
    )
    print(report.render())
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    if args.check_against:
        baseline = load_report(args.check_against)
        problems = check_report(report, baseline, tolerance=args.tolerance)
        for line in problems:
            print(f"  DRIFT {line}")
        verdict = "matches" if not problems else f"{len(problems)} drifts from"
        print(f"tournament {verdict} baseline {args.check_against}")
        return 1 if problems else 0
    return 0


def _cmd_routes(args: argparse.Namespace) -> int:
    from repro.routing import (
        all_pairs_updown_paths,
        compile_route_tables,
        lash_route_tables,
        orient_updown,
        routes_deadlock_free,
    )

    net_map = load_network(args.map)
    if args.scheme == "lash":
        lash = lash_route_tables(net_map)
        tables = lash.tables
        safe = all(
            routes_deadlock_free(lash.layer_routes(i))
            for i in range(lash.n_layers)
        )
        print(f"LASH layers (virtual channels): {lash.n_layers}")
    else:
        orientation = orient_updown(net_map)
        paths = all_pairs_updown_paths(net_map, orientation)
        tables = compile_route_tables(net_map, paths)
        safe = routes_deadlock_free(tables)
        print(f"root switch: {orientation.root}"
              + (f" (relabeled dominant: {orientation.relabeled})"
                 if orientation.relabeled else ""))
    n_routes = sum(len(t) for t in tables.values())
    print(f"routes: {n_routes}; deadlock-free: {safe}")

    if args.verify_against:
        from repro.simulator.path_eval import PathStatus, evaluate_route

        actual = load_network(args.verify_against)
        bad = 0
        for table in tables.values():
            for dst, route in table.routes.items():
                out = evaluate_route(actual, table.host, route.turns)
                if out.status is not PathStatus.DELIVERED or out.delivered_to != dst:
                    bad += 1
        print(f"delivery check on actual network: {n_routes - bad}/{n_routes} ok")
        safe = safe and bad == 0

    if args.out:
        doc = {
            host: {
                dst: list(route.turns) for dst, route in table.routes.items()
            }
            for host, table in tables.items()
        }
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
    return 0 if safe else 1


_EXPERIMENTS = {
    "fig3": "repro.experiments.fig3_components",
    "fig4": "repro.experiments.fig4_subcluster_map",
    "fig5": "repro.experiments.fig5_full_map",
    "fig6": "repro.experiments.fig6_probe_counts",
    "fig7": "repro.experiments.fig7_mapping_times",
    "fig8": "repro.experiments.fig8_model_growth",
    "fig9": "repro.experiments.fig9_responders",
    "fig10": "repro.experiments.fig10_myricom",
    "routing": "repro.experiments.routing_study",
    "routing-quality": "repro.experiments.routing_quality",
    "ablations": "repro.experiments.ablations",
    "crosstraffic": "repro.experiments.crosstraffic_ext",
    "parallel": "repro.experiments.parallel_ext",
}


def _cmd_export_data(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_figure_data

    written = export_figure_data(args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    names = list(_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        module = importlib.import_module(_EXPERIMENTS[name])
        print(f"### {name} " + "#" * 40)
        module.main()
        print()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.corpus import load_corpus, replay_artifact, write_campaign_corpus
    from repro.chaos.runner import (
        campaign_config_from_dict,
        demo_campaign,
        run_campaign,
        save_report,
    )
    from repro.chaos.shrink import shrink_failure
    from repro.core.instrumentation import chaos_summary

    if args.replay_corpus:
        artifacts = load_corpus(args.replay_corpus)
        if not artifacts:
            print(f"san-map: error: no artifacts in {args.replay_corpus}",
                  file=sys.stderr)
            return 2
        problems: list[str] = []
        for artifact in artifacts:
            problems.extend(replay_artifact(artifact))
        print(f"replayed {len(artifacts)} artifacts "
              f"({sum(len(a['cells']) for a in artifacts)} cells)")
        for line in problems:
            print(f"  MISMATCH {line}")
        return 1 if problems else 0

    if args.config:
        config = campaign_config_from_dict(
            json.loads(Path(args.config).read_text())
        )
    else:
        config = demo_campaign()
    if args.seeds is not None:
        from dataclasses import replace

        config = replace(
            config, seeds=tuple(int(s) for s in args.seeds.split(","))
        )

    progress = print if args.verbose else None
    report = run_campaign(config, progress=progress)
    print(chaos_summary(report.summary(), name=report.name))

    if args.shrink:
        for cell in report.failures():
            shrunk = shrink_failure(cell)
            print(
                f"shrunk {cell.scenario.name}[seed={cell.seed}]: "
                f"{len(cell.scenario.events)} -> {shrunk.n_events} events "
                f"({shrunk.runs} runs); still failing: "
                f"{', '.join(shrunk.failing)}"
            )
    if args.report:
        save_report(report, args.report)
        print(f"wrote {args.report}")
    if args.corpus:
        written = write_campaign_corpus(args.corpus, report)
        print(f"wrote {len(written)} corpus artifacts to {args.corpus}")
    return 0 if report.passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import MapServer, TenantSpec, run_load, synthetic_tenants

    if args.config:
        docs = json.loads(Path(args.config).read_text())
        if not isinstance(docs, list):
            raise ValueError("serve config must be a JSON list of tenant specs")
        specs = [TenantSpec.from_dict(doc) for doc in docs]
    else:
        specs = synthetic_tenants(args.tenants, seed=args.seed)

    async def run() -> int:
        server = MapServer(specs, max_workers=args.workers)
        host, port = await server.start(args.host, args.port)
        print(f"san-map serve: {len(specs)} tenants on {host}:{port}", flush=True)
        try:
            if args.burst:
                report = await run_load(
                    host,
                    port,
                    rounds=args.burst,
                    route_clients=args.route_clients,
                    cut=not args.no_cut,
                    seed=args.seed,
                )
                print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
                return 0 if report.maps_completed and report.route_ok else 1
            await server.wait_closed()
            return 0
        finally:
            await server.stop()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("san-map serve: interrupted", file=sys.stderr)
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="san-map",
        description="System Area Network Mapping (SPAA 1997) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a topology and save it")
    p.add_argument(
        "--topology",
        # The fat trees' own parameters (leaves, k, hosts per leaf or edge)
        # have no flags here; they stay spec kinds.
        choices=[k for k in NAMED_TOPOLOGIES if not k.startswith("fat-tree")],
        required=True,
    )
    # No defaults here: an omitted flag takes the registry's default.
    p.add_argument("--size", type=int, help="switch count / grid side / cube dimension")
    p.add_argument("--hosts-per-switch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="report D, Q, F, search depth")
    p.add_argument("--network", required=True)
    p.add_argument("--mapper", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("map", help="map a network in-band")
    p.add_argument("--network", default=None,
                   help="topology JSON (required unless --mapper list)")
    p.add_argument("--mapper", default="berkeley", metavar="NAME",
                   help="discovery algorithm registry name "
                        "(or 'list' to print the registry)")
    p.add_argument("--mapper-host", default=None,
                   help="host to map from (default: first host)")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--render", action="store_true")
    p.add_argument("--profile", action="store_true",
                   help="per-phase wall-clock table (berkeley only)")
    p.add_argument("--stats", action="store_true",
                   help="print probe-evaluation cache counters")
    p.add_argument("--stack", action="store_true",
                   help="print the composed probe-service layer chain")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser(
        "tournament",
        help="race every registered mapper across topology families",
    )
    p.add_argument("--mappers", default=None,
                   help="comma-separated registry names (default: all)")
    p.add_argument("--families", default=None,
                   help="comma-separated topology families (default: all)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke grid: small families, circuit model only")
    p.add_argument("--no-chaos", action="store_true",
                   help="skip the chaos-robustness sweep")
    p.add_argument("--out", default=None, help="write the report JSON")
    p.add_argument("--check-against", default=None,
                   help="committed baseline JSON to gate probe counts, "
                        "correctness and robustness against")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="relative probe-count drift allowed by "
                        "--check-against (default: exact)")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per cell as the grid runs")
    p.set_defaults(func=_cmd_tournament)

    p = sub.add_parser("routes", help="compute deadlock-free routes from a map")
    p.add_argument("--map", required=True)
    p.add_argument("--scheme", choices=["updown", "lash"], default="updown")
    p.add_argument("--verify-against", default=None,
                   help="actual-topology JSON to verify deliveries on")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_routes)

    p = sub.add_parser(
        "chaos",
        help="run a deterministic fault-injection campaign against the remapper",
    )
    p.add_argument("--config", default=None,
                   help="campaign JSON (default: built-in demo grid)")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seed override, e.g. 0,1,2")
    p.add_argument("--report", default=None, help="write campaign report JSON")
    p.add_argument("--corpus", default=None,
                   help="write per-scenario corpus artifacts to this directory")
    p.add_argument("--replay-corpus", default=None,
                   help="replay committed artifacts instead of running a campaign")
    p.add_argument("--shrink", action="store_true",
                   help="minimize every failing cell before exiting")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per cell as the grid runs")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="host N virtual clusters behind the async map server",
    )
    p.add_argument("--config", default=None,
                   help="JSON list of tenant specs (default: synthetic tenants)")
    p.add_argument("--tenants", type=int, default=8,
                   help="synthetic tenant count when no --config is given")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--workers", type=int, default=None,
                   help="simulator worker processes (default: CPU count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burst", type=int, default=None, metavar="ROUNDS",
                   help="drive a bounded load-generator burst, print the "
                        "report as JSON, and exit (CI smoke mode)")
    p.add_argument("--route-clients", type=int, default=4,
                   help="concurrent route-query connections during --burst")
    p.add_argument("--no-cut", action="store_true",
                   help="burst without cable churn between rounds")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=list(_EXPERIMENTS) + ["all"])
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "export-data",
        help="write the Figure 8/9 plot series as CSV files",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_export_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch; map *expected* failures to clean exit codes.

    Handlers stay narrow on purpose (see SAN006 in docs/STATIC_ANALYSIS.md):
    a contradiction in the deduction engine or an unreadable input file is an
    expected operational failure and becomes a one-line message with exit
    code 2; anything else is a bug and must keep its traceback.
    """
    from repro.core.mapper import MappingError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"san-map: error: cannot read {exc.filename or exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"san-map: error: invalid input: {exc}", file=sys.stderr)
        return 2
    except MappingError as exc:
        print(
            "san-map: mapping failed: the probed responses contradict the "
            f"system model ({exc})",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
