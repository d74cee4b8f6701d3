#!/usr/bin/env python3
"""End-to-end remap-cycle benchmark on the product entry points.

One workload, as the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload now_cold --seed 0 --seconds 15 --trace 0

prints every metric by name with its unit and sample count, then one JSON
object on the last line. ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ledger. Without ``--workload`` it runs all
four, untraced then traced, each in its own child process, and writes
``benchmarks/e2e/out/result-<seed>.json`` for ``compare.py``.

See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

_import_start = time.perf_counter()
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run from a checkout of the repo")
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from meter import SpeedMeter  # noqa: E402
from spans import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Unsampled set-ups per run; ``setup_s`` is their median.
SETUPS = 3

# ----------------------------------------------------------------------
# measuring one workload
# ----------------------------------------------------------------------
@dataclass
class Sample:
    wall_s: float
    slowness: float
    traced: bool
    outcome: wl.Outcome

    @property
    def ref_s(self) -> float:
        return self.wall_s / self.slowness


@dataclass
class Run:
    """Everything one invocation measured."""

    setup_ref_s: list[float]
    samples: list[Sample]
    lookups: wl.LookupReport | None
    tracer: Tracer | None
    build_s: float
    window_s: float


async def measure(
    workload, seconds: float, trace: bool, max_cycles: int | None, setups: int
) -> Run:
    setup_ref_s = []
    for i in range(setups):
        with SpeedMeter() as meter:
            start = time.perf_counter()
            await workload.setup()
            wall = time.perf_counter() - start
        setup_ref_s.append((wall - meter.busy_s) / meter.slowness)
        if i < setups - 1:
            await workload.teardown()

    tracer = Tracer() if trace else None
    samples: list[Sample] = []
    lookups = None
    try:
        await workload.begin(heartbeat=trace)
        began = time.perf_counter()
        while time.perf_counter() - began < seconds and (
            max_cycles is None or len(samples) < max_cycles
        ):
            # In a traced run every other cycle is traced; the untraced
            # ones give the baseline for coverage and tracing overhead.
            traced = trace and len(samples) % 2 == 1
            start = time.perf_counter()
            try:
                await workload.prepare()
                if workload.collect_garbage:
                    gc.collect()
                scope = tracer.traced("cycle", len(samples)) if traced else nullcontext()
                with SpeedMeter() as meter, scope:
                    start = time.perf_counter()
                    result = await workload.cycle()
                    wall = time.perf_counter() - start
                meter.add(await workload.worker_slices())
                wall -= meter.busy_s
                slowness = meter.slowness
                outcome = workload.check(result)
            except Exception as exc:  # noqa: BLE001 - a broken cycle is a counted failure, not a crash
                wall, slowness = time.perf_counter() - start, 1.0
                trace_text = "".join(traceback.format_exception(exc))
                outcome = wl.Outcome(0, 0.0, False, False, [trace_text])
            samples.append(Sample(wall, slowness, traced, outcome))
        window_s = time.perf_counter() - began
        lookups = await workload.end()
        if tracer is not None:
            replay_jobs(tracer)
    finally:
        await workload.teardown()
    return Run(setup_ref_s, samples, lookups, tracer, workload.build_s, window_s)


def replay_jobs(tracer: Tracer) -> None:
    """Run each traced served cycle's payload again, in process.

    The worker's spans die with the worker, so the job is repeated here
    under the tracer, and the pool boundary's pickling is timed alone.
    What the served cycle took beyond these is ``service.dispatch_wait_ms``.
    """
    from repro.service.workers import run_map_job

    cycles = sorted({s["cycle"] for s in tracer.spans if s["name"] == "service.payload"})
    for cycle, payload in zip(cycles, tracer.payloads):
        gc.collect()
        with tracer.traced("job", cycle):
            outcome = run_map_job(payload)
        with tracer.span("service.pickle") as span:
            sent = pickle.dumps(payload)
            pickle.loads(sent)
            back = pickle.dumps(outcome)
            pickle.loads(back)
        span["payload_bytes"] = len(sent)
        span["outcome_bytes"] = len(back)


def peak_rss_mb() -> float:
    """Max RSS of this process plus its largest ended child (the worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run, import_ref_s: float) -> dict[str, float]:
    ref = [s.ref_s for s in run.samples]
    return {
        "setup_s": import_ref_s + statistics.median(run.setup_ref_s),
        "cycle_p50_ms": statistics.median(ref) * 1e3,
        "cycles_per_s": len(ref) / sum(ref),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run) -> dict[str, float]:
    tracer = run.tracer
    traced = [s for s in run.samples if s.traced]
    untraced = [s for s in run.samples if not s.traced]
    n = max(1, len(traced))
    # Ledger times are at reference speed like the end-to-end ones, by one
    # factor per run: the median slowness of its traced cycles.
    to_ms = 1e3 / n / statistics.median(s.slowness for s in traced or run.samples)
    own_ms: dict[str, float] = defaultdict(float)
    all_ms: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        own_ms[span["name"]] += own * to_ms
        all_ms[span["name"]] += (span["end"] - span["start"]) * to_ms
    calls: dict[str, float] = defaultdict(float)
    busy_ms: dict[str, float] = defaultdict(float)
    for name, (count, seconds) in tracer.busy.items():
        calls[name], busy_ms[name] = count / n, seconds * to_ms

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    m: dict[str, float] = {}
    for name in (
        "topology.search_depth", "topology.diff", "topology.match",
        "topology.effective", "topology.to_dict", "topology.from_dict",
        "simulator.stack_build",
        "core.seed_with",
        "routing.orient", "routing.phase_graph", "routing.paths",
        "routing.compile", "routing.deadlock", "routing.distribute",
        "service.payload", "service.adopt", "service.seed_decode",
        "service.result_encode", "service.tables_decode", "service.pickle",
    ):  # fmt: skip
        m[f"{name}_ms"] = own_ms[name]
    m["topology.affected_since_us"] = own_ms["topology.affected_since"] * 1e3
    m["topology.build_ms"] = run.build_s * 1e3

    sim_ms = sum(busy_ms[k] for k in ("simulator.probe", "simulator.warm", "simulator.crosses"))
    for key in ("probe", "warm", "crosses"):
        m[f"simulator.{key}_calls"] = calls[f"simulator.{key}"]
        m[f"simulator.{key}_busy_ms"] = busy_ms[f"simulator.{key}"]
    m["simulator.us_per_probe"] = share(busy_ms["simulator.probe"] * 1e3, calls["simulator.probe"])
    total = tracer.totals
    m["simulator.cache_hit_rate"] = share(
        total["cache_hits"], total["cache_hits"] + total["cache_misses"]
    )
    m["simulator.cache_hinted_share"] = share(
        total["cache_hinted"] / n, calls["simulator.probe"]
    )
    m["simulator.cache_nodes"] = total["cache_nodes"] / n
    m["simulator.nodes_dropped"] = total["cache_nodes_dropped"] / n

    m["core.map_ms"] = all_ms["core.map"]
    m["core.map_self_ms"] = all_ms["core.map"] - sim_ms
    m["core.us_per_probe"] = share(all_ms["core.map"] * 1e3, calls["simulator.probe"])
    for key in ("explorations", "merges", "kept_nodes"):
        m[f"core.{key}"] = total[key] / n
    for phase in ("explore", "probe", "deduce", "merge", "prune", "build"):
        m[f"core.phase_{phase}_ms"] = total[f"phase_{phase}_s"] * to_ms
    outcomes = [s.outcome for s in run.samples]
    planned = sum(o.planned_seed for o in outcomes)
    seeded = sum(o.planned_seed and o.seeded for o in outcomes)
    m["core.seeded_share"] = share(seeded, planned)
    m["core.fallback_share"] = share(planned - seeded, planned)
    m["core.probes_per_cycle"] = statistics.fmean(o.probes for o in outcomes)
    m["core.sim_ms_per_cycle"] = statistics.fmean(o.sim_ms for o in outcomes)

    m["routing.routes"] = statistics.fmean(o.routes for o in outcomes)
    m["routing.routes_changed_share"] = share(
        sum(o.routes_changed for o in outcomes), sum(o.routes for o in outcomes)
    )
    m["routing.hosts_updated_share"] = share(
        sum(o.hosts_updated for o in outcomes), sum(o.hosts for o in outcomes)
    )

    # The daemon's cycle span holds everything; the served one holds the
    # loop side, the replayed job and the pickling stand for the rest.
    served = run.lookups is not None
    m["core.cycle_other_ms"] = 0.0 if served else own_ms["cycle"]
    m["service.job_ms"] = all_ms["job"]
    m["service.job_other_ms"] = own_ms["job"]
    m["service.dispatch_wait_ms"] = (
        own_ms["cycle"] - all_ms["job"] - all_ms["service.pickle"] if served else 0.0
    )
    pickles = [s for s in tracer.spans if s["name"] == "service.pickle"]
    m["service.payload_bytes"] = sum(s["payload_bytes"] for s in pickles) / n
    m["service.outcome_bytes"] = sum(s["outcome_bytes"] for s in pickles) / n
    for key in wl.LOOKUP_METRICS:
        m[f"service.{key}"] = run.lookups.metrics[key] if served else 0.0

    attributed = all_ms["cycle"] - (own_ms["job"] if served else own_ms["cycle"])
    ref_p50 = statistics.median(s.ref_s for s in untraced) * 1e3
    m["ledger.coverage"] = attributed / ref_p50
    m["ledger.unattributed_ms"] = ref_p50 - attributed
    m["ledger.cycle_max_ms"] = max(s.ref_s for s in run.samples) * 1e3
    m["ledger.cycle_wall_p50_ms"] = statistics.median(s.wall_s for s in untraced) * 1e3
    m["trace.overhead_share"] = (
        statistics.median(s.ref_s for s in traced) * 1e3 / ref_p50 - 1 if traced else 0.0
    )
    return m


def tally(run: Run) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, each failure by index):
    cycles, and on the served workload lookups and the closing verify op."""
    failures = [
        f"cycle {i}: {error}"
        for i, s in enumerate(run.samples)
        for error in s.outcome.errors
    ]
    attempted = len(run.samples)
    failed = sum(1 for s in run.samples if s.outcome.errors)
    if run.lookups is not None:
        attempted += run.lookups.attempted
        failed += len(run.lookups.failures)
        failures += run.lookups.failures
    return attempted, failed, failures


# ----------------------------------------------------------------------
# one workload (the driver's contract)
# ----------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    with SpeedMeter() as meter:
        pass
    import_ref_s = IMPORT_S / meter.slowness
    workload = wl.WORKLOADS[name](seed, quick)
    # Quick: 2 sampled cycles (and 2 traced ones beside them), 1 set-up.
    max_cycles = (4 if trace else 2) if quick else None
    run = asyncio.run(
        measure(workload, seconds, trace, max_cycles, 1 if quick else SETUPS)
    )

    attempted, failed, failures = tally(run)
    values = per_layer(run) if trace else end_to_end(run, import_ref_s)
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in SPEC["per_layer" if trace else "end_to_end"]
    }
    n = len(run.samples)
    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}"
          f"  sampled cycles n={n} in {run.window_s:.1f} s")
    for metric, entry in metrics.items():
        print(f"  {metric:32s} {entry['value']:14.4f} {entry['unit']:6s} n={n}")
    print(f"  {'failed_share':32s} {failed / attempted:14.4f} {'share':6s} n={attempted}")
    for failure in failures[:20]:
        print(f"  FAILED {failure.strip().splitlines()[-1]}")

    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "cycles": [
            {
                "wall_ms": s.wall_s * 1e3,
                "host_slowness": s.slowness,
                "traced": s.traced,
                "probes": s.outcome.probes,
                "sim_ms": s.outcome.sim_ms,
                "seeded": s.outcome.seeded,
            }
            for s in run.samples
        ],
        "setup_ref_s": run.setup_ref_s,
        "lookups": asdict(run.lookups) if run.lookups else None,
        "spans": run.tracer.spans if run.tracer else [],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


# ----------------------------------------------------------------------
# all workloads: the result file compare.py reads
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, quick: bool) -> int:
    rows: dict[str, dict] = {}
    for spec in SPEC["workloads"]:
        name = spec["name"]
        rows[name] = {"why": spec["why"]}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ] + (["--quick"] if quick else [])  # fmt: skip
            done = subprocess.run(command, cwd=ROOT)
            if done.returncode:
                return done.returncode
            detail = json.loads(
                (OUT / f"{name}-seed{seed}-trace{trace}.json").read_text()
            )
            detail.pop("spans")
            rows[name]["per_layer" if trace else "end_to_end"] = detail
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    result = {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "workloads": rows,
    }
    path = OUT / f"result-{seed}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="small fabrics, 2 cycles: for the self-tests, never for reported numbers",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.quick)
    run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
