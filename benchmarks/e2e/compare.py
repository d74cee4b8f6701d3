#!/usr/bin/env python3
"""Compare two sets of benchmark results under the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are each a ``result-<seed>.json`` written by
``run.py``, or a directory of them (several runs of one commit). Per
(workload, end-to-end metric) the medians are compared: the change may be
worse than the parent by at most the metric's bound. Where the parent's
own run-to-run spread (interquartile range over its median) is wider than
the bound the pair is *unresolved*, not unchanged — unless every run of
the change reads better than every run of the parent. The simulated
statistics (probes and simulated time per cycle) have no tolerance: over
the cycles both sides ran, with the same seed, they must not get worse at
all. Exits 1 on a regression or a higher failed share.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("result-*.json")) if p.is_dir() else [p]
    if not files:
        sys.exit(f"no result-*.json in {path}")
    return [json.loads(f.read_text()) for f in files]


def worsening(parent: float, change: float, better: str) -> float:
    """By what share of the parent the change is worse (negative: better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent)


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare_metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    worse = worsening(statistics.median(parent), statistics.median(change), spec["better"])
    noise = spread(parent)
    if noise > spec["bound"]:
        if spec["better"] == "lower":
            clear_win = max(change) < min(parent)
        else:
            clear_win = min(change) > max(parent)
        verdict = "ok" if clear_win else "unresolved"
    else:
        verdict = "REGRESSION" if worse > spec["bound"] else "ok"
    return {
        "parent": statistics.median(parent),
        "change": statistics.median(change),
        "worse_by": worse,
        "spread": noise,
        "bound": spec["bound"],
        "verdict": verdict,
    }


def simulated_totals(run: dict, workload: str, n: int) -> tuple[int, float]:
    cycles = run["workloads"][workload]["end_to_end"]["cycles"][:n]
    return sum(c["probes"] for c in cycles), sum(c["sim_ms"] for c in cycles)


def compare(parents: list[dict], changes: list[dict]) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        side = lambda runs, key: [  # noqa: E731
            r["workloads"][workload]["end_to_end"][key] for r in runs
        ]
        for spec in SPEC["end_to_end"]:
            values = [
                [m[spec["name"]]["value"] for m in side(runs, "metrics")]
                for runs in (parents, changes)
            ]
            row = compare_metric(spec, *values)
            rows.append({"workload": workload, "metric": spec["name"], **row})

        failed = [
            sum(side(runs, "failed")) / sum(side(runs, "attempted"))
            for runs in (parents, changes)
        ]
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "parent": failed[0],
                "change": failed[1],
                "worse_by": failed[1] - failed[0],
                "spread": 0.0,
                "bound": 0.0,
                "verdict": "REGRESSION" if failed[1] > failed[0] else "ok",
            }
        )

        # Same seed, same cycles: the simulator's own numbers repeat exactly.
        by_seed = {r["seed"]: r for r in parents}
        for run in changes:
            base = by_seed.get(run["seed"])
            if base is None:
                continue
            n = min(len(r["workloads"][workload]["end_to_end"]["cycles"]) for r in (base, run))
            (p_probes, p_ms), (c_probes, c_ms) = (
                simulated_totals(r, workload, n) for r in (base, run)
            )
            for metric, p, c, same in (
                ("probes_per_cycle", p_probes / n, c_probes / n, p_probes == c_probes),
                ("sim_ms_per_cycle", p_ms / n, c_ms / n, math.isclose(p_ms, c_ms, rel_tol=1e-6)),
            ):
                rows.append(
                    {
                        "workload": workload,
                        "metric": f"{metric}[seed {run['seed']}, {n} cycles]",
                        "parent": p,
                        "change": c,
                        "worse_by": 0.0 if same else worsening(p, c, "lower"),
                        "spread": 0.0,
                        "bound": 0.0,
                        "verdict": "ok" if same or c < p else "REGRESSION",
                    }
                )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    rows = compare(load(argv[0]), load(argv[1]))
    for row in rows:
        print(
            f"{row['workload']:13s} {row['metric']:40s} {row['parent']:12.4f} ->"
            f" {row['change']:12.4f}  worse by {row['worse_by']:+8.2%}"
            f"  (bound {row['bound']:.0%}, spread {row['spread']:.1%})  {row['verdict']}"
        )
    bad = [r for r in rows if r["verdict"] == "REGRESSION"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(bad)} regression(s), {len(unresolved)} unresolved, {len(rows)} compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
