"""Self-tests of the benchmark, on ``--quick`` sizes (subcluster C, k=4)."""

import asyncio
import copy
import json
import re
import subprocess
import sys

import pytest

import compare
import run
import workloads as wl

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in run.SPEC["workloads"]]


def quick_run(workload, trace=False, cycles=2):
    return asyncio.run(run.measure(workload, 30, trace, cycles, 1))


# -- names ---------------------------------------------------------------
def test_spec_names_and_whys():
    assert WORKLOADS == list(wl.WORKLOADS)
    for spec in run.SPEC["workloads"]:
        assert spec["why"] == wl.WORKLOADS[spec["name"]].why
    names = WORKLOADS + [
        m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert run.SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_printed_metrics_are_the_declared_ones(name, trace, capsys):
    result = run.run_one(name, seed=0, seconds=30, trace=trace, quick=True)
    declared = run.SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1]) == result
    for metric in result["metrics"]:
        assert re.search(rf"^\s+{re.escape(metric)}\s+\S+\s+\S+\s+n=\d+$", out, re.M)
    if trace:
        planned = name in ("now_recover", "served_churn")
        assert result["metrics"]["core.seeded_share"]["value"] == (1.0 if planned else 0.0)
        service_rows = [v["value"] for k, v in result["metrics"].items() if k.startswith("service.")]
        assert any(service_rows) == (name == "served_churn")


def test_command_line_contract():
    done = subprocess.run(
        [sys.executable, run.__file__, "--workload", "now_cold", "--seed", "3",
         "--seconds", "30", "--trace", "0", "--quick"],
        capture_output=True, text=True,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert all(v["value"] > 0 for v in last["metrics"].values())


# -- inputs --------------------------------------------------------------
def test_cuts_are_deterministic_and_never_a_bridge():
    first, again = (wl.CutPlanner(7, quick=True) for _ in range(2))
    epochs = [first.epoch(), first.epoch()]
    assert epochs == [again.epoch(), again.epoch()]
    assert epochs[0] != wl.CutPlanner(8, quick=True).epoch()
    for cuts in epochs:
        net = wl._now_fabric(quick=True)
        assert cuts
        for (node, port), (other, other_port) in cuts:
            assert net.is_switch(node) and net.is_switch(other)
            wire = net.wire_at(node, port)
            assert (wire.b.node, wire.b.port) == (other, other_port)
            net.disconnect(wire)
            assert net.is_connected()


def test_simulated_statistics_repeat_exactly():
    runs = [quick_run(wl.NowRecover(5, quick=True), cycles=3) for _ in range(2)]
    stats = [[(s.outcome.probes, s.outcome.sim_ms) for s in r.samples] for r in runs]
    assert stats[0] == stats[1]
    assert all(s.outcome.seeded for s in runs[0].samples)


# -- open loop -----------------------------------------------------------
def test_lookups_are_timed_from_when_they_were_due():
    now = [0.0]
    stop = asyncio.Event()
    out = []

    async def sleep(seconds):
        now[0] += seconds

    async def send(src, dst):
        now[0] += 0.5 if len(out) == 2 else 0.0001  # the third reply stalls
        if len(out) == 9:
            stop.set()
        return {"ok": True}

    asyncio.run(
        wl.open_loop_lookups(
            send, [("a", "b")], 100.0, stop, out, clock=lambda: now[0], sleep=sleep
        )
    )
    assert [round(look.due, 2) for look in out[:4]] == [0.0, 0.01, 0.02, 0.03]
    # Due 10 ms after the stalled one, sent only when it returned: it
    # waited ~0.49 s although its own round trip took 0.1 ms.
    after = out[3]
    assert after.done - after.sent == pytest.approx(0.0001)
    assert after.sent - after.due == pytest.approx(0.4901, abs=1e-3)
    assert after.done - after.due > 0.49
    # The schedule is not pushed back: the backlog drains, later ones are on time.
    assert sum(look.done - look.due > wl.LOOKUP_LIMIT_S for look in out) > 5


# -- failures are counted, not raised ------------------------------------
def test_failing_cycles_land_in_the_failed_count(capsys):
    measured = quick_run(wl.ServedChurn(0, quick=True, corrupt_prob=1.0))
    attempted, failed, failures = run.tally(measured)
    assert failed >= len(measured.samples) == 2
    assert all(s.outcome.errors for s in measured.samples)
    assert any(f.startswith("cycle 0:") for f in failures)
    assert failed <= attempted


def test_a_raising_cycle_is_a_counted_failure():
    class Broken(wl.NowCold):
        async def cycle(self):
            raise RuntimeError("boom")

    measured = quick_run(Broken(0, quick=True))
    _, failed, failures = run.tally(measured)
    assert failed == 2 and "boom" in failures[0]


# -- compare.py ----------------------------------------------------------
def synthetic_result(scale=1.0, failed=0):
    metrics = {
        m["name"]: {"value": 100.0, "unit": m["unit"]} for m in run.SPEC["end_to_end"]
    }
    metrics["cycle_p50_ms"]["value"] *= scale
    detail = {
        "metrics": metrics,
        "attempted": 10,
        "failed": failed,
        "cycles": [{"probes": 100, "sim_ms": 12.5}] * 4,
    }
    return {
        "seed": 0,
        "workloads": {w: {"end_to_end": copy.deepcopy(detail)} for w in WORKLOADS},
    }


def verdicts(rows, metric):
    return {r["verdict"] for r in rows if r["metric"].startswith(metric)}


def test_compare_applies_the_bounds():
    base = synthetic_result()
    bound = next(m["bound"] for m in run.SPEC["end_to_end"] if m["name"] == "cycle_p50_ms")
    within = compare.compare([base], [synthetic_result(1 + bound - 0.05)])
    assert verdicts(within, "cycle_p50_ms") == {"ok"}
    rows = compare.compare([base], [synthetic_result(1 + bound + 0.05)])
    assert verdicts(rows, "cycle_p50_ms") == {"REGRESSION"}
    assert verdicts(rows, "peak_rss_mb") == {"ok"}
    assert verdicts(compare.compare([base], [synthetic_result(failed=1)]), "failed_share") == {
        "REGRESSION"
    }
    more_probes = synthetic_result()
    more_probes["workloads"]["now_cold"]["end_to_end"]["cycles"][0] = {
        "probes": 101, "sim_ms": 12.5,
    }  # fmt: skip
    assert "REGRESSION" in verdicts(compare.compare([base], [more_probes]), "probes_per_cycle")
    # A parent noisier than the bound cannot show a regression, only leave it open.
    noisy = [synthetic_result(s) for s in (0.6, 0.8, 1.0, 1.2, 1.4)]
    assert verdicts(compare.compare(noisy, [synthetic_result(1.3)]), "cycle_p50_ms") == {
        "unresolved"
    }
    assert verdicts(compare.compare(noisy, [synthetic_result(0.5)]), "cycle_p50_ms") == {"ok"}
