"""Which ``src/`` functions does no product entry point ever enter?

Run from the repository root (it takes a few minutes, so it is not part
of tier-1)::

    python tests/tools/reachability.py           # print the table
    python tests/tools/reachability.py --check   # compare with the committed one

It prints the docs/STATIC_ANALYSIS.md table on stdout, each row with the
disposition the committed table gives it (blank for a new row). With
``--check`` it prints nothing on stdout and exits 1 when a never-entered
def has no row, or a row names a def that is gone or that some entry
point now enters.

Every product entry point runs in its own subprocess with a generated
``sitecustomize.py`` on ``PYTHONPATH``. It installs a ``sys.setprofile``
collector (``threading.setprofile`` for later threads) that appends each
``src/`` code object the first time the process enters it to a file of
that process's own. A forked child reopens a file of its own, so pool
workers count. The entry points:

- every ``san-map`` subcommand on its smallest inputs (``chaos`` and
  ``tournament`` as CI runs them, plus one incremental ``chaos --config``
  run; ``generate`` for every kind; ``routes`` also on a fabric with a
  host-to-host cable), and ``san-lint`` (also ``--format json``);
- ``examples/*.py``;
- ``benchmarks/e2e/run.py --quick`` per workload (its results land in
  the git-ignored ``benchmarks/e2e/out/``, as any run's do);
- ``benchmarks/run_benchmarks.py --quick`` per suite, into a scratch
  ``--out``;
- ``san-map serve --burst``;
- a client session against ``san-map serve --config``: ping, tenants,
  stats (server-wide and per tenant), map, cut, plug, verify and
  shutdown, each op through :class:`~repro.service.client.MapClient`.

Every ``def`` under ``src/`` (by module and qualified name) that no
process entered is a row. A failing entry point is reported and fails
the run, because its functions would be listed as unreachable.

A disposition is one of (``test_reachability_table.py`` holds the
committed table to it in tier-1):

- ``delete`` — nothing calls it;
- ``reference: <path>`` — only tests call it, so it moves to the test
  helper at ``<path>`` that reads it;
- ``kept: <reason>`` — one of :data:`KEPT_REASONS`, optionally followed
  by `` — `` and a detail.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
TABLE = ROOT / "docs" / "STATIC_ANALYSIS.md"
HEADER = "| module | function | disposition |"

#: Why a never-entered def stays in ``src/``.
KEPT_REASONS = (
    "protocol or base-class method",
    "error path on outside input",
    "served op",
    "path taken only on failure",
    "registry kind",
)

_ROW = re.compile(r"^\| `([^`]+)` \| `([^`]+)` \| (.*?) ?\|$")

#: A one-tenant serve config and the client session run against it.
_TENANTS = [{"name": "t0", "topology": "ring", "params": {"size": 4}}]
_SESSION = '''\
import asyncio, subprocess, sys
from repro.service.client import MapClient


async def session(host, port):
    async with MapClient(host, port) as client:
        await client.ping()
        (tenant,) = await client.tenants()
        name = tenant["name"]
        await client.stats()
        assert (await client.map(name))["ok"]
        cut = await client.cut(name, auto=True)
        await client.request("plug", tenant=name, a=cut["cut"][0], b=cut["cut"][1])
        assert (await client.map(name))["ok"]
        assert (await client.verify(name))["ok"]
        await client.stats(name)
        await client.shutdown()


server = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--config", sys.argv[1], "--workers", "1"],
    stdout=subprocess.PIPE, text=True,
)
try:
    host, port = server.stdout.readline().rsplit(" ", 1)[1].rsplit(":", 1)
    asyncio.run(session(host, int(port)))
    sys.exit(server.wait(timeout=120))
finally:
    if server.poll() is None:  # the session failed before its shutdown
        server.kill()
'''

#: The smallest fabric with a host that is not a leaf: two hosts cabled
#: to each other beside a switch with two.
_HOST_CABLE = {
    "format": "san-map", "version": 1, "default_radix": 8,
    "hosts": [{"name": h} for h in ("h0", "h1", "h2", "h3")],
    "switches": [{"name": "s0", "radix": 8}],
    "wires": [
        {"a": {"node": "h0", "port": 0}, "b": {"node": "s0", "port": 0}},
        {"a": {"node": "h1", "port": 0}, "b": {"node": "s0", "port": 1}},
        {"a": {"node": "h2", "port": 0}, "b": {"node": "h3", "port": 0}},
    ],
}

#: An incremental campaign of one cut-then-heal cell.
_CAMPAIGN = {
    "name": "reachability",
    "scenarios": [{
        "name": "cut-then-heal", "seed": 103, "cycles": 3,
        "events": [{"action": "cut", "args": ["ring-s2", 1], "cycle": 1},
                   {"action": "heal", "args": ["ring-s2", 1], "cycle": 2}],
    }],
    "topologies": [{"kind": "ring", "size": 6}],
    "seeds": [0],
    "incremental": True,
}


_COLLECTOR = '''\
import os, sys, threading

_SRC = os.environ["REACH_SRC"]
_DIR = os.environ["REACH_DIR"]
_seen = {}
_out = None


def _open():
    global _out
    _seen.clear()
    _out = open(os.path.join(_DIR, f"{os.getpid()}.tsv"), "a", buffering=1)


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code  # kept alive, so an id is never reused
        if code.co_filename.startswith(_SRC):
            _out.write(f"{code.co_filename}\\t{code.co_qualname}\\n")


_open()
os.register_at_fork(after_in_child=_open)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def entry_points(scratch: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every product entry point, smallest inputs."""
    py = sys.executable
    san_map = [py, "-m", "repro"]
    ring, mapped = str(scratch / "ring.json"), str(scratch / "map.json")
    inputs = {"tenants.json": _TENANTS, "host-cable.json": _HOST_CABLE, "campaign.json": _CAMPAIGN}
    for name, doc in inputs.items():
        (scratch / name).write_text(json.dumps(doc))
    sys.path.insert(0, str(SRC))
    from repro.topology.generators.named import NAMED_TOPOLOGIES

    # Every kind ``generate`` offers (the fat trees have no flags there).
    runs = [
        (f"generate {kind}", [*san_map, "generate", "--topology", kind,
                              "--out", str(scratch / f"{kind}.json")])
        for kind in NAMED_TOPOLOGIES
        if kind != "ring" and not kind.startswith("fat-tree")
    ]
    runs += [
        ("generate", [*san_map, "generate", "--topology", "ring", "--out", ring]),
        ("analyze", [*san_map, "analyze", "--network", ring]),
        ("map", [*san_map, "map", "--network", ring, "--out", mapped, "--render",
                 "--profile", "--stats", "--stack"]),
        ("map list", [*san_map, "map", "--mapper", "list"]),
        ("routes", [*san_map, "routes", "--map", mapped, "--verify-against", ring]),
        ("routes lash", [*san_map, "routes", "--map", mapped, "--scheme", "lash"]),
        ("routes host cable", [*san_map, "routes", "--map", str(scratch / "host-cable.json")]),
        ("tournament", [*san_map, "tournament", "--quick", "--out", str(scratch / "t.json"),
                        "--check-against", "benchmarks/BENCH_tournament.json"]),
        ("chaos", [*san_map, "chaos", "--report", str(scratch / "r.json"),
                   "--corpus", str(scratch / "corpus")]),
        ("chaos replay", [*san_map, "chaos", "--replay-corpus", "tests/chaos/corpus"]),
        ("chaos incremental", [*san_map, "chaos", "--config", str(scratch / "campaign.json"),
                               "--verbose", "--shrink"]),
        ("serve", [*san_map, "serve", "--burst", "1", "--tenants", "2", "--workers", "1"]),
        ("client session", [py, "-c", _SESSION, str(scratch / "tenants.json")]),
        ("experiment", [*san_map, "experiment", "all"]),
        ("export-data", [*san_map, "export-data", "--out", str(scratch / "data")]),
        ("san-lint", [py, "-m", "repro.analysis.cli", "src/repro", "benchmarks", "examples"]),
        ("san-lint rules", [py, "-m", "repro.analysis.cli", "--list-rules"]),
        ("san-lint json", [py, "-m", "repro.analysis.cli", "--format", "json", "src/repro/analysis"]),
    ]
    runs += [(f"example {p.stem}", [py, str(p)]) for p in sorted(ROOT.glob("examples/*.py"))]
    for workload in ("now_cold", "now_recover", "fattree_map", "served_churn"):
        runs.append((f"e2e {workload}", [py, "benchmarks/e2e/run.py", "--quick",
                                         "--seconds", "1", "--workload", workload]))
    for suite in ("micro", "scale", "remap"):
        runs.append((f"bench {suite}", [py, "benchmarks/run_benchmarks.py", "--quick",
                                        "--repeats", "1", "--suite", suite,
                                        "--out", str(scratch / "bench")]))
    return runs


def defined_functions() -> set[tuple[str, str]]:
    """``(module path, qualname)`` of every ``def`` under ``src/``."""
    found: set[tuple[str, str]] = set()

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                found.add((path, qual))
                walk(child, qual + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for file in sorted(SRC.rglob("*.py")):
        walk(ast.parse(file.read_text()), "", str(file.relative_to(ROOT)))
    return found


def entered(reach_dir: Path) -> set[tuple[str, str]]:
    seen = set()
    for file in reach_dir.glob("*.tsv"):
        for line in file.read_text().splitlines():
            filename, qual = line.split("\t")
            seen.add((str(Path(filename).relative_to(ROOT)), qual))
    return seen


def committed_table(path: Path = TABLE) -> dict[tuple[str, str], str]:
    """``(module path, qualname) -> disposition`` of the committed table."""
    rows: dict[tuple[str, str], str] = {}
    lines = iter(path.read_text().splitlines())
    for line in lines:
        if line == HEADER:
            break
    next(lines, None)  # the |---| rule
    for line in lines:
        match = _ROW.match(line)
        if match is None:
            break
        module, qual, disposition = match.groups()
        rows[("src/" + module, qual)] = disposition.strip()
    return rows


def disposition_problem(disposition: str) -> str | None:
    """Why ``disposition`` is not from the vocabulary, or None."""
    if disposition == "delete":
        return None
    kind, _, rest = disposition.partition(": ")
    if kind == "reference":
        return None if (ROOT / rest).is_file() else f"no file {rest}"
    if kind == "kept":
        reason = rest.split(" — ")[0]
        return None if reason in KEPT_REASONS else f"unknown reason {reason!r}"
    return f"not delete / reference: <path> / kept: <reason>: {disposition!r}"


def check(never: set[tuple[str, str]], defined: set[tuple[str, str]]) -> list[str]:
    """Every way the committed table disagrees with this run."""
    rows = committed_table()
    problems = [f"no row for never-entered {path}:{qual}" for path, qual in sorted(never - set(rows))]
    for (path, qual) in sorted(set(rows) - never):
        gone = (path, qual) not in defined
        problems.append(f"row for {path}:{qual}, which is " + ("gone" if gone else "now entered"))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the committed table is out of date")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / "site").mkdir()
        (scratch / "site" / "sitecustomize.py").write_text(_COLLECTOR)
        reach_dir = scratch / "reach"
        reach_dir.mkdir()
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(scratch / "site"), str(SRC)]),
            "REACH_SRC": str(SRC) + os.sep,
            "REACH_DIR": str(reach_dir),
        }
        failed = []
        for label, cmd in entry_points(scratch):
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            print(f"{label}: exit {done.returncode}", file=sys.stderr)
            if done.returncode != 0:
                failed.append(label)
                print(done.stderr[-2000:], file=sys.stderr)
        seen = entered(reach_dir)
    defined = defined_functions()
    never = defined - seen
    print(f"{len(never)} functions never entered"
          + (f"; entry points failed: {', '.join(failed)}" if failed else ""),
          file=sys.stderr)
    if args.check:
        problems = check(never, defined)
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1 if failed or problems else 0
    rows = committed_table()
    print(HEADER)
    print("|---|---|---|")
    for path, qual in sorted(never):
        disposition = rows.get((path, qual))
        cell = f" {disposition} " if disposition else " "
        print(f"| `{path.removeprefix('src/')}` | `{qual}` |{cell}|")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
