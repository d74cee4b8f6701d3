"""Which ``src/`` functions does no product entry point ever enter?

Run from the repository root (it takes a few minutes, so it is not part
of tier-1)::

    python tests/tools/reachability.py

It prints the docs/STATIC_ANALYSIS.md table on stdout.

Every product entry point runs in its own subprocess with a generated
``sitecustomize.py`` on ``PYTHONPATH``. It installs a ``sys.setprofile``
collector (``threading.setprofile`` for later threads) that appends each
``src/`` code object the first time the process enters it to a file of
that process's own. A forked child reopens a file of its own, so pool
workers count. The entry points:

- every ``san-map`` subcommand on its smallest inputs (``chaos`` and
  ``tournament`` as CI runs them), and ``san-lint``;
- ``examples/*.py``;
- ``benchmarks/e2e/run.py --quick`` per workload (its results land in
  the git-ignored ``benchmarks/e2e/out/``, as any run's do);
- ``benchmarks/run_benchmarks.py --quick`` per suite, into a scratch
  ``--out``;
- ``san-map serve --burst``.

Every ``def`` under ``src/`` (by module and qualified name) that no
process entered is a row, with an empty disposition column. A failing entry point is reported and fails
the run, because its functions would be listed as unreachable.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

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
    runs = [
        ("generate", [*san_map, "generate", "--topology", "ring", "--out", ring]),
        ("analyze", [*san_map, "analyze", "--network", ring]),
        ("map", [*san_map, "map", "--network", ring, "--out", mapped, "--render",
                 "--profile", "--stats", "--stack"]),
        ("map list", [*san_map, "map", "--mapper", "list"]),
        ("routes", [*san_map, "routes", "--map", mapped, "--verify-against", ring]),
        ("routes lash", [*san_map, "routes", "--map", mapped, "--scheme", "lash"]),
        ("tournament", [*san_map, "tournament", "--quick", "--out", str(scratch / "t.json"),
                        "--check-against", "benchmarks/BENCH_tournament.json"]),
        ("chaos", [*san_map, "chaos", "--report", str(scratch / "r.json"),
                   "--corpus", str(scratch / "corpus")]),
        ("chaos replay", [*san_map, "chaos", "--replay-corpus", "tests/chaos/corpus"]),
        ("serve", [*san_map, "serve", "--burst", "1", "--tenants", "2", "--workers", "1"]),
        ("experiment", [*san_map, "experiment", "all"]),
        ("export-data", [*san_map, "export-data", "--out", str(scratch / "data")]),
        ("san-lint", [py, "-m", "repro.analysis.cli", "src/repro", "benchmarks", "examples"]),
        ("san-lint rules", [py, "-m", "repro.analysis.cli", "--list-rules"]),
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


def main() -> int:
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
    never = sorted(defined_functions() - seen)
    print("| module | function | disposition |")
    print("|---|---|---|")
    for path, qual in never:
        print(f"| `{path.removeprefix('src/')}` | `{qual}` | |")
    print(f"{len(never)} functions never entered"
          + (f"; entry points failed: {', '.join(failed)}" if failed else ""),
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
