"""Mutant-based acceptance tests for the rules.

Each test copies a *real* simulator module, seeds exactly the defect its
rule exists to catch — a wall-clock RNG seed, a state-mutating layer
hook — and asserts ``san-lint`` exits non-zero with the expected rule id,
while an unmutated copy lints green: the rules catch the regressions they
were built for, on the code they were built for, not just on synthetic
snippets. (A deleted epoch bump or an unseeded ``FaultModel`` RNG fails a
dynamic tier-1 test instead — see docs/STATIC_ANALYSIS.md.)
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def install_copy(tmp_path: Path, relpath: str, source: str) -> Path:
    """Write a module copy under a fake ``repro`` package tree."""
    dest = tmp_path / "repro" / relpath
    dest.parent.mkdir(parents=True, exist_ok=True)
    cur = dest.parent
    while cur != tmp_path:
        (cur / "__init__.py").touch()
        cur = cur.parent
    dest.write_text(source)
    return dest


def lint_ids(path: Path) -> list[str]:
    return [d.rule_id for d in lint_paths([path])]


def run_cli(path: Path, capsys) -> tuple[int, str]:
    code = main([str(path)])
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# clean copies of the epoch-versioned modules, and a wall-clock RNG seed
# ---------------------------------------------------------------------------


def test_clean_network_copy_lints_green(tmp_path):
    source = (SRC / "topology" / "model.py").read_text()
    copy = install_copy(tmp_path, "topology/model.py", source)
    assert lint_ids(copy) == []


def test_clean_fault_model_copy_lints_green(tmp_path):
    source = (SRC / "simulator" / "faults.py").read_text()
    copy = install_copy(tmp_path, "simulator/faults.py", source)
    assert lint_ids(copy) == []


def test_wall_clock_seed_fires_san013(tmp_path, capsys):
    # SAN013 is retired; SAN001 (wall clock in simulator code) always
    # caught this mutant too, and names the unreplayable source.
    source = (SRC / "simulator" / "faults.py").read_text()
    mutated = source.replace(
        "random.Random(self.seed)", "random.Random(time.time())"
    ).replace("import random\n", "import random\nimport time\n")
    copy = install_copy(tmp_path, "simulator/faults.py", mutated)
    code, out = run_cli(copy, capsys)
    assert code == 1
    assert "SAN001" in out and "time.time" in out


# ---------------------------------------------------------------------------
# SAN014: add a direct state mutation inside a real ProbeLayer hook
# ---------------------------------------------------------------------------


def test_clean_stack_copy_lints_green(tmp_path):
    source = (SRC / "simulator" / "stack.py").read_text()
    copy = install_copy(tmp_path, "simulator/stack.py", source)
    assert lint_ids(copy) == []


def test_state_mutating_hook_fires_san014(tmp_path, capsys):
    source = (SRC / "simulator" / "stack.py").read_text()
    needle = "    def fire(self, payload: object) -> None:"
    assert needle in source
    mutated = source.replace(
        needle,
        "    def sabotage(self, ctx, faults):\n"
        "        faults.drop_prob = 0.75\n"
        "\n" + needle,
        1,
    )
    copy = install_copy(tmp_path, "simulator/stack.py", mutated)
    code, out = run_cli(copy, capsys)
    assert code == 1
    assert "SAN014" in out and "sabotage" in out and "drop_prob" in out


def test_private_mutator_call_in_hook_fires_san014(tmp_path, capsys):
    source = (SRC / "simulator" / "stack.py").read_text()
    needle = "    def fire(self, payload: object) -> None:"
    mutated = source.replace(
        needle,
        "    def sneak(self, ctx, net):\n"
        "        net._rewire_backdoor(ctx)\n"
        "\n" + needle,
        1,
    )
    copy = install_copy(tmp_path, "simulator/stack.py", mutated)
    code, out = run_cli(copy, capsys)
    assert code == 1
    assert "SAN014" in out and "_rewire_backdoor" in out


def test_public_mutator_call_in_hook_stays_green(tmp_path):
    # Chaos layers inject faults through the epoch-bumping public API —
    # that is the sanctioned path and must not be flagged.
    source = (SRC / "simulator" / "stack.py").read_text()
    needle = "    def fire(self, payload: object) -> None:"
    mutated = source.replace(
        needle,
        "    def inject(self, ctx, faults):\n"
        "        faults.set_drop_prob(0.75)\n"
        "\n" + needle,
        1,
    )
    copy = install_copy(tmp_path, "simulator/stack.py", mutated)
    assert lint_ids(copy) == []

