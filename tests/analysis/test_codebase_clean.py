"""Tier-1 gate: ``san-lint`` over the whole package on every pytest run.

A change that violates a SAN rule fails here, before review. The second
half seeds one violation per rule into a temporary file and checks the
console entry point reports it — rule id, file, line — with exit code 1.
"""

from __future__ import annotations

import inspect
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rule_ids, lint_paths, render_report
from repro.analysis.cli import main

from tests.analysis.test_rules import BAD_SNIPPETS

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"


def test_package_exists_where_expected():
    assert (PACKAGE / "__init__.py").is_file()


def test_whole_package_lints_clean():
    # The acceptance bar: src/repro is green under every registered rule.
    diagnostics = lint_paths([PACKAGE])
    assert diagnostics == [], "\n" + render_report(diagnostics)


def test_clean_means_clean_not_suppressed():
    """No sanctioned suppression is left: the pure-walk and pairwise oracles
    that used to carry ``disable`` comments live under ``tests/``. Only the
    linter's own sources may spell the marker (they parse and document it)."""
    suppressed = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "analysis" not in path.relative_to(PACKAGE).parts
        and "sanlint: disable" in path.read_text()
    ]
    assert suppressed == []


def test_reference_knobs_stay_out_of_production_signatures():
    """The keywords that selected a reference implementation (cache off,
    pairwise search, prebuilt phase graph) are gone; the oracles are
    ``tests/**/reference_*.py``. Pinned whole, so that widening one of
    these signatures again is a decision, not a drift."""
    from repro.routing.paths import all_pairs_updown_paths
    from repro.simulator.quiescent import QuiescentProbeService
    from repro.topology.isomorphism import match_networks

    def parameters(func):
        return list(inspect.signature(func).parameters)

    assert parameters(QuiescentProbeService) == [
        "net", "mapper", "collision", "responders", "faults", "jitter", "layers", "rng",
    ]
    assert parameters(match_networks) == ["model", "actual"]
    assert parameters(all_pairs_updown_paths) == ["net", "orientation"]


def test_cli_exits_zero_on_clean_tree(capsys):
    # The whole package is linted once, above; the console script's exit
    # status and summary line need only a clean tree — the linter's own.
    assert main([str(PACKAGE / "analysis")]) == 0
    assert "sanlint: clean" in capsys.readouterr().out


@pytest.mark.parametrize("rule_id", sorted(BAD_SNIPPETS))
def test_cli_reports_seeded_violation(rule_id, tmp_path, capsys):
    # Package-scoped rules (SAN001, SAN007) key off the dotted module
    # name, which the engine infers by walking __init__.py parents — so seed
    # the violation inside a fake `repro.core` package.
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    bad = pkg / f"bad_{rule_id.lower()}.py"
    bad.write_text(textwrap.dedent(BAD_SNIPPETS[rule_id]))
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if rule_id in ln)
    # `path:line:col: RULE message` — the location must be real.
    assert line.startswith(str(bad) + ":")
    reported_line = int(line.split(":")[1])
    assert 1 <= reported_line <= len(bad.read_text().splitlines())


def test_cli_list_rules_names_all_thirteen(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rule_ids():
        assert rule_id in out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(textwrap.dedent(BAD_SNIPPETS["SAN008"]))
    assert main(["--format", "json", str(bad)]) == 1
    out = capsys.readouterr().out
    assert '"rule": "SAN008"' in out


def test_cli_unknown_rule_is_an_error(capsys):
    # Retired ids are never reused and no longer selectable.
    for rule_id in ("SAN999", "SAN004", "SAN005", "SAN010", "SAN012"):
        assert main(["--select", rule_id, str(PACKAGE)]) == 2
        assert "unknown rule" in capsys.readouterr().err
