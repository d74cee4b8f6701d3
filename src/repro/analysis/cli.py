"""``san-lint``: the command-line front end of :mod:`repro.analysis`.

Exit status is 0 when every linted file is clean and 1 when any diagnostic
survives suppression — which is what lets CI (and the tier-1 test
``tests/analysis/test_codebase_clean.py``) gate on the domain rules.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.engine import lint_paths, render_report
from repro.analysis.registry import all_rule_ids, get_rule

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="san-lint",
        description=(
            "Domain-aware static analysis for the SAN mapping reproduction: "
            "simulator determinism and probe-protocol invariants."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--no-hints",
        action="store_true",
        help="omit fix-it hint lines from the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _split_ids(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def _list_rules() -> int:
    # Importing for the registration side effect.
    import repro.analysis.rules  # noqa: F401

    for rule_id in all_rule_ids():
        cls = get_rule(rule_id)
        print(f"{rule_id}  {cls.title}")
        print(f"        rationale: {cls.rationale}")
        print(f"        fix-it:    {cls.hint}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    try:
        diagnostics = lint_paths(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
        )
    except (FileNotFoundError, KeyError) as exc:
        print(f"san-lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([d.to_json() for d in diagnostics], indent=2))
    else:
        print(render_report(diagnostics, show_hints=not args.no_hints))
    return 1 if diagnostics else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
