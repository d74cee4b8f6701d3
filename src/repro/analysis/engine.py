"""The ``sanlint`` engine: file discovery, parsing, suppression, reporting.

The engine is deliberately plain: every rule gets a parsed
:class:`ModuleInfo` and yields :class:`~repro.analysis.diagnostics.Diagnostic`
objects; the engine filters the ones suppressed by ``# sanlint:`` comments
and sorts the rest into a stable report.

Suppression comments
--------------------
``# sanlint: disable=SAN002`` on a line suppresses the named rule(s) for
diagnostics reported on that physical line; several ids may be separated by
commas, and omitting ``=...`` suppresses every rule on the line. A
``# sanlint: disable-file=SAN003`` comment anywhere in a module suppresses
the named rule(s) for the whole file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, iter_rules

__all__ = [
    "ModuleInfo",
    "collect_files",
    "lint_paths",
    "module_name_for",
    "render_report",
]

#: Suppresses all rules when the id list is omitted.
_SUPPRESS_RE = re.compile(
    r"#\s*sanlint:\s*disable(?P<whole_file>-file)?"
    r"(?:\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+?))?\s*(?:#|$)"
)

#: Marks a file parse failure; not a registrable rule, never suppressible.
PARSE_ERROR_ID = "SAN000"


@dataclass
class ModuleInfo:
    """A parsed module plus everything rules need to reason about it."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    line_suppressions: dict[int, set[str] | None]
    file_suppressions: set[str] | None | bool

    def in_package(self, *prefixes: str) -> bool:
        """Is this module inside any of the given dotted packages?"""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built once per module)."""
        out: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                out[child] = parent
        return out

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, ast.ClassDef):
                return cur
            cur = self.parents.get(cur)
        return None

    def is_suppressed(self, diag: Diagnostic) -> bool:
        if diag.rule_id == PARSE_ERROR_ID:
            return False
        if self.file_suppressions is None:
            return True
        if self.file_suppressions and diag.rule_id in self.file_suppressions:
            return True
        if diag.line in self.line_suppressions:
            ids = self.line_suppressions[diag.line]
            return ids is None or diag.rule_id in ids
        return False


def _scan_suppressions(source: str) -> tuple[dict[int, set[str] | None], set[str] | None | bool]:
    line_level: dict[int, set[str] | None] = {}
    file_level: set[str] | None | bool = False
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        raw = m.group("ids")
        ids = (
            {part.strip().upper() for part in raw.split(",") if part.strip()}
            if raw
            else None
        )
        if m.group("whole_file"):
            if ids is None or file_level is None:
                file_level = None
            elif file_level is False:
                file_level = set(ids)
            else:
                file_level |= ids
        else:
            existing = line_level.get(lineno, set())
            if ids is None or existing is None:
                line_level[lineno] = None
            else:
                line_level[lineno] = set(existing) | ids
    return line_level, file_level


def module_name_for(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    cur = path.parent
    while (cur / "__init__.py").exists():
        parts.insert(0, cur.name)
        parent = cur.parent
        if parent == cur:  # filesystem root
            break
        cur = parent
    return ".".join(parts) if parts else path.stem


def lint_module_info(source: str, *, path: Path) -> ModuleInfo:
    tree = ast.parse(source, filename=str(path))
    line_level, file_level = _scan_suppressions(source)
    return ModuleInfo(
        path=path,
        module=module_name_for(path),
        source=source,
        tree=tree,
        line_suppressions=line_level,
        file_suppressions=file_level,
    )


def collect_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    seen: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            seen.update(q for q in p.rglob("*.py") if q.is_file())
        elif p.suffix == ".py" and p.is_file():
            seen.add(p)
        else:
            raise FileNotFoundError(f"not a python file or directory: {p}")
    return sorted(seen)


def _run_rules(info: ModuleInfo, rules: Sequence[Rule]) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for rule in rules:
        for diag in rule.check(info):
            if not info.is_suppressed(diag):
                out.append(diag)
    return out


def lint_paths(
    paths: Sequence[Path | str],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint files and directories; returns all diagnostics, sorted."""
    import repro.analysis.rules  # noqa: F401

    rules = iter_rules(select, ignore)
    out: list[Diagnostic] = []
    for path in collect_files(paths):
        try:
            info = lint_module_info(
                path.read_text(encoding="utf-8"), path=path
            )
        except SyntaxError as exc:
            out.append(
                Diagnostic(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule_id=PARSE_ERROR_ID,
                    message=f"could not parse: {exc.msg}",
                    hint=None,
                )
            )
            continue
        out.extend(_run_rules(info, rules))
    return sorted(out)


def render_report(
    diagnostics: Sequence[Diagnostic], *, show_hints: bool = True
) -> str:
    """The human-readable report: one entry per diagnostic plus a summary."""
    lines = [d.render(show_hint=show_hints) for d in diagnostics]
    n = len(diagnostics)
    lines.append(
        "sanlint: clean" if n == 0 else f"sanlint: {n} violation{'s' if n != 1 else ''}"
    )
    return "\n".join(lines)
