"""The size of a Python source tree, as four counts.

    python tests/tools/size.py            # src/
    python tests/tools/size.py PATH ...   # files or directories

- **code lines**: lines that hold a token other than a comment or a
  docstring (``tokenize``). Blank lines, comment-only lines and the lines
  of a module, class or function docstring do not count; every line of a
  multi-line statement or string that is not a docstring does.
- **defs**: ``def`` and ``async def`` statements (lambdas are not defs).
- **defaulted parameters**: parameters of those defs that have a default,
  positional or keyword-only.
- **defaulted dataclass fields**: annotated assignments with a value in
  the body of a class decorated ``@dataclass`` (called or not, bare or
  ``dataclasses.``-qualified); a ``ClassVar`` is not a field, and a
  ``field(...)`` call with neither ``default`` nor ``default_factory``
  (``compare=False``, ``kw_only=True``, ``init=False``) has no default.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Token types that put no code on a line.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}

FIELDS = ("code lines", "defs", "defaulted parameters", "defaulted dataclass fields")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, (first.end_lineno or first.lineno) + 1))
    return lines


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    return isinstance(target, ast.Name) and target.id == "ClassVar"


def _has_default(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return True
    target = value.func
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name != "field" or any(
        kw.arg in ("default", "default_factory") for kw in value.keywords
    )


def defaulted_fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The defaulted field statements of a ``@dataclass`` class (none for another class)."""
    if not _is_dataclass(node):
        return []
    return [
        stmt for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and stmt.value is not None
        and _has_default(stmt.value)
        and not _is_classvar(stmt.annotation)
    ]


def count_source(source: str) -> dict[str, int]:
    """The four counts of one module's source text."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    defs = defaulted = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs += 1
            defaulted += len(node.args.defaults)
            defaulted += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            fields += len(defaulted_fields(node))
    return dict(zip(FIELDS, (len(code - docstrings), defs, defaulted, fields)))


def count_paths(paths: list[Path]) -> dict[str, int]:
    """The four counts summed over every ``.py`` file under ``paths``."""
    totals = dict.fromkeys(FIELDS, 0)
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            for name, value in count_source(file.read_text(encoding="utf-8")).items():
                totals[name] += value
    return totals


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [ROOT / "src"]
    for name, value in count_paths(paths).items():
        print(f"{name:<28}{value:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
