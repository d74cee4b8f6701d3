"""Lint a source string: the unit the rule golden tests drive.

No product path lints a string (``san-lint`` lints files through
``lint_paths``); this is the same module pass, fed from memory.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import _run_rules, lint_module_info
from repro.analysis.registry import iter_rules


def lint_source(
    source: str,
    *,
    path: Path | str = "<string>",
    module: str | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint a source string (the unit the golden-file tests drive)."""
    # Import for the registration side effect; idempotent after first call.
    import repro.analysis.rules  # noqa: F401

    info = lint_module_info(source, path=Path(path))
    if module is not None:  # the dotted name a package-scoped rule keys off
        info = dataclasses.replace(info, module=module)
    return sorted(_run_rules(info, iter_rules(select, ignore)))
