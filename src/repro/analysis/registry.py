"""Rule base class and registry for :mod:`repro.analysis`.

Rules are small classes registered by decorating them with
:func:`register`. Each carries

- ``rule_id`` — ``SANxxx``, the stable identifier used in reports and in
  ``# sanlint: disable=SANxxx`` suppression comments;
- ``title`` — a one-line summary for ``san-lint --list-rules``;
- ``rationale`` — why the invariant matters for the reproduction (the
  paper-level argument, kept next to the code that enforces it);
- ``hint`` — the default fix-it hint attached to every diagnostic.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator

from repro.analysis.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.engine import ModuleInfo

__all__ = [
    "Rule",
    "all_rule_ids",
    "get_rule",
    "iter_rules",
    "register",
]

_RULE_ID_RE = re.compile(r"^SAN\d{3}$")


class Rule:
    """Base class: one invariant, checked per module."""

    rule_id: ClassVar[str]
    title: ClassVar[str]
    rationale: ClassVar[str]
    hint: ClassVar[str]

    def check(self, module: "ModuleInfo") -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(
        self,
        module: "ModuleInfo",
        node: ast.AST,
        message: str,
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node`` with this rule's hint."""
        return Diagnostic(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
            hint=self.hint,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    rule_id = getattr(cls, "rule_id", "")
    if not _RULE_ID_RE.match(rule_id):
        raise ValueError(f"rule id {rule_id!r} does not match SANxxx")
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = cls
    return cls


def all_rule_ids() -> list[str]:
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> type[Rule]:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(all_rule_ids())}"
        ) from None


def iter_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Instantiate the selected rules (all registered ones by default)."""
    chosen = list(select) if select is not None else all_rule_ids()
    dropped = set(ignore or ())
    rules: list[Rule] = []
    for rule_id in chosen:
        if rule_id in dropped:
            continue
        rules.append(get_rule(rule_id)())
    return rules
