"""Diagnostic records produced by :mod:`repro.analysis` rules.

A diagnostic pins a rule violation to a file, line, and column, carries the
human-readable message, and (optionally) a *fix-it hint* — one sentence
telling the author the sanctioned way to write the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Diagnostic"]


@dataclass(frozen=True, slots=True, order=True)
class Diagnostic:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    hint: str | None = field(default=None, compare=False)

    def render(self, *, show_hint: bool = True) -> str:
        """``path:line:col: SANxxx message`` plus an indented hint line."""
        head = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if show_hint and self.hint:
            return f"{head}\n    hint: {self.hint}"
        return head

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "hint": self.hint,
        }
