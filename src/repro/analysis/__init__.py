"""``sanlint`` — domain-aware static analysis for the reproduction.

The Berkeley algorithm's correctness argument (Section 3) assumes things
the code can only honour by discipline: deterministic simulated time,
seeded RNGs everywhere, and all network observation flowing through
:class:`~repro.simulator.probes.ProbeService`. This package makes those
substrate guarantees machine-checked, one module at a time:

- :mod:`repro.analysis.registry` — the ``Rule`` base class and the
  ``SANxxx`` registry;
- :mod:`repro.analysis.rules` — the ten rules (SAN001-SAN003,
  SAN006-SAN009, SAN011, SAN014, SAN015; SAN004, SAN005, SAN010, SAN012
  and SAN013 are retired and their guarantee is carried by runtime checks and
  dynamic tests — see ``docs/STATIC_ANALYSIS.md``);
- :mod:`repro.analysis.engine` — parsing, ``# sanlint: disable=...``
  suppression and reporting;
- :mod:`repro.analysis.cli` — the ``san-lint`` console script;
- ``tests/analysis/test_codebase_clean.py`` — lints ``src/repro`` on every
  pytest run, so a violating change fails tier-1.
"""

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import lint_paths, render_report
from repro.analysis.registry import all_rule_ids, get_rule, iter_rules

__all__ = [
    "Diagnostic",
    "all_rule_ids",
    "get_rule",
    "iter_rules",
    "lint_paths",
    "render_report",
]
