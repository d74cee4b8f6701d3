"""Deterministic chaos campaigns for the mapping system.

The package turns the paper's fault discussion (probe loss and corruption,
Section 2.3.1; silently dead cables, Section 5.6; remapping after topology
changes) into an executable test harness:

- :mod:`repro.chaos.scenario` — the declarative schedule DSL;
- :mod:`repro.chaos.apply`    — event application through the epoch counters;
- :mod:`repro.chaos.oracles`  — the correctness contract, one oracle per clause;
- :mod:`repro.chaos.runner`   — (scenario × seed × topology) campaign sweeps;
- :mod:`repro.chaos.shrink`   — delta-debugging failing cells to minimal form;
- :mod:`repro.chaos.corpus`   — committed regression artifacts and replay.

``san-map chaos`` is the CLI entry; ``docs/CHAOS.md`` is the manual.
"""

from repro.chaos.oracles import (
    DEFAULT_ORACLES,
    CellContext,
    OracleVerdict,
    effective_network,
)
from repro.chaos.runner import (
    CampaignConfig,
    CampaignReport,
    CellResult,
    build_topology,
    demo_campaign,
    run_campaign,
    run_cell,
    save_report,
)
from repro.chaos.scenario import ChaosEvent, Scenario, ScenarioError
from repro.chaos.shrink import ShrinkResult, shrink_failure

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CellContext",
    "CellResult",
    "ChaosEvent",
    "DEFAULT_ORACLES",
    "OracleVerdict",
    "Scenario",
    "ScenarioError",
    "ShrinkResult",
    "build_topology",
    "demo_campaign",
    "effective_network",
    "run_campaign",
    "run_cell",
    "save_report",
    "shrink_failure",
]
