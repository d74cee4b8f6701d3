"""Chaos documents only tests write.

No product path promotes a shrunk failure to a corpus artifact, prints a
shrink result as JSON, or writes a campaign config (``san-map chaos
--config`` only reads one). The tests that pin those shapes build them
here, from the product's own schema and codecs.
"""

from __future__ import annotations

from typing import Any

from repro.chaos.corpus import _SCHEMA
from repro.chaos.runner import CampaignConfig
from repro.chaos.scenario import scenario_to_dict
from repro.chaos.shrink import ShrinkResult


def artifact_from_shrink(name: str, shrink: ShrinkResult) -> dict[str, Any]:
    """Promote a shrunk failure: the artifact asserts the bug still bites."""
    final = shrink.final
    if final is None:
        raise ValueError("shrink result has no final cell")
    return {
        "schema": _SCHEMA,
        "name": name,
        "scenario": scenario_to_dict(shrink.scenario),
        "topology": dict(shrink.topology),
        "expect_failing": list(shrink.failing),
        "cells": [
            {
                "seed": shrink.seed,
                "map_digest": final.map_digest,
                "verdicts": {v.oracle: v.ok for v in final.verdicts},
            }
        ],
    }


def shrink_result_to_dict(shrink: ShrinkResult) -> dict[str, Any]:
    return {
        "scenario": scenario_to_dict(shrink.scenario),
        "topology": dict(shrink.topology),
        "seed": shrink.seed,
        "failing": list(shrink.failing),
        "runs": shrink.runs,
        "original_events": len(shrink.original.scenario.events),
        "shrunk_events": shrink.n_events,
    }


def campaign_config_to_dict(config: CampaignConfig) -> dict[str, Any]:
    return {
        "name": config.name,
        "scenarios": [scenario_to_dict(s) for s in config.scenarios],
        "topologies": [dict(t) for t in config.topologies],
        "seeds": list(config.seeds),
        "settle_cycles": config.settle_cycles,
        "probe_budget": config.probe_budget,
        "check_determinism": config.check_determinism,
        "incremental": config.incremental,
    }
