"""Baseline mapping algorithms the paper compares against.

- :mod:`~repro.baselines.myricom` — the vendor's mapper as described in
  Section 4 (eager, comparison-probe-based replicate detection).
- :mod:`~repro.baselines.selfid` — the hypothetical self-identifying-switch
  mapper discussed in Section 6, a lower bound on in-band mapping cost.
"""

from repro.baselines.myricom import MyricomMapper
from repro.baselines.selfid import SelfIdMapper

__all__ = ["MyricomMapper", "SelfIdMapper"]
